// Package quantile is the shared fixed-bucket quantile arithmetic
// behind the repository's histograms. internal/obs.Hist (the lock-free
// metrics histogram, which also holds the simulator's fault latencies)
// and internal/load's rung reports both resolve quantiles the same way:
// scan bucket counts for the first bucket at or past ceil(q·total)
// samples and report that bucket's upper bound — an upper bound for the
// true quantile, exact to bucket resolution.
package quantile

// Q returns an upper bound for the q-quantile of a fixed-bucket
// histogram. counts[i] is the number of samples at or below bounds[i];
// counts may be one entry longer than bounds, the extra final bucket
// holding overflow samples, whose upper bound is taken to be max.
// q is clamped to (0, 1]: q ≤ 0 resolves the smallest recorded sample's
// bucket and q > 1 behaves as q = 1. An empty histogram returns 0.
func Q(q float64, counts, bounds []int64, max int64) int64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen >= target {
			if i < len(bounds) {
				return bounds[i]
			}
			return max
		}
	}
	return max
}

// Summary is the standard latency quartet reported by the load
// generator and the benchmark tables. Values carry whatever unit the
// underlying histogram used (nanoseconds throughout this repository).
type Summary struct {
	P50  int64 `json:"p50"`
	P95  int64 `json:"p95"`
	P99  int64 `json:"p99"`
	P999 int64 `json:"p999"`
}

// Quantiler is any histogram that can answer a quantile query;
// internal/obs.Hist satisfies it.
type Quantiler interface {
	Quantile(q float64) int64
}

// Of computes the standard p50/p95/p99/p999 summary from any
// Quantiler.
func Of(h Quantiler) Summary {
	return Summary{
		P50:  h.Quantile(0.50),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
	}
}
