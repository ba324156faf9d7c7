package main

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit. The two lists
// below are the benchmark's contract: a --trace 0 run reports exactly
// endToEnd, a --trace 1 run exactly perLayer, on every workload.
type metricSpec struct{ name, unit string }

// endToEnd are the numbers a mirage user sees, measured with tracing
// off. Every one is non-zero on every workload.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"allocs_per_op", "count"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

// perLayer cut the op path at the layer seams. A metric whose layer a
// workload bypasses reads 0 there (workloads.json lists, per metric,
// the workloads it is measured on).
var perLayer = []metricSpec{
	{"access.call_p50_ns", "ns"},
	{"access.call_p99_ns", "ns"},
	{"access.calls_per_op", "count"},
	{"access.hit_ratio", "ratio"},
	{"access.faults_per_op", "count"},
	{"actor.hop_p50_ns", "ns"},
	{"actor.hop_p99_ns", "ns"},
	{"core.handoff_ns", "ns"},
	{"core.allocs_per_handoff", "count"},
	{"core.msgs_per_fault", "count"},
	{"core.invals_per_fault", "count"},
	{"core.grant_cycles_per_fault", "count"},
	{"core.busy_replies_per_fault", "count"},
	{"wire.encode_page_ns", "ns"},
	{"wire.decode_page_ns", "ns"},
	{"wire.decode_inval3_ns", "ns"},
	{"wire.decode_allocs", "count"},
	{"wire.bytes_per_op", "B"},
	{"transport.tcp_rtt_us", "us"},
	{"transport.frames_per_flush", "count"},
	{"transport.flushes_per_op", "count"},
	{"transport.bytes_per_op", "B"},
	{"app.get_p50_us", "us"},
	{"app.put_p50_us", "us"},
	{"app.cas_p50_us", "us"},
	{"app.delete_p50_us", "us"},
	{"app.self_ns_per_op", "ns"},
	{"app.conflicts_per_op", "count"},
	{"app.key_hit_ratio", "ratio"},
	{"sim.speed", "s/s"},
	{"sim.events_per_s", "1/s"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"obs.trace_overhead_frac", "frac"},
	{"check.violations", "count"},
	{"check.dropped_events", "count"},
	{"check.verify_s", "s"},
}

// report accumulates one run's outcome: op counts, metric values, and
// every correctness problem found. Values not named by the run's
// metric list (error_rate, sample counts) are printed in the summary
// lines only.
type report struct {
	attempted, failed int64
	vals              map[string]float64
	units             map[string]string
	order             []string
	problems          []string
	errs              []string // first error of each failing tally
}

func newReport() *report {
	return &report{vals: map[string]float64{}, units: map[string]string{}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.vals[name]; !ok {
		r.order = append(r.order, name)
	}
	r.vals[name] = v
	r.units[name] = unit
}

// problem records a correctness failure; a run with any is not correct.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// count adds a tally's ops, failures and problems, and updates the
// derived error rate.
func (r *report) count(t *tally) {
	r.attempted += t.ops()
	r.failed += t.failed
	for _, p := range t.problems {
		r.problem("%s", p)
	}
	if t.firstErr != nil {
		r.errs = append(r.errs, t.firstErr.Error())
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	r.set("error_rate", rate, "frac")
}

// summary writes every value as "name value unit", plus the problems.
func (r *report) summary(w io.Writer) {
	for _, n := range r.order {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, r.vals[n], r.units[n])
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "first failed op: %s\n", e)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "INCORRECT: %s\n", p)
	}
}

// metric is one entry of the result's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the run's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result selects the listed metrics; a listed metric the workload does
// not measure reads 0.
func (r *report) result(list []metricSpec) result {
	out := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(list)),
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	for _, m := range list {
		v := r.vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}

// quantile returns the nearest-rank q-quantile of sorted, or 0 when
// empty.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortInt64(v []int64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

// setLatency reports the median and p99 of h in µs, with the sample
// count and how many samples lie beyond the p99.
func (r *report) setLatency(prefix string, h *hist) {
	r.set(prefix+"_p50_us", float64(h.quantile(0.50))/1e3, "us")
	r.set(prefix+"_p99_us", float64(h.quantile(0.99))/1e3, "us")
	r.set(prefix+"_samples", float64(h.n), "count")
	r.set(prefix+"_p99_beyond", float64(h.n-int64(math.Ceil(0.99*float64(h.n)))), "count")
}

// histBits sets a hist's precision: 1<<histBits linear sub-buckets per
// power of two, so a reported quantile is within 0.4% of the sample.
const (
	histBits = 8
	histSub  = 1 << histBits
)

// hist is a log-linear latency histogram (ns). Its fixed size keeps
// the benchmark's own heap, and so the GC work it adds to the program
// under test, from growing with the op count.
type hist struct {
	n int64
	b [(64 - histBits) * histSub]int64
}

// histIndex maps v ≥ 0 to its bucket: values below histSub exactly,
// larger ones by their top histBits+1 bits.
func histIndex(v int64) int {
	if v < histSub {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - histBits - 1
	return (e+1)*histSub + int(v>>uint(e))&(histSub-1)
}

// histValue returns the middle of bucket i.
func histValue(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := uint(i/histSub - 1)
	lo := int64(histSub+i%histSub) << e
	return lo + (int64(1)<<e-1)/2
}

func (h *hist) add(v int64) {
	h.b[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.b {
		h.b[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile, or 0 when empty.
func (h *hist) quantile(q float64) int64 {
	rank := int64(math.Ceil(q * float64(h.n)))
	var seen int64
	for i, c := range h.b {
		seen += c
		if c > 0 && seen >= rank {
			return histValue(i)
		}
	}
	return 0
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMB forces a collection and returns the heap in use, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// medianSeconds returns the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return medianFloat(v)
}

// medianFloat returns the median of v, or 0 when empty.
func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
