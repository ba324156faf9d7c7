package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-tests hold
// the program to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric lists
// and BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	check := func(kind string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program lists %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

// runShort runs one short workload and returns its parsed last line.
func runShort(t *testing.T, cfg config) (result, *report) {
	t.Helper()
	r, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	var out bytes.Buffer
	emit(&out, cfg, r)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", cfg.workload, err, out.String())
	}
	return res, r
}

// TestShortRunsEmitEveryMetric runs every workload briefly, untraced
// and traced, and checks that the result names exactly the metric
// list with its units, that the run was correct with no failed op,
// and that every end-to-end metric and the traced run's check layer
// are non-zero and zero where they must be.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.6, trace: trace, spansDir: t.TempDir()}
			res, r := runShort(t, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v errs=%v",
					name, trace, res.Correct, res.Attempted, res.Failed, r.problems, r.errs)
			}
			list := endToEnd
			if trace {
				list = perLayer
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(list))
			}
			for _, m := range list {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.name, got, m.unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
			if trace && name != "sim-paper" {
				if v := res.Metrics["check.violations"].Value + res.Metrics["check.dropped_events"].Value; v != 0 {
					t.Errorf("%s: violations + dropped = %v", name, v)
				}
				for _, m := range []string{"check.verify_s", "access.call_p50_ns", "actor.hop_p50_ns", "core.handoff_ns", "wire.decode_inval3_ns", "transport.tcp_rtt_us"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
					}
				}
			}
		}
	}
}

// TestPlantedWrongAnswersFailTheRun feeds each correctness check one
// wrong answer and expects the run to be reported incorrect.
func TestPlantedWrongAnswersFailTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, c := range []struct{ workload, plant, want string }{
		{"local-hit", "local-hit/stamp", "stamped"},
		{"local-hit", "local-hit/private", "last written"},
		{"pingpong-inproc", "pingpong-inproc/add", "returned"},
		{"kv-zipf-tcp", "kv-zipf-tcp/get", "Get("},
		{"sim-paper", "sim-paper/replay", "replayed"},
		{"sim-paper", "sim-paper/band", "band"},
	} {
		cfg := config{workload: c.workload, seed: 3, seconds: 0.6, plant: c.plant}
		res, r := runShort(t, cfg)
		if res.Correct {
			t.Errorf("%s: planted wrong answer passed", c.plant)
			continue
		}
		if !strings.Contains(strings.Join(r.problems, "\n"), c.want) {
			t.Errorf("%s: problems %q do not mention %q", c.plant, r.problems, c.want)
		}
	}
}

// TestSimBandsAcceptReference checks the band assertions against the
// values the simulator produces, and that each band rejects a value
// outside it.
func TestSimBandsAcceptReference(t *testing.T) {
	ref := make([]simOutcome, len(simPoints))
	for i, p := range simPoints {
		ref[i] = p.run()
	}
	if bad := checkSimBands(ref); len(bad) != 0 {
		t.Fatalf("reference outcomes rejected: %v", bad)
	}
	for i, scale := range map[int]float64{0: 0.5, 1: 2, 5: 1.5} {
		out := append([]simOutcome(nil), ref...)
		out[i][0] *= scale
		if len(checkSimBands(out)) == 0 {
			t.Errorf("point %v scaled by %v passed the bands", simPoints[i], scale)
		}
	}
}

// TestHistQuantileWithinBucketWidth compares the histogram's quantiles
// with exact nearest-rank quantiles of the same samples.
func TestHistQuantileWithinBucketWidth(t *testing.T) {
	var h hist
	var exact []int64
	x := uint64(88172645463325252)
	for i := 0; i < 100_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := int64(x % 5_000_000) // up to 5 ms in ns
		if i%10 == 0 {
			v %= 100 // and some exact small values
		}
		h.add(v)
		exact = append(exact, v)
	}
	sortInt64(exact)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		got, want := h.quantile(q), quantile(exact, q)
		if d := got - want; d < 0 && -d > want/histSub || d > 0 && d > want/histSub {
			t.Errorf("q%v: hist %d, exact %d", q, got, want)
		}
	}
	if h.quantile(1) < 4_900_000 {
		t.Errorf("max = %d", h.quantile(1))
	}
}
