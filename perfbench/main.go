// Command perfbench is the repository benchmark: it drives Mirage from
// outside, through public functions only, and reports end-to-end and
// per-layer metrics for one workload per run.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <dir>]
//
// Workloads (workloads.json records why each was chosen, its sizes, and
// which layers it loads and bypasses):
//
//	local-hit        inproc, 2 sites, one client per site; every access hits
//	pingpong-inproc  inproc, 2 sites, one serial client; every op is one
//	                 cross-site write fault (the §7.2 worst case)
//	kv-zipf-tcp      TCP, 2 sites, one client per site's Store; Zipf keys
//	sim-paper        the calibrated simulator: E4/Figure 7 and E5/Figure 8
//	                 points at fixed virtual durations
//
// Every live workload is closed loop: a client issues its next op when
// the previous one returns. With --trace 0 the run measures the
// end-to-end metrics with tracing off. With --trace 1 it measures the
// per-layer metrics: an untraced phase, a traced phase (program
// counters, coherence trace with Options.Check, benchmark spans around
// every op and Segment call) that VerifyTrace must pass, and the
// isolated layer probes. Every run checks the outputs it reads back;
// a wrong output makes the run incorrect and the exit status 1.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it list
// every measured value by name with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	// plant names a correctness check to feed one wrong answer; the
	// self-tests use it to prove that each check rejects one. Empty in
	// real runs.
	plant string
}

func (c config) dur() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// half is the length of each phase of a traced run.
func (c config) half() time.Duration { return c.dur() / 2 }

// planted reports whether check should receive its wrong answer now.
func (c config) planted(check string) bool { return c.plant == check }

var workloads = map[string]func(config, *report) error{
	"local-hit":       runLocalHit,
	"pingpong-inproc": runPingPong,
	"kv-zipf-tcp":     runKV,
	"sim-paper":       runSimPaper,
}

// run executes one workload and returns its report.
func run(cfg config) (*report, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	r := newReport()
	if err := fn(cfg, r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return r, nil
}

// emit prints the summary lines and the JSON result, and reports
// whether the run was correct.
func emit(w io.Writer, cfg config, r *report) bool {
	list := endToEnd
	if cfg.trace {
		list = perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	r.summary(w)
	res := r.result(list)
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of plain floats and strings always marshals
	}
	fmt.Fprintln(w, string(b))
	return res.Correct
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 8, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 measures the per-layer metrics")
	flag.StringVar(&cfg.spansDir, "spans", "", "directory for the traced run's spans (none when empty)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !emit(os.Stdout, cfg, r) {
		os.Exit(1)
	}
}
