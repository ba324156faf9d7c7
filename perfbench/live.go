package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// pageBytes is the coherence unit every workload runs with: the
// default (and the paper's) 512-byte page.
const pageBytes = 512

// setupRepeats is how many times a run builds its cluster from
// scratch; setup_s is the median, and the last build serves the run.
const setupRepeats = 9

// buildMedian builds n times, tearing down all but the last build, and
// returns the last build with the median build time in seconds.
func buildMedian[T any](n int, build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		b, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0))
		if i < n-1 {
			discard(b)
		}
		last = b
	}
	return last, medianSeconds(times), nil
}

// window is the length of the sub-windows drive cuts a timed phase
// into. The machine's throughput drifts over seconds, so ops_per_s and
// op_p99_us are medians over sub-windows, which a stall in a few of
// them does not move.
const window = 500 * time.Millisecond

// drive runs the closed-loop clients concurrently until d has passed
// or any client (or full, when non-nil) asks to stop. Client i counts
// its ops and latency samples in ts[i]. drive returns the phase with
// the op rate and p99 latency of each whole sub-window.
func drive(d time.Duration, full func() bool, ts []*tally, clients ...func(stop *atomic.Bool)) phase {
	var stop atomic.Bool
	var win atomic.Int32
	var wg sync.WaitGroup
	for _, t := range ts {
		t.win = &win
	}
	m0 := mallocs()
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c func(*atomic.Bool)) {
			defer wg.Done()
			c(&stop)
		}(c)
	}
	done := func() int64 {
		var n int64
		for _, t := range ts {
			n += t.done.Load()
		}
		return n
	}
	var rates []float64
	lastT, lastN := start, int64(0)
	for !stop.Load() && time.Since(start) < d {
		if full != nil && full() {
			break
		}
		// Sleep to the next sub-window boundary, polling full (the
		// traced phase) every few milliseconds.
		nap := min(window-time.Since(lastT), d-time.Since(start))
		if full != nil {
			nap = min(nap, 5*time.Millisecond)
		}
		time.Sleep(nap)
		if now := time.Now(); now.Sub(lastT) >= window {
			n := done()
			rates = append(rates, float64(n-lastN)/now.Sub(lastT).Seconds())
			lastT, lastN = now, n
			win.Add(1)
		}
	}
	stop.Store(true)
	wg.Wait()
	p := phase{wall: time.Since(start), allocs: mallocs() - m0, rates: rates}
	for w := range rates {
		var h hist
		for _, t := range ts {
			if w < len(t.wins) {
				h.merge(t.wins[w])
			}
		}
		if h.n > 0 {
			p.p99s = append(p.p99s, h.quantile(0.99))
		}
	}
	p.t = merge(ts)
	return p
}

// tally is one client's outcome: ops attempted and failed, the
// sampled op latencies, and the first wrong outputs it saw.
type tally struct {
	done     atomic.Int64 // completed ops, counted live
	_        [56]byte     // keeps clients' counters off one cache line
	failed   int64
	lat      hist          // every latency sample, in ns
	win      *atomic.Int32 // drive's current sub-window; nil outside drive
	wins     []*hist       // wins[w]: the samples of sub-window w
	problems []string
	firstErr error
}

// record adds one op's latency sample to the current sub-window. An op
// that failed (t.failed grew past failedBefore) counts as slower than
// any limit.
func (t *tally) record(ns, failedBefore int64) {
	if t.failed > failedBefore {
		ns = math.MaxInt64
	}
	t.lat.add(ns)
	if t.win != nil {
		w := int(t.win.Load())
		for len(t.wins) <= w {
			t.wins = append(t.wins, &hist{})
		}
		t.wins[w].add(ns)
	}
}

func (t *tally) ops() int64 { return t.done.Load() }

// fail counts an op that returned an error.
func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// wrong counts a failed op whose output was wrong and keeps the first
// few descriptions.
func (t *tally) wrong(format string, args ...any) {
	t.failed++
	if len(t.problems) < 3 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// merge folds the clients' tallies into one.
func merge(ts []*tally) *tally {
	out := &tally{}
	for _, t := range ts {
		out.done.Add(t.done.Load())
		out.failed += t.failed
		out.lat.merge(&t.lat)
		out.problems = append(out.problems, t.problems...)
		if out.firstErr == nil {
			out.firstErr = t.firstErr
		}
	}
	return out
}

// phase is the outcome of one timed phase of closed-loop clients.
type phase struct {
	t      *tally
	wall   time.Duration
	allocs uint64    // process mallocs during the phase
	rates  []float64 // op rate of each whole sub-window
	p99s   []int64   // p99 latency (ns) of each whole sub-window
}

// setEndToEnd reports the end-to-end metrics of one timed phase.
// Without sub-windows (sim-paper) the whole phase is the one window.
func (r *report) setEndToEnd(p phase, setupS float64) {
	t := p.t
	r.count(t)
	whole := float64(t.ops()) / p.wall.Seconds()
	r.set("ops_per_s", whole, "1/s")
	if len(p.rates) > 0 {
		r.set("ops_per_s", medianFloat(p.rates), "1/s")
	}
	r.set("ops_per_s_whole_run", whole, "1/s")
	r.setLatency("op", &t.lat)
	r.set("op_p99_us_whole_run", r.vals["op_p99_us"], "us")
	if len(p.p99s) > 0 {
		p99 := make([]float64, len(p.p99s))
		for i, v := range p.p99s {
			p99[i] = float64(v) / 1e3
		}
		r.set("op_p99_us", medianFloat(p99), "us")
	}
	r.set("windows", float64(len(p.rates)), "count")
	r.set("allocs_per_op", ratio(float64(p.allocs), float64(t.ops())), "count")
	r.set("setup_s", setupS, "s")
}
