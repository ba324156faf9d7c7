package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mirage/internal/exp"
	"mirage/internal/ipc"
	"mirage/internal/mem"
)

// simVirtual is every sim-paper point's virtual duration: the one the
// internal/exp tests assert the E4 and E5 bands at.
const simVirtual = 10 * time.Second

// simPoint is one sim-paper op: an E4/Figure 7 point (both program
// variants, so two simulated clusters) or an E5/Figure 8 point.
type simPoint struct {
	e4    bool
	ticks int           // E4 Δ in clock ticks
	delta time.Duration // E5 Δ
}

// simPoints are the points the exp tests assert bands on.
var simPoints = []simPoint{
	{e4: true, ticks: 0}, {e4: true, ticks: 2}, {e4: true, ticks: 6},
	{delta: 0}, {delta: 120 * time.Millisecond}, {delta: 600 * time.Millisecond}, {delta: 1200 * time.Millisecond},
}

// simOutcome is a point's result: E4 yield and no-yield cycles/s, or
// E5 instructions/s in [0].
type simOutcome [2]float64

func (p simPoint) String() string {
	if p.e4 {
		return fmt.Sprintf("E4 Δ=%d ticks", p.ticks)
	}
	return fmt.Sprintf("E5 Δ=%v", p.delta)
}

// virtual returns the simulated time one run of the point covers.
func (p simPoint) virtual() time.Duration {
	if p.e4 {
		return 2 * simVirtual
	}
	return simVirtual
}

func (p simPoint) run() simOutcome {
	if p.e4 {
		r := exp.Figure7(simVirtual, []int{p.ticks})[0]
		return simOutcome{r.Yield, r.NoYield}
	}
	r := exp.Figure8(exp.CountersConfig{Duration: simVirtual}, []time.Duration{p.delta})[0]
	return simOutcome{r.InsnPerSec}
}

// checkSimBands applies the E4/E5 shape assertions of the exp tests to
// one outcome per point of simPoints, in that order.
func checkSimBands(out []simOutcome) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	d0, d2, d6 := out[0], out[1], out[2]
	if d0[0] < 6.5 || d0[0] > 9.5 {
		fail("E4 yield(Δ=0) = %.2f cycles/s, band [6.5, 9.5]", d0[0])
	}
	if d2[0] < 4 || d2[0] > 6.5 {
		fail("E4 yield(Δ=2) = %.2f cycles/s, band [4, 6.5]", d2[0])
	}
	if d2[0] < 1.25*d2[1] {
		fail("E4 yield advantage at Δ=2 = %.2fx, want ≥ 1.25x", d2[0]/d2[1])
	}
	if !(d0[0] > d2[0] && d2[0] > d6[0]) {
		fail("E4 yield curve not declining: %.2f %.2f %.2f", d0[0], d2[0], d6[0])
	}
	if d6[0]/d6[1] >= d2[0]/d2[1] {
		fail("E4 curves do not converge: ratio(2)=%.2f ratio(6)=%.2f", d2[0]/d2[1], d6[0]/d6[1])
	}
	at0, at120, peak, at1200 := out[3][0], out[4][0], out[5][0], out[6][0]
	if peak < 0.8*exp.PaperFigure8Peak || peak > 1.1*exp.PaperFigure8Peak {
		fail("E5 peak = %.0f insn/s, band [0.8, 1.1] × %.0f", peak, exp.PaperFigure8Peak)
	}
	if at0 >= at120 || at120 >= peak || at1200 >= peak {
		fail("E5 curve not peaked at 600 ms: %.0f %.0f %.0f %.0f", at0, at120, peak, at1200)
	}
	if peak-at1200 >= peak-at0 {
		fail("E5 retention drop %.0f not gentler than contention drop %.0f", peak-at1200, peak-at0)
	}
	return bad
}

// simRun runs whole cycles of simPoints, each cycle in a seed-drawn
// order, until d has passed, and checks that every point's outcome is
// identical to the reference. Each op's wall time is its latency; the
// op rate is taken over the whole cycles run. It also returns the
// virtual time covered.
func simRun(cfg config, rng *rand.Rand, d time.Duration, ref []simOutcome) (phase, time.Duration) {
	t := &tally{}
	var virtual time.Duration
	m0 := mallocs()
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < d; cycle++ {
		for _, i := range rng.Perm(len(simPoints)) {
			p := simPoints[i]
			t0 := time.Now()
			got := p.run()
			t.lat.add(int64(time.Since(t0)))
			virtual += p.virtual()
			t.done.Add(1)
			if cycle == 0 && i == 0 && cfg.planted("sim-paper/replay") {
				got[0] += 0.1
			}
			if got != ref[i] {
				t.wrong("sim-paper: %v replayed %v, first run %v", p, got, ref[i])
			}
		}
	}
	wall := time.Since(start)
	rate := float64(t.ops()) / wall.Seconds()
	return phase{t: t, wall: wall, allocs: mallocs() - m0, rates: []float64{rate}}, virtual
}

// simReference runs every point once, in order, and checks the bands.
func simReference(cfg config, r *report) []simOutcome {
	ref := make([]simOutcome, len(simPoints))
	for i, p := range simPoints {
		ref[i] = p.run()
	}
	check := ref
	if cfg.planted("sim-paper/band") {
		check = append([]simOutcome(nil), ref...)
		check[0][0] *= 2
	}
	for _, b := range checkSimBands(check) {
		r.problem("sim-paper: %s", b)
	}
	return ref
}

// simSetup builds what every sim-paper point builds first: a 2-site
// simulated cluster whose two processes create and attach one shared
// segment.
func simSetup() error {
	c := ipc.NewCluster(2, ipc.Config{})
	var attached int
	var err error
	for site := 0; site < 2; site++ {
		create := site == 0
		c.Site(site).Spawn("setup", 0, func(p *ipc.Proc) {
			h, e := simAttach(p, create)
			if e != nil {
				err = e
				return
			}
			if _, e := h.Uint32(0); e != nil {
				err = e
				return
			}
			attached++
			// The creator's exit would detach and so destroy the segment:
			// it stays until the other site is attached too.
			for create && attached < 2 && err == nil {
				p.Sleep(time.Millisecond)
			}
		})
	}
	c.Run()
	if err == nil && attached != 2 {
		err = fmt.Errorf("sim setup attached %d of 2 sites", attached)
	}
	return err
}

const simSegKey = mem.Key(0x5349)

// simAttach creates the shared segment, or waits for it to exist and
// attaches it, as the exp workloads do.
func simAttach(p *ipc.Proc, create bool) (*ipc.Shm, error) {
	if create {
		id, err := p.Shmget(simSegKey, pageBytes, mem.Create, 0o666)
		if err != nil {
			return nil, err
		}
		return p.Shmat(id, false)
	}
	for tries := 0; ; tries++ {
		id, err := p.Shmget(simSegKey, pageBytes, 0, 0)
		if err == nil {
			return p.Shmat(id, false)
		}
		if tries == 1000 {
			return nil, err
		}
		p.Sleep(time.Millisecond)
	}
}

// simSetupRepeats is how many simulated clusters set-up time is the
// median over; each takes well under a millisecond.
const simSetupRepeats = 101

func runSimPaper(cfg config, r *report) error {
	if err := simPaper(cfg, r); err != nil {
		return err
	}
	if cfg.trace {
		return runProbes(cfg, r)
	}
	return nil
}

// simPaper measures the simulator serially and on one P: the kernel
// hands control to one goroutine at a time, so a second P only adds
// idle-P wake-ups on every handoff, whose cost depends on what else
// the machine runs (a busy neighbour CPU slowed the median point by up
// to 2x with two Ps and not at all with one).
func simPaper(cfg config, r *report) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	exp.Parallelism = 1
	var times []time.Duration
	for i := 0; i < simSetupRepeats; i++ {
		t0 := time.Now()
		if err := simSetup(); err != nil {
			return err
		}
		times = append(times, time.Since(t0))
	}
	setupS := medianSeconds(times)
	ref := simReference(cfg, r)
	rng := rand.New(rand.NewSource(cfg.seed))
	if !cfg.trace {
		p, virtual := simRun(cfg, rng, cfg.dur(), ref)
		r.setEndToEnd(p, setupS)
		r.set("sim_speed", virtual.Seconds()/p.wall.Seconds(), "s/s")
		r.set("live_heap_mb", liveHeapMB(), "MB")
		return nil
	}
	p, virtual := simRun(cfg, rng, cfg.half(), ref)
	r.count(p.t)
	r.set("sim.speed", virtual.Seconds()/p.wall.Seconds(), "s/s")
	return simKernelProbe(cfg.half(), r)
}

// simKernelProbe steps a simulated 2-site ping-pong (the E4 program
// with yield) from the benchmark, one sim.Kernel event per Step, for d
// of wall time, and reports the kernel's event rate and allocations.
func simKernelProbe(d time.Duration, r *report) error {
	c := ipc.NewCluster(2, ipc.Config{})
	stop := false
	var cycles, wrong int
	proc := func(site int) func(p *ipc.Proc) {
		return func(p *ipc.Proc) {
			h, err := simAttach(p, site == 0)
			if err != nil {
				wrong++
				return
			}
			mine, theirs := 4*site, 4*(1-site)
			for i := uint32(1); !stop; i++ {
				if site == 0 {
					if h.SetUint32(mine, i) != nil {
						wrong++
						return
					}
				}
				for !stop {
					v, err := h.Uint32(theirs)
					if err != nil {
						wrong++
						return
					}
					if v == i {
						break
					}
					if site == 0 && v != i-1 || site == 1 && v > i {
						wrong++
						return
					}
					p.Yield()
				}
				if site == 1 && !stop {
					if h.SetUint32(mine, i) != nil {
						wrong++
						return
					}
				}
				if site == 0 && !stop {
					cycles++
				}
			}
		}
	}
	c.Site(0).Spawn("ping", 0, proc(0))
	c.Site(1).Spawn("pong", 0, proc(1))
	var events int64
	m0 := mallocs()
	v0 := c.K.Now()
	start := time.Now()
	for time.Since(start) < d {
		for j := 0; j < 4096; j++ {
			if !c.K.Step() {
				return fmt.Errorf("sim kernel probe: event queue drained")
			}
			events++
		}
	}
	wall := time.Since(start)
	allocs := mallocs() - m0
	virtual := c.K.Now().Sub(v0)
	stop = true
	c.Run()
	if wrong > 0 || cycles == 0 {
		r.problem("sim kernel probe: %d ping-pong cycles, %d wrong reads", cycles, wrong)
	}
	r.set("sim.events_per_s", float64(events)/wall.Seconds(), "1/s")
	r.set("sim.ns_per_event", float64(wall.Nanoseconds())/float64(events), "ns")
	r.set("sim.allocs_per_event", float64(allocs)/float64(events), "count")
	r.set("sim.probe_cycles_per_virtual_s", float64(cycles)/virtual.Seconds(), "1/s")
	return nil
}
