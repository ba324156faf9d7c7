package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"mirage"
)

// pingpong-inproc sizes: one 512-byte page holds the shared word, Δ is
// the default 0, and the warm-up makes ppWarm handoffs before timing.
const (
	ppSegKey  = mirage.Key(0x5050)
	ppWarm    = 256
	ppSpanCap = 300_000
)

// pingPong is one built ping-pong cluster. Op n runs at site (n+1)%2,
// the site that does not hold the page, so every op is exactly one
// cross-site write fault.
type pingPong struct {
	cfg  config
	c    *mirage.Cluster
	segs [2]*mirage.Segment
	off  int
	last uint32 // the word's value after the last op
	n    int64  // ops issued so far, warm-up included
}

func newPingPong(cfg config, o *mirage.Obs) (*pingPong, error) {
	c, err := mirage.NewCluster(2, mirage.Options{Obs: o, Check: o != nil})
	if err != nil {
		return nil, err
	}
	pp := &pingPong{
		cfg:  cfg,
		c:    c,
		off:  4 * int(uint64(cfg.seed)%(pageBytes/4)),
		last: uint32(cfg.seed) * 2654435761,
	}
	if err := pp.warm(); err != nil {
		c.Close()
		return nil, err
	}
	return pp, nil
}

func (pp *pingPong) warm() error {
	id, err := pp.c.Site(0).Shmget(ppSegKey, pageBytes, mirage.Create, 0o600)
	if err != nil {
		return err
	}
	for i := range pp.segs {
		if pp.segs[i], err = pp.c.Site(i).Attach(id, false); err != nil {
			return err
		}
	}
	if err := pp.segs[0].SetUint32(pp.off, pp.last); err != nil {
		return err
	}
	t := &tally{}
	for i := 0; i < ppWarm; i++ {
		pp.step(t, nil)
	}
	if t.failed > 0 {
		if len(t.problems) > 0 {
			return fmt.Errorf("warm-up: %s", t.problems[0])
		}
		return fmt.Errorf("warm-up: %v", t.firstErr)
	}
	return nil
}

func (pp *pingPong) close() { pp.c.Close() }

// step issues one AddUint32 from the site not holding the page and
// checks that it returns the previous value plus one. It returns the
// op's latency in ns.
func (pp *pingPong) step(t *tally, sp *spans) int64 {
	site := int(pp.n+1) & 1
	var s0 int64
	var t0 time.Time
	if sp != nil {
		sp.op = pp.n
		s0 = sp.now()
	} else {
		t0 = time.Now()
	}
	got, err := pp.segs[site].AddUint32(pp.off, 1)
	var lat int64
	if sp != nil {
		lat = sp.add(spAdd, s0)
	} else {
		lat = int64(time.Since(t0))
	}
	if pp.n == ppWarm+1000 && pp.cfg.planted("pingpong-inproc/add") {
		got++
	}
	switch {
	case err != nil:
		t.fail(err)
	case got != pp.last+1:
		t.wrong("pingpong-inproc: op %d at site %d returned %d after %d", pp.n, site, got, pp.last)
		pp.last = got
	default:
		pp.last = got
	}
	pp.n++
	return lat
}

// run drives the single serial client for d.
func (pp *pingPong) run(d time.Duration, full func() bool, sp *spans) phase {
	t := &tally{}
	return drive(d, full, []*tally{t}, func(stop *atomic.Bool) {
		for i := 0; !stop.Load(); i++ {
			f0 := t.failed
			lat := pp.step(t, sp)
			t.done.Add(1)
			if sp == nil {
				t.record(lat, f0)
				continue
			}
			if i%hopEvery == 0 {
				sp.hop(pp.c.Site(i & 1))
			}
			if sp.full() {
				stop.Store(true)
			}
		}
	})
}

func runPingPong(cfg config, r *report) error {
	if !cfg.trace {
		pp, setupS, err := buildMedian(setupRepeats,
			func() (*pingPong, error) { return newPingPong(cfg, nil) }, (*pingPong).close)
		if err != nil {
			return err
		}
		defer pp.close()
		r.setEndToEnd(pp.run(cfg.dur(), nil, nil), setupS)
		r.set("live_heap_mb", liveHeapMB(), "MB")
		return nil
	}

	a, err := newPingPong(cfg, nil)
	if err != nil {
		return err
	}
	ta := a.run(cfg.half(), nil, nil).t
	a.close()
	untracedP50 := float64(ta.lat.quantile(0.5))

	o := tracedObs()
	b, err := newPingPong(cfg, o)
	if err != nil {
		return err
	}
	defer b.close()
	sp := newSpans(time.Now(), ppSpanCap)
	recs := []*spans{sp}
	before, busy0 := snapCounters(o), busyReplies(b.c)
	tb := b.run(cfg.half(), traceFull(o), sp).t
	r.setProtocolLayers(snapCounters(o).sub(before), busyReplies(b.c)-busy0, tb.ops(), tb.ops())
	r.count(ta)
	r.count(tb)
	ops := opDurations(recs)
	r.setAccessCalls(ops)
	r.setHops(recs)
	r.setOverhead(untracedP50, float64(quantile(ops, 0.5)))
	r.verify(b.c, o)
	if err := writeSpans(cfg.spansDir, fmt.Sprintf("pingpong-inproc-%d", cfg.seed), recs); err != nil {
		return err
	}
	return runProbes(cfg, r)
}
