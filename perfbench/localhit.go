package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"mirage"
)

// local-hit sizes. One segment holds lhShared pages that both sites
// read-share, then lhPrivate pages per site that only that site writes.
const (
	lhShared    = 64
	lhPrivate   = 16
	lhWords     = pageBytes / 4
	lhReadFrac  = 0.9
	lhRing      = 1 << 16 // pregenerated ops per client, replayed cyclically
	lhSample    = 64      // one op in lhSample is timed (untraced)
	lhSpanCap   = 250_000 // spans per client in the traced phase
	lhSegKey    = mirage.Key(0x4C48)
	lhPrivBase  = lhShared * pageBytes
	lhPrivBytes = lhPrivate * pageBytes
)

// lhOp is one pregenerated access: a read of a shared word expecting
// its stamp, or a write of a word in the client's private pages.
type lhOp struct {
	off  int32
	word int32 // private word index for a write; -1 for a read
	want uint32
}

// localHit is one built local-hit cluster: both sites attached, shared
// pages stamped and read-shared, private pages owned by their writer.
type localHit struct {
	cfg    config
	c      *mirage.Cluster
	segs   [2]*mirage.Segment
	ops    [2][]lhOp
	shadow [2][]uint32 // last value each client wrote to each private word
}

// lhStamp is the warm-up value of shared word w.
func lhStamp(seed int64, w int) uint32 {
	return uint32(seed)*2654435761 ^ uint32(w)*40503 ^ 0x5bd1e995
}

func newLocalHit(cfg config, o *mirage.Obs) (*localHit, error) {
	c, err := mirage.NewCluster(2, mirage.Options{Obs: o, Check: o != nil})
	if err != nil {
		return nil, err
	}
	lh := &localHit{cfg: cfg, c: c}
	if err := lh.warm(); err != nil {
		c.Close()
		return nil, err
	}
	lh.genOps()
	return lh, nil
}

// warm creates and attaches the segment, stamps the shared pages from
// site 0, has both sites read every shared page (checking the stamps)
// and has each site write its private pages once.
func (lh *localHit) warm() error {
	size := lhShared*pageBytes + 2*lhPrivBytes
	id, err := lh.c.Site(0).Shmget(lhSegKey, size, mirage.Create, 0o600)
	if err != nil {
		return err
	}
	for i := range lh.segs {
		if lh.segs[i], err = lh.c.Site(i).Attach(id, false); err != nil {
			return err
		}
	}
	page := make([]byte, pageBytes)
	for p := 0; p < lhShared; p++ {
		for w := 0; w < lhWords; w++ {
			v := lhStamp(lh.cfg.seed, p*lhWords+w)
			page[4*w], page[4*w+1], page[4*w+2], page[4*w+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
		if err := lh.segs[0].WriteAt(page, p*pageBytes); err != nil {
			return err
		}
	}
	zero := make([]byte, lhPrivBytes)
	for i, g := range lh.segs {
		if err := g.WriteAt(zero, lhPrivBase+i*lhPrivBytes); err != nil {
			return err
		}
		lh.shadow[i] = make([]uint32, lhPrivBytes/4)
		for p := 0; p < lhShared; p++ {
			if err := g.ReadAt(page, p*pageBytes); err != nil {
				return err
			}
			for w := 0; w < lhWords; w++ {
				got := uint32(page[4*w]) | uint32(page[4*w+1])<<8 | uint32(page[4*w+2])<<16 | uint32(page[4*w+3])<<24
				if want := lhStamp(lh.cfg.seed, p*lhWords+w); got != want {
					return fmt.Errorf("warm-up: site %d read shared word %d = %#x, stamped %#x", i, p*lhWords+w, got, want)
				}
			}
		}
	}
	return nil
}

// genOps draws each client's op ring from the seed.
func (lh *localHit) genOps() {
	for site := range lh.ops {
		rng := rand.New(rand.NewSource(lh.cfg.seed*7919 + int64(site)))
		ops := make([]lhOp, lhRing)
		for i := range ops {
			if rng.Float64() < lhReadFrac {
				w := rng.Intn(lhShared * lhWords)
				ops[i] = lhOp{off: int32(4 * w), word: -1, want: lhStamp(lh.cfg.seed, w)}
			} else {
				w := rng.Intn(lhPrivBytes / 4)
				ops[i] = lhOp{off: int32(lhPrivBase + site*lhPrivBytes + 4*w), word: int32(w)}
			}
		}
		lh.ops[site] = ops
	}
}

func (lh *localHit) close() { lh.c.Close() }

// run drives one closed-loop client per site for d. With recs (the
// traced phase) every op is a span and the clients probe the actor
// hop; without, one op in lhSample is timed.
func (lh *localHit) run(d time.Duration, full func() bool, recs []*spans) phase {
	ts := []*tally{{}, {}}
	clients := make([]func(*atomic.Bool), 2)
	for site := range clients {
		var sp *spans
		if recs != nil {
			sp = recs[site]
		}
		clients[site] = lh.client(site, ts[site], sp)
	}
	return drive(d, full, ts, clients...)
}

func (lh *localHit) client(site int, t *tally, sp *spans) func(*atomic.Bool) {
	return func(stop *atomic.Bool) {
		g := lh.segs[site]
		ops := lh.ops[site]
		shadow := lh.shadow[site]
		st := lh.c.Site(site)
		plantAt := -1
		if lh.cfg.planted("local-hit/stamp") && site == 0 {
			plantAt = 1000
		}
		for i := 0; !stop.Load(); i++ {
			op := &ops[i&(lhRing-1)]
			f0 := t.failed
			timed := sp == nil && i%lhSample == 0
			var t0 time.Time
			var s0 int64
			if timed {
				t0 = time.Now()
			} else if sp != nil {
				sp.op = int64(2*i + site)
				s0 = sp.now()
			}
			var err error
			if op.word >= 0 {
				v := uint32(i + 1)
				err = g.SetUint32(int(op.off), v)
				shadow[op.word] = v
			} else {
				var v uint32
				v, err = g.Uint32(int(op.off))
				if i == plantAt {
					v++
				}
				if err == nil && v != op.want {
					t.wrong("local-hit: site %d read shared offset %d = %#x, stamped %#x", site, op.off, v, op.want)
				}
			}
			if err != nil {
				t.fail(err)
			}
			t.done.Add(1)
			if timed {
				t.record(int64(time.Since(t0)), f0)
			} else if sp != nil {
				kind := spRead
				if op.word >= 0 {
					kind = spWrite
				}
				sp.add(kind, s0)
				if i%hopEvery == 0 {
					sp.hop(st)
				}
				if sp.full() {
					stop.Store(true)
				}
			}
		}
	}
}

// checkPrivate reads every private word back from the other site and
// compares it with the last value its writer stored there.
func (lh *localHit) checkPrivate(r *report) {
	for site := range lh.segs {
		reader := lh.segs[1-site]
		buf := make([]byte, lhPrivBytes)
		if err := reader.ReadAt(buf, lhPrivBase+site*lhPrivBytes); err != nil {
			r.problem("local-hit: cross-site read of site %d's pages: %v", site, err)
			continue
		}
		if lh.cfg.planted("local-hit/private") {
			buf[0]++
		}
		for w, want := range lh.shadow[site] {
			got := uint32(buf[4*w]) | uint32(buf[4*w+1])<<8 | uint32(buf[4*w+2])<<16 | uint32(buf[4*w+3])<<24
			if got != want {
				r.problem("local-hit: site %d read site %d's private word %d = %d, last written %d", 1-site, site, w, got, want)
				break
			}
		}
	}
}

func runLocalHit(cfg config, r *report) error {
	if !cfg.trace {
		lh, setupS, err := buildMedian(setupRepeats,
			func() (*localHit, error) { return newLocalHit(cfg, nil) }, (*localHit).close)
		if err != nil {
			return err
		}
		defer lh.close()
		r.setEndToEnd(lh.run(cfg.dur(), nil, nil), setupS)
		lh.checkPrivate(r)
		r.set("live_heap_mb", liveHeapMB(), "MB")
		return nil
	}

	a, err := newLocalHit(cfg, nil)
	if err != nil {
		return err
	}
	ta := a.run(cfg.half(), nil, nil).t
	a.checkPrivate(r)
	a.close()
	untracedP50 := float64(ta.lat.quantile(0.5))

	o := tracedObs()
	b, err := newLocalHit(cfg, o)
	if err != nil {
		return err
	}
	defer b.close()
	base := time.Now()
	recs := []*spans{newSpans(base, lhSpanCap), newSpans(base, lhSpanCap)}
	before, busy0 := snapCounters(o), busyReplies(b.c)
	tb := b.run(cfg.half(), traceFull(o), recs).t
	r.setProtocolLayers(snapCounters(o).sub(before), busyReplies(b.c)-busy0, tb.ops(), tb.ops())
	r.count(ta)
	r.count(tb)
	ops := opDurations(recs)
	r.setAccessCalls(ops)
	r.setHops(recs)
	r.setOverhead(untracedP50, float64(quantile(ops, 0.5)))
	b.checkPrivate(r)
	r.verify(b.c, o)
	if err := writeSpans(cfg.spansDir, fmt.Sprintf("local-hit-%d", cfg.seed), recs); err != nil {
		return err
	}
	return runProbes(cfg, r)
}
