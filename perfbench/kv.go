package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"mirage"
	"mirage/internal/app"
	"mirage/internal/load"
	"mirage/internal/obs"
)

// kv-zipf-tcp sizes. The keyspace fills about half of each shard's
// slots, so no Put ever finds its shard full.
const (
	kvShards    = 8
	kvSlots     = 256
	kvSlotSize  = 128
	kvKeys      = 1024
	kvValBytes  = 32
	kvWarm      = 2000 // ops per client after the prefill, before timing
	kvSpanCap   = 1_000_000
	kvMaxFill   = 0.75 // most keys one shard may hold, as a share of its slots
	kvOpRateArg = 1e6  // load.Gen needs a rate; closed-loop clients ignore op times
)

func kvStoreConfig() mirage.StoreConfig {
	return mirage.StoreConfig{Shards: kvShards, SlotsPerShard: kvSlots, SlotSize: kvSlotSize}
}

// kvSpec is the generator spec: Zipf keys (load's default s = 1.2) and
// load's default get/put/CAS/delete mix, one stream per site.
func kvSpec(seed int64) load.Spec {
	return load.Spec{
		Seed:      seed,
		Rate:      kvOpRateArg,
		Duration:  time.Duration(math.MaxInt64),
		Frontends: 2,
		Keys:      kvKeys,
		ValBytes:  kvValBytes,
		Skew:      load.SkewZipf,
	}.WithDefaults()
}

// kv is one built store cluster, prefilled and warmed.
type kv struct {
	cfg    config
	c      *mirage.Cluster
	stores []*mirage.Store
	keys   [][]byte
	vals   [][]byte
	spec   load.Spec
}

// newKV builds the TCP cluster and its stores: through
// Cluster.OpenStores, or, when recs is set (the traced phase), through
// app.New over Segment wrappers that record a span per Segment call.
func newKV(cfg config, o *mirage.Obs, recs []*spans) (*kv, error) {
	c, err := mirage.NewCluster(2, mirage.Options{TCP: true, Obs: o, Check: o != nil})
	if err != nil {
		return nil, err
	}
	k := &kv{cfg: cfg, c: c, spec: kvSpec(cfg.seed)}
	if err := k.open(o, recs); err != nil {
		c.Close()
		return nil, err
	}
	return k, nil
}

func (k *kv) open(o *mirage.Obs, recs []*spans) error {
	scfg := kvStoreConfig()
	var err error
	if recs == nil {
		k.stores, err = k.c.OpenStores(scfg)
	} else {
		k.stores, err = openTracedStores(k.c, scfg, o, recs)
	}
	if err != nil {
		return err
	}
	scfg = k.stores[0].Config()
	perShard := make([]int, scfg.Shards)
	for id := 0; id < kvKeys; id++ {
		key := load.KeyBytes(uint64(id))
		k.keys = append(k.keys, key)
		k.vals = append(k.vals, load.ValBytes(uint64(id), kvValBytes))
		perShard[scfg.ShardOf(key)]++
	}
	for s, n := range perShard {
		if float64(n) > kvMaxFill*float64(scfg.SlotsPerShard) {
			return fmt.Errorf("shard %d gets %d of %d keys: too full for %d slots", s, n, kvKeys, scfg.SlotsPerShard)
		}
	}
	for id := range k.keys {
		if err := k.stores[id%2].Put(k.keys[id], k.vals[id]); err != nil {
			return fmt.Errorf("prefill key %d: %w", id, err)
		}
	}
	t := &tally{}
	for f := range k.stores {
		gen := load.NewGen(k.spec, f+2) // warm-up streams differ from the timed ones
		for i := 0; i < kvWarm; i++ {
			op, _ := gen.Next()
			k.exec(f, op, t, false)
		}
	}
	if t.failed > 0 {
		if len(t.problems) > 0 {
			return fmt.Errorf("warm-up: %s", t.problems[0])
		}
		return fmt.Errorf("warm-up: %v", t.firstErr)
	}
	for _, sp := range recs {
		sp.buf = sp.buf[:0]
		sp.hops = sp.hops[:0]
	}
	return nil
}

func (k *kv) close() { k.c.Close() }

// exec applies one generated op through site f's Store, checks every
// value a Get returns, and counts the outcome in t. It returns the
// op's span kind. A miss is a valid outcome: a Get or Delete of an
// absent key, and a CAS whose key a concurrent Delete removed between
// its read and its swap. Errors (ErrShardBusy, ErrUnreachable, ...)
// and wrong bytes are failures.
func (k *kv) exec(f int, op load.Op, t *tally, plant bool) uint8 {
	st := k.stores[f]
	key, want := k.keys[op.Key], k.vals[op.Key]
	var err error
	kind := spGet
	switch op.Kind {
	case load.OpGet:
		var v []byte
		v, err = st.Get(key)
		if err == nil {
			k.checkValue(t, f, op.Key, v, plant)
		}
	case load.OpPut:
		kind = spPut
		err = st.Put(key, want)
	case load.OpDelete:
		kind = spDelete
		err = st.Delete(key)
	default:
		kind = spCAS
		var cur []byte
		cur, err = st.Get(key)
		switch {
		case errors.Is(err, mirage.ErrKeyNotFound):
			_, err = st.CAS(key, nil, want)
		case err == nil:
			k.checkValue(t, f, op.Key, cur, plant)
			_, err = st.CAS(key, cur, want)
		}
	}
	if err != nil && !errors.Is(err, mirage.ErrKeyNotFound) {
		t.fail(err)
	}
	return kind
}

// checkValue compares a value read back with the only value ever
// written under the key.
func (k *kv) checkValue(t *tally, f int, key uint64, v []byte, plant bool) {
	if plant && len(v) > 0 {
		v[0] ^= 0xff
	}
	if !bytes.Equal(v, k.vals[key]) {
		t.wrong("kv-zipf-tcp: site %d Get(%s) = %x, want %x", f, k.keys[key], v, k.vals[key])
	}
}

// run drives one closed-loop client per site for d; every op is timed.
func (k *kv) run(d time.Duration, full func() bool, recs []*spans) phase {
	ts := []*tally{{}, {}}
	clients := make([]func(*atomic.Bool), 2)
	for f := range clients {
		var sp *spans
		if recs != nil {
			sp = recs[f]
		}
		clients[f] = k.client(f, ts[f], sp)
	}
	return drive(d, full, ts, clients...)
}

func (k *kv) client(f int, t *tally, sp *spans) func(*atomic.Bool) {
	return func(stop *atomic.Bool) {
		gen := load.NewGen(k.spec, f)
		site := k.c.Site(f)
		plantAt := int64(-1)
		if k.cfg.planted("kv-zipf-tcp/get") {
			plantAt = 500
		}
		for i := int64(0); !stop.Load(); i++ {
			op, _ := gen.Next()
			if sp == nil {
				f0, t0 := t.failed, time.Now()
				k.exec(f, op, t, i >= plantAt && plantAt >= 0 && t.failed == 0)
				t.record(int64(time.Since(t0)), f0)
			} else {
				sp.op = 2*i + int64(f)
				s0 := sp.now()
				kind := k.exec(f, op, t, false)
				sp.add(kind, s0)
				if i%hopEvery == 0 {
					sp.hop(site)
				}
				if sp.full() {
					stop.Store(true)
				}
			}
			t.done.Add(1)
		}
	}
}

// tracedSeg records a span around every Segment call the Store makes.
type tracedSeg struct {
	g  *mirage.Segment
	sp *spans
}

func (s tracedSeg) ReadAt(b []byte, off int) error {
	t0 := s.sp.now()
	err := s.g.ReadAt(b, off)
	s.sp.add(spSegRead, t0)
	return err
}

func (s tracedSeg) WriteAt(b []byte, off int) error {
	t0 := s.sp.now()
	err := s.g.WriteAt(b, off)
	s.sp.add(spSegWrite, t0)
	return err
}

func (s tracedSeg) TestAndSet(off int) (byte, error) {
	t0 := s.sp.now()
	old, err := s.g.TestAndSet(off)
	s.sp.add(spSegTAS, t0)
	return old, err
}

func (s tracedSeg) Clear(off int) error {
	t0 := s.sp.now()
	err := s.g.Clear(off)
	s.sp.add(spSegClear, t0)
	return err
}

// openTracedStores opens the store the way Cluster.OpenStores does,
// from public calls, but hands app.New traced segment handles: each
// shard is created and formatted at its library site, then attached and
// checked at the other site.
func openTracedStores(c *mirage.Cluster, cfg mirage.StoreConfig, o *mirage.Obs, recs []*spans) ([]*mirage.Store, error) {
	cfg.Sites = c.Sites()
	cfg = cfg.WithDefaults() // PageSize 512, the cluster's default
	handles := make([][]app.Segment, c.Sites())
	for i := range handles {
		handles[i] = make([]app.Segment, cfg.Shards)
	}
	key := func(shard int) mirage.Key { return mirage.StoreKeyBase + mirage.Key(shard) }
	for shard := 0; shard < cfg.Shards; shard++ {
		lib := cfg.LibraryFor(shard)
		id, err := c.Site(lib).Shmget(key(shard), cfg.ShardBytes(), mirage.Create, 0o600)
		if err != nil {
			return nil, err
		}
		g, err := c.Site(lib).Attach(id, false)
		if err != nil {
			return nil, err
		}
		if err := app.Format(g, cfg, shard); err != nil {
			return nil, err
		}
		handles[lib][shard] = tracedSeg{g, recs[lib]}
	}
	stores := make([]*mirage.Store, c.Sites())
	for i := range stores {
		for shard := 0; shard < cfg.Shards; shard++ {
			if handles[i][shard] != nil {
				continue
			}
			id, err := c.Site(i).Shmget(key(shard), cfg.ShardBytes(), 0, 0)
			if err != nil {
				return nil, err
			}
			g, err := c.Site(i).Attach(id, false)
			if err != nil {
				return nil, err
			}
			if err := app.CheckShard(g, cfg, shard); err != nil {
				return nil, err
			}
			handles[i][shard] = tracedSeg{g, recs[i]}
		}
		st, err := app.New(cfg, handles[i], app.Options{Site: i, Obs: o})
		if err != nil {
			return nil, err
		}
		stores[i] = st
	}
	return stores, nil
}

func runKV(cfg config, r *report) error {
	if !cfg.trace {
		k, setupS, err := buildMedian(setupRepeats,
			func() (*kv, error) { return newKV(cfg, nil, nil) }, (*kv).close)
		if err != nil {
			return err
		}
		defer k.close()
		r.setEndToEnd(k.run(cfg.dur(), nil, nil), setupS)
		r.set("live_heap_mb", liveHeapMB(), "MB")
		return nil
	}

	a, err := newKV(cfg, nil, nil)
	if err != nil {
		return err
	}
	ta := a.run(cfg.half(), nil, nil).t
	a.close()
	untracedP50 := float64(ta.lat.quantile(0.5))

	o := tracedObs()
	base := time.Now()
	recs := []*spans{newSpans(base, kvSpanCap), newSpans(base, kvSpanCap)}
	b, err := newKV(cfg, o, recs)
	if err != nil {
		return err
	}
	defer b.close()
	before, busy0 := snapCounters(o), busyReplies(b.c)
	tb := b.run(cfg.half(), traceFull(o), recs).t
	d := snapCounters(o).sub(before)
	calls, self := childDurations(recs)
	r.setProtocolLayers(d, busyReplies(b.c)-busy0, tb.ops(), int64(len(calls)))
	r.count(ta)
	r.count(tb)
	r.setAccessCalls(calls)
	r.setHops(recs)
	all := opDurations(recs)
	sortInt64(all)
	r.setOverhead(untracedP50, float64(quantile(all, 0.5)))
	for _, m := range []struct {
		name string
		kind uint8
	}{{"app.get_p50_us", spGet}, {"app.put_p50_us", spPut}, {"app.cas_p50_us", spCAS}, {"app.delete_p50_us", spDelete}} {
		v := opDurations(recs, m.kind)
		sortInt64(v)
		r.set(m.name, float64(quantile(v, 0.5))/1e3, "us")
	}
	var selfSum int64
	for _, s := range self {
		selfSum += s
	}
	r.set("app.self_ns_per_op", ratio(float64(selfSum), float64(len(self))), "ns")
	r.set("app.conflicts_per_op", ratio(float64(d[obs.CAppConflict]), float64(tb.ops())), "count")
	r.set("app.key_hit_ratio", ratio(float64(d[obs.CAppHit]), float64(d[obs.CAppHit]+d[obs.CAppMiss])), "ratio")
	r.verify(b.c, o)
	if err := writeSpans(cfg.spansDir, fmt.Sprintf("kv-zipf-tcp-%d", cfg.seed), recs); err != nil {
		return err
	}
	return runProbes(cfg, r)
}
