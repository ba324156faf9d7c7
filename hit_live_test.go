package mirage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHitAllocatesNothing: a read or write of a page the site already
// holds runs on the caller's goroutine and allocates nothing.
func TestHitAllocatesNothing(t *testing.T) {
	c := newTestCluster(t, 2, Options{})
	id, err := c.Site(0).Shmget(0x4A, 1024, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := c.Site(1).Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.SetUint32(8, 1); err != nil { // fault the page in writable
		t.Fatal(err)
	}
	var sink uint32
	reads := testing.AllocsPerRun(1000, func() {
		v, err := seg.Uint32(8)
		if err != nil {
			t.Fatal(err)
		}
		sink += v
	})
	writes := testing.AllocsPerRun(1000, func() {
		if err := seg.SetUint32(8, sink); err != nil {
			t.Fatal(err)
		}
	})
	if reads != 0 || writes != 0 {
		t.Fatalf("warm hit allocs: Uint32 %v, SetUint32 %v; want 0", reads, writes)
	}
}

// soakOptions returns checked cluster options, with a lossy fault plan
// and the reliability layer when chaos is set.
func soakOptions(t *testing.T, chaos bool) Options {
	opts := Options{Obs: NewObs(), Check: true}
	if chaos {
		plan, err := ParseFaultPlan("seed=11; drop p=0.03; dup p=0.05; delay p=0.1 max=1ms")
		if err != nil {
			t.Fatal(err)
		}
		opts.Chaos = plan
		opts.Reliability = &Reliability{
			AckTimeout:  5 * time.Millisecond,
			MaxBackoff:  40 * time.Millisecond,
			MaxAttempts: 10,
		}
	}
	return opts
}

// TestHitSoakCoherence: four sites with two goroutines each mix hits
// and faults — AddUint32 on shared counters, reads of those counters,
// and writes to a goroutine-private word — with the checker recording
// every op. No add may be lost, every private read must return the
// goroutine's own last write, and the trace must verify clean. The
// chaos variant runs the same mix over a lossy mesh.
func TestHitSoakCoherence(t *testing.T) {
	for _, chaos := range []bool{false, true} {
		t.Run(map[bool]string{false: "inproc", true: "chaos"}[chaos], func(t *testing.T) {
			const (
				sites    = 4
				workers  = 2
				counters = 3
				ops      = 300
				ps       = 512
			)
			c := newTestCluster(t, sites, soakOptions(t, chaos))
			// Pages 0..counters-1 hold one shared counter each; the
			// private words live on the pages after them, one page per
			// worker.
			id, err := c.Site(0).Shmget(0x50AC, (counters+sites*workers)*ps, Create, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			hold, err := c.Site(0).Attach(id, false)
			if err != nil {
				t.Fatal(err)
			}
			var adds [counters]atomic.Uint32
			var wg sync.WaitGroup
			for s := 0; s < sites; s++ {
				seg, err := c.Site(s).Attach(id, false)
				if err != nil {
					t.Fatal(err)
				}
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(seg *Segment, me int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(me)))
						priv := (counters + me) * ps
						var mine uint32
						for i := 0; i < ops; i++ {
							var err error
							switch r := rng.Intn(10); {
							case r < 4:
								k := rng.Intn(counters)
								if err = retry(func() error { _, err := seg.AddUint32(k*ps, 1); return err }); err == nil {
									adds[k].Add(1)
								}
							case r < 7:
								k := rng.Intn(counters)
								err = retry(func() error { _, err := seg.Uint32(k * ps); return err })
							default:
								mine++
								if err = retry(func() error { return seg.SetUint32(priv, mine) }); err == nil {
									var v uint32
									err = retry(func() (err error) { v, err = seg.Uint32(priv); return err })
									if err == nil && v != mine {
										err = fmt.Errorf("private word read %d after writing %d", v, mine)
									}
								}
							}
							if err != nil {
								t.Errorf("worker %d op %d: %v", me, i, err)
								return
							}
						}
					}(seg, s*workers+w)
				}
			}
			wg.Wait()
			for k := range adds {
				v, err := hold.Uint32(k * ps)
				if err != nil {
					t.Fatal(err)
				}
				if v != adds[k].Load() {
					t.Errorf("counter %d = %d, want %d adds", k, v, adds[k].Load())
				}
			}
			viols, err := c.VerifyTrace()
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range viols {
				t.Errorf("coherence violation: %v", v)
			}
		})
	}
}

// retry runs an access until it succeeds or fails with something other
// than a transient ErrUnreachable (a degraded grant under chaos, which
// leaves memory unchanged).
func retry(op func() error) error {
	for {
		err := op()
		if !errors.Is(err, ErrUnreachable) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseRacesHitsAndFaults: Close while two goroutines per site spin
// on hits (a page the site writes alone) and faults (a page every site
// writes). Every call returns nil or ErrDetached, and none hangs.
func TestCloseRacesHitsAndFaults(t *testing.T) {
	const sites, ps = 2, 512
	c, err := NewCluster(sites, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Site(0).Shmget(0xC105, (1+sites)*ps, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var calls atomic.Int64
	for s := 0; s < sites; s++ {
		seg, err := c.Site(s).Attach(id, false)
		if err != nil {
			t.Fatal(err)
		}
		own := (1 + s) * ps
		for _, off := range []int{own, 0} {
			wg.Add(1)
			go func(off int) {
				defer wg.Done()
				for i := uint32(0); ; i++ {
					err := seg.SetUint32(off, i)
					if err == nil {
						_, err = seg.Uint32(off)
					}
					calls.Add(1)
					if errors.Is(err, ErrDetached) {
						return
					}
					if err != nil {
						t.Errorf("offset %d: %v", off, err)
						return
					}
				}
			}(off)
		}
	}
	for start := time.Now(); calls.Load() < 1000 && time.Since(start) < 10*time.Second; {
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("accessors still blocked 10s after Close")
	}
}
