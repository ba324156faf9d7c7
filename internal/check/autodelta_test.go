package check

import (
	"testing"
	"time"

	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/sim"
)

// autoNet drives AutoDelta clusters for the checker: like migNet but
// with crash support, so both rehoming paths — voluntary migration and
// takeover election — can be traced under the controller.
type autoNet struct {
	t       *testing.T
	k       *sim.Kernel
	engines []*core.Engine
	down    map[int]bool
}

type autoEnv struct {
	n    *autoNet
	site int
}

func (e autoEnv) Site() int          { return e.site }
func (e autoEnv) Now() time.Duration { return e.n.k.Now().Duration() }
func (e autoEnv) After(d time.Duration, fn func()) func() {
	t := e.n.k.After(d, fn)
	return func() { t.Cancel() }
}
func (e autoEnv) Send(to int, m core.NetMsg) {
	if e.n.down[to] || e.n.down[e.site] {
		return
	}
	d := time.Millisecond
	if to == e.site {
		d = 0
	}
	e.n.k.After(d, func() { e.n.engines[to].Deliver(m) })
}
func (e autoEnv) Exec(cost time.Duration, fn func()) { e.n.k.After(cost, fn) }

// fastAutoDelta opens the controller's rate limiter up so the short
// driven workloads retune several times inside the trace.
func fastAutoDelta() *core.AutoDelta {
	return &core.AutoDelta{
		Min: 2 * time.Millisecond, Max: 100 * time.Millisecond,
		Step: 5 * time.Millisecond, CheapDenial: time.Second,
		MinCycles: 1, Cooldown: time.Millisecond,
	}
}

// newAutoNet builds a cluster with the AutoDelta controller on and a
// deliberately oversized seed Δ, so the trace carries retunes and
// denials for the checker to digest. opt should already hold the
// failover/placement/replication stack under test.
func newAutoNet(t *testing.T, sites int, opt core.Options, seed time.Duration) *autoNet {
	n := &autoNet{t: t, k: sim.NewKernel(), down: make(map[int]bool)}
	opt.Costs = &core.Costs{}
	opt.Sites = sites
	for i := 0; i < sites; i++ {
		n.engines = append(n.engines, core.New(autoEnv{n, i}, opt))
	}
	meta := &mem.Segment{
		ID: 1, Key: 7, Size: 1024, PageSize: 512, Pages: 2,
		Library: 0, Delta: seed, Mode: 0o666,
	}
	n.engines[0].CreateSegment(meta)
	for i := 1; i < sites; i++ {
		n.engines[i].AttachSegment(meta)
	}
	return n
}

func (n *autoNet) access(site int, page int32, write bool, val byte) {
	n.t.Helper()
	e := n.engines[site]
	done := false
	var loop func()
	loop = func() {
		if err := e.FaultError(1, page); err != nil {
			n.t.Fatalf("site %d degraded: %v", site, err)
		}
		if e.CheckAccess(1, page, write) == mmu.NoFault {
			f := e.Frame(1, page)
			if write {
				f[0] = val
			}
			e.RecordOp(1, page, 0, write, f[:1])
			done = true
			return
		}
		e.Fault(1, page, write, 100+int32(site), loop)
	}
	loop()
	for !done {
		if !n.k.Step() {
			n.t.Fatalf("site %d access(page=%d write=%v) starved", site, page, write)
		}
	}
}

func countEvents(events []obs.Event, typ obs.EvType) int {
	c := 0
	for _, ev := range events {
		if ev.Type == typ {
			c++
		}
	}
	return c
}

// TestVerifyAcceptsAutoDeltaMigratedTrace: a controller-tuned workload
// that crosses a voluntary migration (epoch bump) must verify clean
// with Delta = AutoDelta.Min, the sound lower bound on every granted
// window (check.Config.Delta). The trace must actually contain retunes
// — a clean pass over a controller that never fired proves nothing.
func TestVerifyAcceptsAutoDeltaMigratedTrace(t *testing.T) {
	o := obs.New()
	ad := fastAutoDelta()
	opt := core.Options{
		Reliability: &core.Reliability{
			AckTimeout: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
			MaxAttempts: 5, RequestTimeout: 10 * time.Second,
		},
		Failover: &core.Failover{},
		Placement: &core.Placement{
			Window: 50 * time.Millisecond, MinRequests: 4,
			Share: 0.5, PingPong: 0.8, Cooldown: time.Hour,
		},
		AutoDelta: ad,
		Obs:       o,
	}
	n := newAutoNet(t, 3, opt, 30*time.Millisecond)

	// The 2:1 skew that makes site 0's library volunteer the role to
	// site 1, under ping-pong writes the controller is shrinking Δ for.
	for i := 0; i < 40 && n.engines[1].Stats().Migrations == 0; i++ {
		n.access(0, 0, true, byte(i))
		n.access(1, 0, false, 0)
		n.access(1, 0, true, byte(i)+1)
	}
	if n.engines[1].Stats().Migrations != 1 {
		t.Fatal("workload did not trigger a migration")
	}
	// Post-handoff traffic: the successor keeps tuning in epoch 1.
	n.access(2, 0, false, 0)
	n.access(0, 0, true, 99)
	n.access(2, 0, false, 0)
	n.k.Run()

	events := o.Buffer().Events()
	if countEvents(events, obs.EvMigrate) == 0 {
		t.Fatal("trace has no EvMigrate event")
	}
	if countEvents(events, obs.EvRetune) == 0 {
		t.Fatal("trace has no EvRetune event; the controller never fired")
	}
	for _, v := range Verify(Config{Sites: 3, Delta: ad.Min, Reliable: true}, events) {
		t.Errorf("checker rejected AutoDelta migrated trace: %v", v)
	}
}

// TestVerifyAcceptsAutoDeltaTakeoverTrace: same bound, other rehoming
// path — the leader dies mid-tuning, the replicated log elects a
// successor (epoch bump), and the whole history including the
// post-takeover tuned grants must verify clean with Delta = Min.
func TestVerifyAcceptsAutoDeltaTakeoverTrace(t *testing.T) {
	o := obs.New()
	ad := fastAutoDelta()
	opt := core.Options{
		Reliability: &core.Reliability{
			AckTimeout: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
			MaxAttempts: 5, RequestTimeout: 10 * time.Second,
		},
		Failover:  &core.Failover{Replicas: 2, RecoverTimeout: 500 * time.Millisecond},
		AutoDelta: ad,
		Obs:       o,
	}
	n := newAutoNet(t, 3, opt, 30*time.Millisecond)

	for i := 0; i < 8; i++ {
		n.access(2, 0, true, byte(i))
		n.access(1, 0, true, byte(i)+1)
	}
	n.k.Run()

	n.down[0] = true
	// Site 2 was invalidated by site 1's last write: this access gives
	// up on the dead library and triggers the takeover at site 1.
	n.access(2, 0, false, 0)
	n.access(2, 0, true, 123)
	n.access(1, 0, false, 0)
	n.k.Run()

	if el := n.engines[1].Stats().Elections; el != 1 {
		t.Fatalf("successor Elections = %d, want 1", el)
	}
	events := o.Buffer().Events()
	if countEvents(events, obs.EvElect) == 0 {
		t.Fatal("trace has no EvElect event")
	}
	if countEvents(events, obs.EvRetune) == 0 {
		t.Fatal("trace has no EvRetune event; the controller never fired")
	}
	for _, v := range Verify(Config{Sites: 3, Delta: ad.Min, Reliable: true}, events) {
		t.Errorf("checker rejected AutoDelta takeover trace: %v", v)
	}
}
