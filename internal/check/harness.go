package check

import (
	"fmt"
	"math/rand"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/sim"
	"mirage/internal/wire"
)

// Op is one shared-memory access in an explored scenario: a 1-byte
// read or write at offset 0 of a page. Ops are issued concurrently
// across sites and sequentially within a site, like processes on
// distinct Mirage machines.
type Op struct {
	Site  int   `json:"site"`
	Page  int32 `json:"page"`
	Write bool  `json:"write"`
	Val   byte  `json:"val,omitempty"`
}

func (o Op) String() string {
	if o.Write {
		return fmt.Sprintf("s%d:w(p%d)=%d", o.Site, o.Page, o.Val)
	}
	return fmt.Sprintf("s%d:r(p%d)", o.Site, o.Page)
}

// Scenario is a self-contained explorable configuration: cluster shape,
// protocol knobs, the op workload, and an optional chaos plan. It
// serializes to JSON inside a Repro, so everything that influences the
// run must live here.
type Scenario struct {
	Sites int           `json:"sites"`
	Pages int           `json:"pages"`
	Delta time.Duration `json:"delta"`
	// Policy is the clock site's invalidation policy (core.InvalPolicy:
	// 0 retry, 1 honor-close, 2 queue).
	Policy int `json:"policy"`
	// Hop is the per-hop message delay; 0 means 1ms. Distinct from 0 so
	// protocol steps have duration and Δ windows mean something.
	Hop time.Duration `json:"hop,omitempty"`
	Ops []Op          `json:"ops"`
	// Chaos, when non-empty, is an internal/chaos plan in its grammar;
	// it switches the reliability layer on (chaos without it livelocks
	// by design).
	Chaos string `json:"chaos,omitempty"`
	// Failover enables the takeover layer (and the reliability layer it
	// requires), so crash windows in Chaos lead to recoveries instead of
	// failed ops.
	Failover bool `json:"failover,omitempty"`
	// Replicas is the segment's replication factor
	// (core.Failover.Replicas); > 0 implies Failover.
	Replicas int `json:"replicas,omitempty"`
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Pages <= 0 {
		sc.Pages = 1
	}
	if sc.Hop == 0 {
		sc.Hop = time.Millisecond
	}
	return sc
}

// checkerConfig derives the history-checker configuration implied by a
// scenario.
func (sc Scenario) checkerConfig() Config {
	return Config{
		Sites:    sc.Sites,
		Delta:    sc.Delta,
		Reliable: sc.reliable(),
	}
}

// reliable reports whether the scenario runs with the reliability layer
// (and so grant cycles may abort without a commit).
func (sc Scenario) reliable() bool {
	return sc.Chaos != "" || sc.Failover || sc.Replicas > 0
}

// scheduler records and replays same-instant scheduling choices. A
// prescribed prefix (choices) is consumed first; past it, picks come
// from rng when set and otherwise default to 0 (kernel FIFO order).
// branch/taken record the branching factor and pick at every choice
// point, which is what the odometer in Exhaustive and the Repro
// serialization consume.
type scheduler struct {
	choices []int
	rng     *rand.Rand
	branch  []int
	taken   []int
}

func (s *scheduler) choose(n int) int {
	i := len(s.taken)
	pick := 0
	switch {
	case i < len(s.choices):
		pick = s.choices[i]
		if pick < 0 || pick >= n {
			pick = 0
		}
	case s.rng != nil:
		pick = s.rng.Intn(n)
	}
	s.branch = append(s.branch, n)
	s.taken = append(s.taken, pick)
	return pick
}

// runResult is everything one explored execution produced.
type runResult struct {
	violations []Violation
	trace      []obs.Event
	steps      int
	opsDone    int
	opsFailed  int // degraded ops (chaos runs only)
}

// defaultMaxSteps bounds one explored run; a run that exhausts it is
// reported as a liveness violation rather than hanging the explorer.
const defaultMaxSteps = 2_000_000

// harness wires core engines over the sim kernel with chooser-driven
// scheduling, mirroring the ipc cluster's environment in miniature.
type harness struct {
	k       *sim.Kernel
	engines []*core.Engine
	inj     *chaos.Injector
	hop     time.Duration
	done    int
	failed  int
}

type hEnv struct {
	h    *harness
	site int
}

func (e hEnv) Site() int          { return e.site }
func (e hEnv) Now() time.Duration { return e.h.k.Now().Duration() }
func (e hEnv) After(d time.Duration, fn func()) func() {
	t := e.h.k.After(d, fn)
	return func() { t.Cancel() }
}
func (e hEnv) Exec(cost time.Duration, fn func()) { e.h.k.After(cost, fn) }

func (e hEnv) Send(to int, m core.NetMsg) {
	h := e.h
	d := h.hop
	if to == e.site {
		// Loopback: immediate and exempt from chaos, like ipc's.
		d = 0
	} else if h.inj != nil {
		kind := wire.KInvalid
		if wm, ok := m.(*wire.Msg); ok {
			kind = wm.Kind
		}
		a := h.inj.Apply(h.k.Now().Duration(), e.site, to, kind)
		if a.Drop {
			return
		}
		d += a.Delay
		for i := 0; i < a.Dup; i++ {
			h.k.After(d, func() { h.engines[to].Deliver(m) })
		}
	}
	h.k.After(d, func() { h.engines[to].Deliver(m) })
}

const (
	scenarioSeg      = 1
	scenarioPageSize = 64
)

// runScenario executes one schedule of the scenario and checks it: the
// trace goes through the history checker, and the quiesced cluster
// through the record-agreement checks. maxSteps 0 means
// defaultMaxSteps.
func runScenario(sc Scenario, sch *scheduler, maxSteps int) runResult {
	sc = sc.withDefaults()
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	h := &harness{k: sim.NewKernel(), hop: sc.Hop}
	h.k.SetChooser(sch.choose)

	o := &obs.Obs{Tracer: obs.NewBufferCap(1 << 22)}
	opt := core.Options{
		Policy: core.InvalPolicy(sc.Policy),
		Costs:  &core.Costs{},
		Obs:    o,
		Sites:  sc.Sites,
	}
	if sc.Chaos != "" {
		plan, err := chaos.Parse(sc.Chaos)
		if err != nil {
			return runResult{violations: []Violation{{
				Invariant: InvSchema, Index: -1,
				Detail: fmt.Sprintf("bad chaos plan: %v", err),
			}}}
		}
		h.inj = chaos.New(*plan)
	}
	if sc.reliable() {
		// Timeouts sized to the hop so give-up happens in bounded
		// virtual time.
		opt.Reliability = &core.Reliability{
			AckTimeout:     20 * sc.Hop,
			MaxBackoff:     200 * sc.Hop,
			MaxAttempts:    5,
			RequestTimeout: 4000 * sc.Hop,
		}
	}
	if sc.Failover || sc.Replicas > 0 {
		opt.Failover = &core.Failover{Replicas: sc.Replicas, RecoverTimeout: 100 * sc.Hop}
	}
	for i := 0; i < sc.Sites; i++ {
		h.engines = append(h.engines, core.New(hEnv{h, i}, opt))
	}
	meta := &mem.Segment{
		ID: scenarioSeg, Key: 42, Size: sc.Pages * scenarioPageSize,
		PageSize: scenarioPageSize, Pages: sc.Pages, Library: 0,
		Delta: sc.Delta, Mode: 0o666,
	}
	h.engines[0].CreateSegment(meta)
	for i := 1; i < sc.Sites; i++ {
		h.engines[i].AttachSegment(meta)
	}

	// Queue ops per site; each site runs its ops sequentially through a
	// fault loop, all sites starting concurrently at t=0.
	bySite := make([][]Op, sc.Sites)
	for _, op := range sc.Ops {
		if op.Site < 0 || op.Site >= sc.Sites || op.Page < 0 || int(op.Page) >= sc.Pages {
			return runResult{violations: []Violation{{
				Invariant: InvSchema, Index: -1,
				Detail: fmt.Sprintf("op %v outside scenario bounds", op),
			}}}
		}
		bySite[op.Site] = append(bySite[op.Site], op)
	}
	for site := range bySite {
		if len(bySite[site]) > 0 {
			h.startSite(site, bySite[site])
		}
	}

	res := runResult{}
	for res.steps < maxSteps && h.k.Step() {
		res.steps++
	}
	res.opsDone, res.opsFailed = h.done, h.failed
	res.violations = Verify(sc.checkerConfig(), traceOf(o))
	res.trace = traceOf(o)
	if res.steps >= maxSteps {
		res.violations = append(res.violations, Violation{
			Invariant: InvLiveness, Index: -1,
			Detail: fmt.Sprintf("run exceeded %d kernel steps", maxSteps),
		})
	} else if h.done+h.failed < len(sc.Ops) {
		res.violations = append(res.violations, Violation{
			Invariant: InvLiveness, Index: -1,
			Detail: fmt.Sprintf("%d of %d ops starved at drain",
				len(sc.Ops)-h.done-h.failed, len(sc.Ops)),
		})
	}
	if sc.Chaos == "" {
		// Without faults the drained cluster must be quiescent with the
		// library record matching actual placement; under chaos the
		// record may legitimately be degraded (shed entries, denied
		// grants), and the trace checker already covered safety.
		res.violations = append(res.violations, finalChecks(sc, h.engines)...)
	}
	return res
}

func traceOf(o *obs.Obs) []obs.Event {
	b := o.Buffer()
	if b == nil {
		return nil
	}
	return b.Events()
}

// startSite chains ops[0..] at a site: fault-loop until granted (or
// degraded), perform the byte access, record it, then post the next op.
func (h *harness) startSite(site int, ops []Op) {
	e := h.engines[site]
	next := 0
	var issue func()
	var attempt func()
	issue = func() {
		if next >= len(ops) {
			return
		}
		op := ops[next]
		next++
		attempt = func() {
			if err := e.FaultError(scenarioSeg, op.Page); err != nil {
				h.failed++
				h.k.After(0, issue)
				return
			}
			if e.CheckAccess(scenarioSeg, op.Page, op.Write) != mmu.NoFault {
				e.Fault(scenarioSeg, op.Page, op.Write, 100+int32(site), attempt)
				return
			}
			f := e.Frame(scenarioSeg, op.Page)
			if op.Write {
				f[0] = op.Val
			}
			e.RecordOp(scenarioSeg, op.Page, 0, op.Write, f[:1])
			h.done++
			h.k.After(0, issue)
		}
		attempt()
	}
	h.k.After(0, issue)
}

// finalChecks compares the quiesced library record against actual page
// placement — the explorer's port of the core quick-test oracle.
func finalChecks(sc Scenario, engines []*core.Engine) []Violation {
	var out []Violation
	bad := func(page int32, format string, args ...any) {
		out = append(out, Violation{
			Invariant: InvRecord, Index: -1,
			Detail: fmt.Sprintf("page %d: ", page) + fmt.Sprintf(format, args...),
		})
	}
	for p := 0; p < sc.Pages; p++ {
		page := int32(p)
		st := engines[0].LibraryState(scenarioSeg, page)
		if st.Busy || st.Queued > 0 {
			bad(page, "library not quiescent at drain (busy=%v queued=%d)",
				st.Busy, st.Queued)
			continue
		}
		for s, e := range engines {
			prot := e.Seg(scenarioSeg).Prot(p)
			switch {
			case st.Writer == s:
				if prot != mmu.ReadWrite {
					bad(page, "library records site %d as writer, copy is %v", s, prot)
				}
			case st.Readers.Has(s):
				if prot != mmu.ReadOnly {
					bad(page, "library records site %d as reader, copy is %v", s, prot)
				}
			default:
				if prot != mmu.Invalid {
					bad(page, "site %d holds a %v copy the library does not record", s, prot)
				}
			}
		}
	}
	return out
}
