// Package core implements the Mirage distributed shared memory
// protocol (paper §6): the library site that queues and sequentially
// processes page requests, the clock site that holds each page's time
// window Δ, invalidation with the two-attempt retry, and the two
// traffic optimizations (silent reader→writer upgrade; writer→reader
// downgrade retaining the read copy).
//
// One Engine runs per site and plays every role the site can have:
// requester (faulting processes), holder (reader or writer of pages),
// clock site, and — for segments the site created — library. Engines
// are passive, deterministic state machines: they are driven entirely
// through Fault, Deliver, and the segment lifecycle calls, and they
// act on the world only through the Env interface. The same engine
// therefore runs unchanged on the calibrated VAX/Ethernet simulator
// (internal/netsim + internal/sched) and on real transports
// (internal/transport) under the public mirage package.
//
// Engines are not safe for concurrent use; each driver serializes
// calls (the simulator by construction, live nodes with an actor
// loop). RecordOp is the one exception: live accessors call it from
// their own goroutines while they hold a page's frame lock.
package core

import (
	"fmt"
	"time"

	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/trace"
	"mirage/internal/vaxmodel"
	"mirage/internal/wire"
)

// NetMsg is any protocol message a transport can carry; Size (the
// payload bytes) drives the network cost model. Both the Mirage wire
// messages and the IVY baseline's messages implement it.
type NetMsg interface{ Size() int }

// Env is the world an Engine acts through.
type Env interface {
	// Site returns this engine's site ID.
	Site() int
	// Now returns the current time (virtual in simulation, monotonic
	// wall time live). Δ windows are measured in real time (§9.0).
	Now() time.Duration
	// After schedules fn after d; the returned function cancels.
	After(d time.Duration, fn func()) (cancel func())
	// Send transmits a protocol message to a site (possibly this one;
	// loopback must deliver with no network charge).
	Send(to int, m NetMsg)
	// Exec runs fn after charging cost of CPU service time at this
	// site. Live environments may ignore cost and run fn directly, but
	// must still serialize all engine entry points.
	Exec(cost time.Duration, fn func())
}

// InvalPolicy selects how an unexpired Δ window is handled when an
// invalidation arrives at the clock site.
type InvalPolicy int

const (
	// PolicyRetry is the paper prototype's behaviour: the clock site
	// replies with the remaining time and the library retries after it
	// (the "two attempts to invalidate a page" caveat of §7.1).
	PolicyRetry InvalPolicy = iota
	// PolicyHonorClose implements §7.1's recommendation: if less than
	// HonorThreshold remains, the clock site delays locally and then
	// honors the invalidation instead of forcing a retry.
	PolicyHonorClose
	// PolicyQueue is the "queued invalidation optimization" the paper
	// notes its implementation lacks: the clock site always queues the
	// invalidation and honors it exactly at window expiry.
	PolicyQueue
)

func (p InvalPolicy) String() string {
	switch p {
	case PolicyRetry:
		return "retry"
	case PolicyHonorClose:
		return "honor-close"
	case PolicyQueue:
		return "queue"
	}
	return fmt.Sprintf("InvalPolicy(%d)", int(p))
}

// Costs are the CPU service charges the engine pays through Env.Exec.
type Costs struct {
	Request    time.Duration // issue a remote page request (Table 3: 2.5 ms)
	Server     time.Duration // library handling of one message (Table 3: 1.5 ms)
	Install    time.Duration // install a received page (Table 3: 2 ms)
	Input      time.Duration // other protocol input interrupts (§7.2: 1.5 ms)
	LocalFault time.Duration // fault served by a colocated library (§7.2: 1.5 ms)
}

// DefaultCosts returns the paper-calibrated cost model.
func DefaultCosts() Costs {
	return Costs{
		Request:    vaxmodel.ReadRequestService,
		Server:     vaxmodel.ServerRequestService,
		Install:    vaxmodel.PageInstallService,
		Input:      vaxmodel.InputInterruptService,
		LocalFault: vaxmodel.LocalFaultService,
	}
}

// TuneInfo is what a dynamic Δ tuner sees before the library forwards
// an invalidation (§8.0: "the page's Δ value can be changed before it
// is forwarded to the target site and installed").
type TuneInfo struct {
	Seg      int32
	Page     int32
	Delta    time.Duration // current per-page Δ
	Write    bool          // the triggering request is a write
	MeanGap  time.Duration // EWMA of the page's inter-request interval
	Requests int           // requests seen for this page

	// Denial-side signals (§7.2/E16: the denial histogram is what a
	// tuner should steer by). Denied counts KBusy replies the library
	// received for this page; DenialRemaining is an EWMA of the window
	// time remaining when those denials arrived. Under PolicyQueue the
	// clock site absorbs window waits locally, so both stay zero — the
	// library is blind to denials it is never told about.
	Denied          int
	DenialRemaining time.Duration
	// WriteSharing reports that recent write grants alternated between
	// sites (ping-pong): at least half of the recent write grants went
	// to a different site than the one before.
	WriteSharing bool
}

// Options configure an Engine.
type Options struct {
	Policy         InvalPolicy
	HonorThreshold time.Duration // for PolicyHonorClose; default vaxmodel.ShortRTT
	Costs          *Costs        // nil means DefaultCosts
	Tracer         trace.Recorder
	// Obs, when non-nil, receives protocol metrics and (if its Tracer
	// is set) structured coherence events. nil — the default — keeps
	// every hot path at a single pointer test and zero allocations.
	Obs *obs.Obs
	// Sites is the cluster size. The cluster constructors set it;
	// Failover requires it, because successor election and the
	// replication groups walk the site ID space and every engine must
	// agree on them. With Reliability it also sizes the ARQ timers (see
	// Reliability.withDefaults).
	Sites int
	// Reliability, when non-nil, enables the reliable-delivery layer
	// and the degraded-grant recovery paths (DESIGN.md §7). nil keeps
	// the engine byte-identical to the paper reproduction, which
	// assumes the Locus virtual-circuit guarantees.
	Reliability *Reliability
	// Failover, when non-nil, enables library-site takeover (DESIGN.md
	// §11): a site that finds the library unreachable nominates a
	// successor, which installs the record from the replicated log
	// (Failover.Replicas > 0, DESIGN.md §15) or rebuilds it from
	// surviving holders, under a bumped library epoch. Requires
	// Reliability and Sites.
	Failover *Failover
	// Placement, when non-nil, enables voluntary library migration
	// (DESIGN.md §14): the library watches per-site request demand and
	// rehomes the library role to a remote site that dominates it, using
	// the failover epoch fence for the handoff. Requires Failover.
	Placement *Placement
	// TuneDelta, if non-nil, may return a new Δ for a page each time
	// the library is about to grant it. Mirage ships the routine
	// disabled (nil), as the paper does. Ignored when AutoDelta is set.
	TuneDelta func(TuneInfo) time.Duration
	// AutoDelta, when non-nil, enables the built-in per-page closed-loop
	// Δ controller (DESIGN.md §16, docs/TUNING.md): the library watches
	// each page's denial signals and write-sharing pattern and walks Δ
	// toward the §7.2 crossover with an AIMD policy, clamped to
	// [Min, Max] and rate-limited. Takes precedence over TuneDelta.
	AutoDelta *AutoDelta
	// InvalFanout, when ≥ 2, turns write-grant invalidation into a
	// k-ary fan-out tree: the clock site partitions the reader set into
	// at most InvalFanout delegated subtrees, interior holder sites
	// relay the orders onward and return one aggregated ack each, so a
	// large invalidation costs the clock O(k) sends and O(log_k N)
	// latency instead of one unicast per reader. Values below 2 (the
	// default) keep the flat per-reader unicast of the paper.
	InvalFanout int
}

// Stats counts engine activity. All counters are cumulative.
type Stats struct {
	ReadFaults     int
	WriteFaults    int
	RequestsSent   int // read+write requests issued (incl. loopback)
	PagesSent      int // KPageSend transmitted by this site
	PagesReceived  int
	Upgrades       int           // in-place reader→writer grants received
	Downgrades     int           // writer→reader transitions at this site
	InvalsReceived int           // KInval handled as clock site
	InvalOrders    int           // KInvalOrder received (copy discarded)
	BusyReplies    int           // KBusy sent (window unexpired, PolicyRetry)
	Retries        int           // invalidations re-sent by the library
	Already        int           // requests found already satisfied
	WindowWait     time.Duration // total time invalidations waited on Δ
	Dropped        int           // messages for unknown segments (post-destroy stragglers)

	// Reliability-layer counters; all zero unless Options.Reliability
	// is set.
	Retransmits int // sequenced messages re-sent after an ack timeout
	DupDrops    int // duplicate deliveries suppressed by the resequencer
	GaveUp      int // reliable-channel give-up events (peer unreachable)
	Denied      int // denials received for this site's requests
	Degraded    int // accessor-visible degraded-grant errors raised
	Stale       int // out-of-cycle or inconsistent messages tolerated
	Lost        int // pages zero-filled after unrecoverable copy loss
	Reissued    int // inval orders reissued as unicast by the delegation watchdog

	// Failover counters; all zero unless Options.Failover is set.
	Failovers  int // takeover triggers sent after losing the library
	Recoveries int // library takeovers completed at this site
	StaleEpoch int // messages rejected for carrying a superseded epoch

	// Placement counters; all zero unless Options.Placement is set.
	Migrations        int // library roles accepted here via voluntary migration
	MigrationsRefused int // outbound offers refused, aborted, or superseded

	// Replication counters; all zero unless Failover.Replicas > 0.
	Appends      int // log entries appended by this site as leader
	ReplCommits  int // entries acknowledged by a follower quorum
	ReplDegraded int // gated mutations released without quorum (group degraded)
	Elections    int // takeovers completed from the replicated log at this site

	// AutoDelta counters; all zero unless Options.AutoDelta is set.
	DeltaGrows   int // controller raised a page's Δ (additive step)
	DeltaShrinks int // controller halved a page's Δ (multiplicative decrease)
}

type pageKey struct {
	seg  int32
	page int32
}

// waiter is a blocked fault continuation.
type waiter struct {
	write bool
	wake  func()
}

// segNode is per-site state for one attached segment.
type segNode struct {
	meta *mem.Segment
	m    *mmu.Seg

	waiters map[int32][]waiter // page -> blocked faults
	outR    map[int32]bool     // read request outstanding
	outW    map[int32]bool     // write request outstanding

	lib *libSeg // non-nil at the library site

	// curLib is the site currently playing the library role: meta.Library
	// until a failover elects a successor. segEpoch is the library epoch —
	// bumped by each takeover and stamped on every outgoing message, so
	// traffic from superseded epochs can be fenced. recov is non-nil while
	// this site is rebuilding the record as the successor, and lateHold
	// accumulates chunked holdings reports arriving after recovery.
	curLib   int
	segEpoch uint32
	recov    *recovery
	lateHold map[int][]holding

	// releasing is set between the last local detach and the library's
	// confirmation of every page release; local accesses fault
	// meanwhile. Change it only through setReleasing.
	releasing       bool
	releasesPending int

	// Voluntary-migration state (Options.Placement): place is the
	// library's demand window for the placement policy, migOut the
	// in-flight outbound offer (its presence freezes granting), migIn
	// the successor's accumulator for an incoming offer's record chunks.
	place  *placeTrack
	migOut *migration
	migIn  *migInbound

	// Replication state (Failover.Replicas): the per-segment log. At
	// the leader repl.lead is non-nil and gates record mutations on
	// quorum acks; at followers repl mirrors the applied record so an
	// election can install from it.
	repl *replSeg

	// Degraded-grant state (reliability layer only).
	pageErr  map[int32]error  // page -> pending error for the accessor; see setPageErr
	reqTimer map[int32]func() // page -> end-to-end request deadline cancel
}

// Engine is one site's Mirage protocol instance.
type Engine struct {
	env   Env
	opt   Options
	costs Costs
	site  int
	segs  map[int32]*segNode
	pend  map[pageKey]*pendingInval // clock-side invalidation collections
	relay map[pageKey]*invalRelay   // interior-site delegated inval subtrees
	rel   *rel                      // nil unless Options.Reliability set
	stash map[pageKey][]byte        // clock-side frames captured per grant cycle
	stats Stats
	obs   *obs.Obs  // nil when observability is off
	auto  AutoDelta // normalized AutoDelta config; valid iff opt.AutoDelta != nil
}

// New creates an engine for env's site. It panics on a broken option
// chain: Failover without Reliability (the takeover trigger is the
// reliable channel's give-up verdict) or without Sites, and Placement
// without Failover (migration rides on the failover epoch fence).
func New(env Env, opt Options) *Engine {
	switch {
	case opt.Failover != nil && opt.Reliability == nil:
		panic("core: Options.Failover requires Options.Reliability")
	case opt.Failover != nil && opt.Sites <= 0:
		panic("core: Options.Failover requires Options.Sites")
	case opt.Placement != nil && opt.Failover == nil:
		panic("core: Options.Placement requires Options.Failover")
	}
	if opt.HonorThreshold == 0 {
		opt.HonorThreshold = vaxmodel.ShortRTT
	}
	costs := DefaultCosts()
	if opt.Costs != nil {
		costs = *opt.Costs
	}
	e := &Engine{
		env:   env,
		opt:   opt,
		costs: costs,
		site:  env.Site(),
		segs:  make(map[int32]*segNode),
		pend:  make(map[pageKey]*pendingInval),
		relay: make(map[pageKey]*invalRelay),
		stash: make(map[pageKey][]byte),
		obs:   opt.Obs,
	}
	if opt.Reliability != nil {
		e.rel = newRel(e, *opt.Reliability)
	}
	if opt.AutoDelta != nil {
		e.auto = opt.AutoDelta.withDefaults()
	}
	return e
}

// Site returns the engine's site ID.
func (e *Engine) Site() int { return e.site }

// emit stamps the current time and this site onto ev and hands it to
// the tracer. When tracing is off it is a pointer test and a return;
// the Event value never escapes.
func (e *Engine) emit(ev obs.Event) {
	if !e.obs.Tracing() {
		return
	}
	ev.T = e.env.Now()
	ev.Site = int32(e.site)
	if e.opt.Failover != nil {
		if sn, ok := e.segs[ev.Seg]; ok {
			ev.Epoch = sn.segEpoch
		}
	}
	e.obs.Emit(ev)
}

// markStale counts a tolerated out-of-cycle or inconsistent message.
func (e *Engine) markStale() {
	e.stats.Stale++
	e.obs.Count(e.site, obs.CStale)
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters RecordOp
// digests op payloads with.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// RecordOp notes a completed application-level access for the coherence
// history checker: an EvRead/EvWrite trace event carrying the page
// range (From: offset, To: length) and an FNV-1a digest of the bytes as
// read or written. Access layers call it after the data moved, while
// the page can still not change: the simulator on the engine's own
// goroutine, live accessors under the page's frame lock. The engine
// publishes a page-state event before the protection it grants and
// revokes a protection before the event saying so, so each page's op
// records stay in causal order with its protocol events. RecordOp is
// safe for concurrent use: it reads no engine state that changes, so
// op records carry no library epoch. With tracing off it is a pointer
// test and a return — zero allocations, like every other obs hook.
func (e *Engine) RecordOp(seg, page int32, off int, write bool, b []byte) {
	if !e.obs.Tracing() {
		return
	}
	var h uint64 = fnvOffset
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	typ := obs.EvRead
	if write {
		typ = obs.EvWrite
	}
	e.obs.Emit(obs.Event{Type: typ, T: e.env.Now(), Site: int32(e.site), Seg: seg, Page: page,
		From: int32(off), To: int32(len(b)), Arg: int64(h)})
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats zeroes the counters.
func (e *Engine) ResetStats() { e.stats = Stats{} }

// CreateSegment initializes protocol state for a segment created at
// this site, which becomes its library site (§6.0). All pages start
// resident and writable here with an expired window.
func (e *Engine) CreateSegment(meta *mem.Segment) {
	if meta.Library != e.site {
		panic(fmt.Sprintf("core: CreateSegment at site %d for library %d", e.site, meta.Library))
	}
	sn := e.register(meta)
	now := e.env.Now()
	lib := &libSeg{meta: meta, pages: make([]libPage, meta.Pages)}
	sn.lib = lib
	for p := 0; p < meta.Pages; p++ {
		// Seed the trace with the initial placement so a checker reading
		// it cold knows who holds what (Cycle 0 marks it ungranted).
		e.emit(obs.Event{Type: obs.EvPageState, Seg: int32(meta.ID), Page: int32(p), Arg: 2})
		sn.m.Install(p, nil, mmu.ReadWrite, now)
		a := sn.m.Aux(p)
		a.Writer = e.site
		a.Window = 0 // the creator's initial hold is not a granted window
		// meta.Delta is the segment default: it seeds pages whose tuned
		// value is unknown (blankRecord does the same for a takeover).
		lib.pages[p] = libPage{writer: e.site, clock: e.site, delta: meta.Delta, lastWriter: mmu.NoWriter}
	}
	if e.replicationEnabled() {
		e.replSeedLeader(sn)
	}
}

// AttachSegment initializes protocol state for a segment attached at
// this (non-library) site: an empty page table that will fill on
// demand. Attaching twice is a no-op.
func (e *Engine) AttachSegment(meta *mem.Segment) {
	e.register(meta)
}

func (e *Engine) register(meta *mem.Segment) *segNode {
	if sn, ok := e.segs[int32(meta.ID)]; ok {
		return sn
	}
	sn := &segNode{
		meta:    meta,
		m:       mmu.NewSeg(meta.Pages, meta.PageSize),
		waiters: make(map[int32][]waiter),
		outR:    make(map[int32]bool),
		outW:    make(map[int32]bool),
		curLib:  meta.Library,
	}
	e.segs[int32(meta.ID)] = sn
	return sn
}

// DestroySegment drops all local state for a segment (control plane:
// called on every site when the last detach destroys the segment).
// Pending waiters are woken so their access loops can observe the
// destruction.
func (e *Engine) DestroySegment(id int32) {
	sn, ok := e.segs[id]
	if !ok {
		return
	}
	delete(e.segs, id)
	sn.m.SetFenced(true)
	for p := int32(0); p < int32(sn.m.Pages()); p++ {
		e.wakeWaiters(sn, p)
	}
	for _, cancel := range sn.reqTimer {
		cancel()
	}
	sn.reqTimer = nil
	for k := range e.pend {
		if k.seg == id {
			delete(e.pend, k)
		}
	}
	for k := range e.relay {
		if k.seg == id {
			delete(e.relay, k)
		}
	}
	for k := range e.stash {
		if k.seg == id {
			delete(e.stash, k)
		}
	}
}

// Seg returns the site's MMU state for a segment (nil if not attached
// here). Live accessors pin its frames for hits; it stays valid, and
// fenced, after DestroySegment.
func (e *Engine) Seg(id int32) *mmu.Seg {
	sn, ok := e.segs[id]
	if !ok {
		return nil
	}
	return sn.m
}

// MappedPages reports how many pages of all attached segments are
// present at this site; the scheduler charges lazy remap for them.
func (e *Engine) MappedPages() int {
	n := 0
	for _, sn := range e.segs {
		n += sn.m.PresentCount()
	}
	return n
}

// Attached reports whether the segment is known at this site.
func (e *Engine) Attached(id int32) bool {
	_, ok := e.segs[id]
	return ok
}

// Fault reports a page fault by a local process: the process (pid)
// needs page of seg with (write) access; wake is called — possibly
// multiple faults later — whenever the page's local state changed so
// the caller can recheck. The caller blocks after Fault and loops:
// check, fault, block (the hardware retries the faulting instruction,
// §6.1).
func (e *Engine) Fault(seg int32, page int32, write bool, pid int32, wake func()) {
	sn, ok := e.segs[seg]
	if !ok {
		// Destroyed or never attached: let the caller recheck and fail.
		e.env.Exec(0, wake)
		return
	}
	if write {
		e.stats.WriteFaults++
		e.obs.Count(e.site, obs.CWriteFault)
		e.emit(obs.Event{Type: obs.EvFault, Seg: seg, Page: page, Arg: 1})
	} else {
		e.stats.ReadFaults++
		e.obs.Count(e.site, obs.CReadFault)
		e.emit(obs.Event{Type: obs.EvFault, Seg: seg, Page: page})
	}
	sn.waiters[page] = append(sn.waiters[page], waiter{write: write, wake: wake})

	needReq := false
	var kind wire.Kind
	if write {
		if !sn.outW[page] {
			sn.outW[page] = true
			needReq = true
			kind = wire.KWriteReq
		}
	} else {
		// A pending write request will satisfy a read fault too.
		if !sn.outR[page] && !sn.outW[page] {
			sn.outR[page] = true
			needReq = true
			kind = wire.KReadReq
		}
	}
	if !needReq {
		return
	}
	e.stats.RequestsSent++
	cost := e.costs.Request
	if sn.curLib == e.site {
		cost = e.costs.LocalFault
	}
	m := &wire.Msg{
		Kind: kind,
		Seg:  seg,
		Page: page,
		From: int32(e.site),
		Req:  int32(e.site),
		Pid:  pid,
	}
	lib := sn.curLib
	e.armReqTimer(sn, seg, page)
	e.env.Exec(cost, func() { e.transmit(lib, m) })
}

// wakeWaiters wakes every blocked fault on a page; each rechecks its
// access and refaults if still unsatisfied.
func (e *Engine) wakeWaiters(sn *segNode, page int32) {
	ws := sn.waiters[page]
	if len(ws) == 0 {
		return
	}
	delete(sn.waiters, page)
	for _, w := range ws {
		w.wake()
	}
}

// Deliver injects a received protocol message (a *wire.Msg; the
// parameter is any so engines with different message sets satisfy a
// common transport interface). Transports call it for every message
// addressed to this site; the engine charges the appropriate service
// cost and then handles it. Loopback messages (From == this site) cost
// nothing: their work is part of the service that produced them, which
// is why colocating requester and library wins (§7.3).
func (e *Engine) Deliver(payload any) {
	m := payload.(*wire.Msg)
	cost := time.Duration(0)
	if int(m.From) != e.site {
		switch m.Kind {
		case wire.KReadReq, wire.KWriteReq, wire.KInstalled, wire.KBusy,
			wire.KReleaseRead, wire.KReleaseWrite:
			cost = e.costs.Server
		case wire.KPageSend:
			cost = e.costs.Install
		default:
			cost = e.costs.Input
		}
	}
	e.env.Exec(cost, func() { e.receive(m) })
}

// receive routes an incoming message through the reliability layer
// when one is configured: acks retire pending retransmissions,
// sequenced messages are deduplicated and resequenced, and everything
// else (loopback, unsequenced) goes straight to the handlers.
func (e *Engine) receive(m *wire.Msg) {
	if e.rel != nil {
		if m.Kind == wire.KAck {
			e.rel.onAck(m)
			return
		}
		if m.Seq != 0 && int(m.From) != e.site {
			e.rel.onSequenced(m)
			return
		}
	}
	e.handle(m)
}

func (e *Engine) handle(m *wire.Msg) {
	e.obs.Count(e.site, obs.CMsgRecv)
	e.emit(obs.Event{Type: obs.EvMsgRecv, Kind: m.Kind, Seg: m.Seg, Page: m.Page,
		From: m.From, To: int32(e.site), Cycle: m.Cycle})
	sn, ok := e.segs[m.Seg]
	if !ok {
		if e.opt.Failover != nil && m.Kind == wire.KRecover && int(m.From) != e.site {
			// This site never attached the segment: it can neither
			// report holdings nor serve as a successor. Refuse
			// explicitly (Page -2, trigger fields echoed) so the sender
			// moves on instead of waiting out a timeout.
			e.send(int(m.From), &wire.Msg{
				Kind: wire.KRecoverReply, Seg: m.Seg, Page: -2,
				Req: m.Req, Readers: m.Readers, SegEpoch: m.SegEpoch,
			})
			return
		}
		if e.opt.Failover != nil && m.Kind == wire.KMigrate && int(m.From) != e.site {
			// Never attached: cannot host the library role. Refuse so the
			// offering library resumes instead of waiting out its timeout.
			e.send(int(m.From), &wire.Msg{Kind: wire.KMigrateAck, Seg: m.Seg, Page: -1})
			return
		}
		if e.opt.Failover != nil && m.Kind == wire.KAppend && int(m.From) != e.site {
			// Never attached: this site cannot mirror the log. Refuse
			// (Page -2) so the leader benches it instead of waiting out a
			// give-up. SegEpoch is set explicitly because transmit cannot
			// stamp a segment this site does not know.
			e.send(int(m.From), &wire.Msg{
				Kind: wire.KAppendAck, Seg: m.Seg, Page: -2, SegEpoch: m.SegEpoch,
			})
			return
		}
		e.stats.Dropped++
		return
	}
	if m.Kind == wire.KRecover {
		e.handleRecover(sn, m)
		return
	}
	if m.Kind == wire.KRecoverReply {
		e.handleRecoverReply(sn, m)
		return
	}
	// Migration traffic resolves epoch skew itself (like KRecover), so it
	// dispatches ahead of the generic fence.
	if m.Kind == wire.KMigrate {
		e.handleMigrate(sn, m)
		return
	}
	if m.Kind == wire.KMigrateAck {
		e.handleMigrateAck(sn, m)
		return
	}
	if e.opt.Failover != nil && int(m.From) != e.site {
		// Library-epoch fencing: traffic of a superseded epoch is dead
		// with its library; traffic from a newer one means a takeover
		// this site has not heard of yet.
		if m.SegEpoch < sn.segEpoch {
			e.staleEpoch(sn, m)
			return
		}
		if m.SegEpoch > sn.segEpoch {
			e.adoptAhead(sn, m)
		}
	}
	switch m.Kind {
	case wire.KReadReq, wire.KWriteReq, wire.KReleaseRead, wire.KReleaseWrite,
		wire.KInstalled, wire.KBusy:
		if sn.recov != nil {
			// Mid-takeover: the record is still being rebuilt. Serve the
			// request once recovery finishes.
			sn.recov.buffered = append(sn.recov.buffered, m)
			return
		}
		e.handleLibrary(sn, m)
	case wire.KAddReader:
		e.handleAddReader(sn, m)
	case wire.KInval:
		e.handleInval(sn, m)
	case wire.KInvalOrder:
		e.handleInvalOrder(sn, m)
	case wire.KInvalAck:
		e.handleInvalAck(sn, m)
	case wire.KInvalFail:
		e.handleInvalFail(sn, m)
	case wire.KPageSend:
		e.handlePageSend(sn, m)
	case wire.KUpgradeGrant:
		e.handleUpgradeGrant(sn, m)
	case wire.KAlready:
		e.handleAlready(sn, m)
	case wire.KClockHandoff:
		sn.m.Aux(int(m.Page)).ReaderMask = m.Readers
	case wire.KReleaseDone:
		e.handleReleaseDone(sn, m)
	case wire.KDenied:
		e.handleDenied(sn, m)
	case wire.KGrantFail:
		e.handleGrantFail(sn, m)
	case wire.KAppend:
		e.handleAppend(sn, m)
	case wire.KAppendAck:
		e.handleAppendAck(sn, m)
	case wire.KVote:
		e.handleVote(sn, m)
	default:
		panic(fmt.Sprintf("core: site %d: unhandled %v", e.site, m))
	}
}

// send is a small helper stamping the From field.
func (e *Engine) send(to int, m *wire.Msg) {
	m.From = int32(e.site)
	e.transmit(to, m)
}

// transmit hands a message to the reliability layer when one is
// configured; loopback always bypasses it (a site reaches itself).
func (e *Engine) transmit(to int, m *wire.Msg) {
	e.obs.Count(e.site, obs.CMsgSent)
	e.obs.CountN(e.site, obs.CWireByte, int64(m.EncodedLen()))
	switch m.Kind {
	case wire.KPageSend:
		e.obs.Count(e.site, obs.CPageSent)
	case wire.KInval, wire.KInvalOrder:
		e.obs.Count(e.site, obs.CInvalSent)
	}
	e.emit(obs.Event{Type: obs.EvMsgSend, Kind: m.Kind, Seg: m.Seg, Page: m.Page,
		From: int32(e.site), To: int32(to), Cycle: m.Cycle})
	if e.opt.Failover != nil {
		// Stamp the sender's library epoch. Retransmissions keep the
		// stamp of their first send: a message conceived under a dead
		// epoch must not masquerade as current.
		if sn, ok := e.segs[m.Seg]; ok {
			m.SegEpoch = sn.segEpoch
		}
	}
	if e.rel == nil || to == e.site {
		e.env.Send(to, m)
		return
	}
	e.rel.send(to, m)
}
