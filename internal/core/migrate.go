package core

import (
	"time"

	"mirage/internal/obs"
	"mirage/internal/wire"
)

// Voluntary library migration (DESIGN.md §14).
//
// The paper fixes a segment's library site for life (§6.0); failover
// (DESIGN.md §11) lets it move on crash, never for performance. Here
// the library itself elects to rehome the role to the segment's hottest
// requester, reusing the failover epoch fence: the old library A, once
// the segment is quiescent, ships its page records to the successor B
// inline (KMigrate chunks — transferred, not reconstructed from holder
// reports), B installs them under epoch E+1 and confirms (KMigrateAck),
// and A deposes itself, converting every request that arrived while the
// transfer was in flight into an epoch notice so the requester re-aims
// at B. Stragglers still addressing A are fenced by the ordinary
// stale-epoch path. Unlike a crash takeover nothing is rebuilt, no page
// moves, and no copy is lost: the record is authoritative at the moment
// of transfer because migration only starts when no grant cycle is
// running and no request is queued.
//
// The decision is a pluggable policy (Options.Placement) evaluated
// inline on request arrival at the library — no timers, so simulated
// runs stay deterministic and an idle segment pays nothing.

// Placement configures the voluntary-migration policy: the library
// tracks per-site request demand for each segment in sliding windows
// and offers the library role to a remote site that dominates the
// window. Requires Options.Failover: the handoff is built on the
// library-epoch fence.
type Placement struct {
	// Window is the demand-sampling period; the policy is evaluated at
	// the first request after each window elapses. Default 250ms.
	Window time.Duration
	// MinRequests is the minimum demand in a window before migration is
	// considered, so an idle segment never migrates on noise. Default 32.
	MinRequests int
	// Share is the fraction of the window's requests the hottest remote
	// site must account for. Default 0.6.
	Share float64
	// PingPong suppresses migration when the runner-up site's demand is
	// at least this fraction of the leader's: two sites alternating on
	// the same pages is write sharing, where moving the library just
	// moves the losing side and the Δ window already amortizes the
	// conflict. Default 0.8.
	PingPong float64
	// Cooldown is the minimum time between migrations of one segment at
	// one site (hysteresis against thrashing). A site that just accepted
	// the role starts its cooldown at the installation. Default 1s.
	Cooldown time.Duration
}

func (p Placement) withDefaults() Placement {
	if p.Window == 0 {
		p.Window = 250 * time.Millisecond
	}
	if p.MinRequests == 0 {
		p.MinRequests = 32
	}
	if p.Share == 0 {
		p.Share = 0.6
	}
	if p.PingPong == 0 {
		p.PingPong = 0.8
	}
	if p.Cooldown == 0 {
		p.Cooldown = time.Second
	}
	return p
}

// placeTrack is the library's per-segment demand window.
type placeTrack struct {
	demand      map[int]int
	total       int
	windowStart time.Duration
	lastMove    time.Duration
}

// migration is the old library's in-flight outbound offer.
type migration struct {
	target  int
	started time.Duration
	cancel  func() // offer timeout
}

// migInbound accumulates an incoming offer's record chunks at the
// successor until the final chunk installs them.
type migInbound struct {
	epoch uint32
	from  int
	data  []byte
}

// placementEnabled reports whether voluntary migration is configured.
// New refuses Placement without Failover.
func (e *Engine) placementEnabled() bool {
	return e.opt.Placement != nil
}

// noteDemand records one library request for the placement policy and
// evaluates the policy at window boundaries. Called before the request
// is queued: if a migration starts here, the triggering request joins
// the frozen queue and is re-aimed at the successor at depose time.
func (e *Engine) noteDemand(sn *segNode, from int) {
	if !e.placementEnabled() || sn.migOut != nil {
		return
	}
	now := e.env.Now()
	pl := sn.place
	if pl == nil {
		pl = &placeTrack{demand: make(map[int]int), windowStart: now}
		sn.place = pl
	}
	pl.demand[from]++
	pl.total++
	p := e.opt.Placement.withDefaults()
	if now-pl.windowStart < p.Window {
		return
	}
	e.evalPlacement(sn, pl, p, now)
	pl.demand = make(map[int]int)
	pl.total = 0
	pl.windowStart = now
}

// evalPlacement applies the policy to one completed demand window.
// Sites are scanned in ID order so the decision is replay-deterministic.
func (e *Engine) evalPlacement(sn *segNode, pl *placeTrack, p Placement, now time.Duration) {
	if pl.total < p.MinRequests {
		return
	}
	if pl.lastMove != 0 && now-pl.lastMove < p.Cooldown {
		return
	}
	lead, leadN, runN := -1, 0, 0
	for s := 0; s < e.opt.Sites; s++ {
		n := pl.demand[s]
		if n == 0 {
			continue
		}
		if n > leadN {
			runN = leadN
			lead, leadN = s, n
		} else if n > runN {
			runN = n
		}
	}
	if lead < 0 || lead == e.site {
		return
	}
	if float64(leadN) < p.Share*float64(pl.total) {
		return
	}
	if float64(runN) >= p.PingPong*float64(leadN) {
		return // ping-pong write sharing: Δ wins, moving the library loses
	}
	if !e.segQuiescent(sn) {
		return
	}
	pl.lastMove = now
	e.startMigration(sn, lead, now)
}

// segQuiescent reports whether the segment can migrate right now: this
// site is its (non-recovering) library and no page has a grant cycle in
// flight or a request queued. Quiescence is what lets the record
// transfer be exact — there is no in-flight state to reconcile.
func (e *Engine) segQuiescent(sn *segNode) bool {
	if sn.lib == nil || sn.recov != nil || sn.migOut != nil {
		return false
	}
	for i := range sn.lib.pages {
		p := &sn.lib.pages[i]
		if p.busy || len(p.queue) > 0 {
			return false
		}
	}
	return true
}

// startMigration freezes the segment and offers the library role to
// target. While the offer is in flight the library stays authoritative
// but grants nothing: arriving requests queue frozen and are converted
// to epoch notices at depose time.
func (e *Engine) startMigration(sn *segNode, target int, now time.Duration) {
	seg := int32(sn.meta.ID)
	mig := &migration{target: target, started: now}
	sn.migOut = mig
	e.sendMigrateRecords(sn, target)
	mig.cancel = e.env.After(e.opt.Failover.recoverTimeout(), func() {
		if cur, ok := e.segs[seg]; !ok || cur != sn || sn.migOut != mig {
			return
		}
		e.abortMigration(sn, true)
	})
}

// sendMigrateRecords ships the record to the successor as its log head
// (one set entry per page) in chunked KMigrate messages; Upgrade marks
// the final chunk, whose SegEpoch (stamped by transmit) is the epoch the
// successor's installation must exceed.
//
// The record carries the demand and tuning state, which is what makes
// a rehomed library warm: the successor keeps its demand window, and
// the Δ controller does not relearn a page it had already converged.
func (e *Engine) sendMigrateRecords(sn *segNode, target int) {
	seg := int32(sn.meta.ID)
	sendEntries(nil, logHead(sn.lib, e.env.Now()), func(data []byte, _ uint32, final bool) {
		e.send(target, &wire.Msg{
			Kind: wire.KMigrate, Seg: seg, Page: -1,
			Req: int32(target), Upgrade: final, Data: data,
		})
	})
}

// abortMigration cancels an in-flight offer and resumes granting. A
// refusal (KMigrateAck Page -1) or a give-up on the offer circuit
// proves the successor never installed — the final chunk never landed —
// so the epoch stands. A timeout proves nothing: the successor may hold
// the role at E+1 with only the ack lost, so the library jumps to E+2,
// fencing that installation the moment it touches any other site.
func (e *Engine) abortMigration(sn *segNode, timedOut bool) {
	mig := sn.migOut
	if mig == nil {
		return
	}
	if mig.cancel != nil {
		mig.cancel()
	}
	sn.migOut = nil
	e.stats.MigrationsRefused++
	e.obs.Count(e.site, obs.CMigrationRefused)
	if timedOut {
		sn.segEpoch += 2
	}
	for pg := range sn.lib.pages {
		e.libProcess(sn, int32(pg))
	}
}

// handleMigrate runs at the offered successor. It is dispatched before
// the generic epoch fence (like KRecover) so epoch skew resolves here:
// an offer from a superseded epoch is refused, an offer ahead of this
// site moves it forward first.
func (e *Engine) handleMigrate(sn *segNode, m *wire.Msg) {
	if !e.failoverEnabled() {
		e.stats.Dropped++
		return
	}
	from := int(m.From)
	if m.SegEpoch < sn.segEpoch {
		e.markStale()
		e.send(from, &wire.Msg{Kind: wire.KMigrateAck, Seg: m.Seg, Page: -1})
		return
	}
	if m.SegEpoch > sn.segEpoch {
		e.adoptEpoch(sn, m.SegEpoch, from)
	}
	if sn.lib != nil || sn.recov != nil || sn.releasing {
		// Already the library (a duplicate or raced offer), mid-takeover,
		// or detaching: not a home for the role.
		e.send(from, &wire.Msg{Kind: wire.KMigrateAck, Seg: m.Seg, Page: -1})
		return
	}
	in := sn.migIn
	if in == nil || in.epoch != m.SegEpoch || in.from != from {
		in = &migInbound{epoch: m.SegEpoch, from: from}
		sn.migIn = in
	}
	in.data = append(in.data, m.Data...)
	if !m.Upgrade {
		return
	}
	sn.migIn = nil
	recs, err := decodeLogHead(in.data, sn.meta.Pages)
	if err != nil {
		// A record that does not decode whole is not installed in part:
		// refuse, and the old library resumes granting.
		e.markStale()
		e.send(from, &wire.Msg{Kind: wire.KMigrateAck, Seg: m.Seg, Page: -1})
		return
	}
	// The epoch is created here, not at the offer: no site can address
	// this site as the E+1 library before the record exists. Requests
	// this site had queued at the old library die in its frozen queue;
	// the install wakes their faults to re-issue here.
	e.forgetRequests(sn)
	e.installLibrary(sn, m.SegEpoch+1, recs)
	// Seed the policy's hysteresis: accepting the role starts a fresh
	// window and a cooldown, so the segment cannot bounce straight back.
	now := e.env.Now()
	sn.place = &placeTrack{demand: make(map[int]int), windowStart: now, lastMove: now}
	e.stats.Migrations++
	e.obs.Count(e.site, obs.CMigration)
	e.emit(obs.Event{Type: obs.EvMigrate, Seg: m.Seg, Arg: int64(from)})
	e.send(from, &wire.Msg{Kind: wire.KMigrateAck, Seg: m.Seg, Page: 0})
}

// handleMigrateAck runs at the old library: a refusal resumes granting
// under the unchanged epoch; an acceptance deposes this site and
// re-aims everything that queued during the transfer at the successor.
func (e *Engine) handleMigrateAck(sn *segNode, m *wire.Msg) {
	if !e.failoverEnabled() {
		e.stats.Dropped++
		return
	}
	mig := sn.migOut
	if mig == nil || int(m.From) != mig.target {
		e.markStale()
		return
	}
	if m.Page < 0 {
		e.abortMigration(sn, false)
		return
	}
	if m.SegEpoch <= sn.segEpoch {
		e.markStale()
		return
	}
	if mig.cancel != nil {
		mig.cancel()
	}
	sn.migOut = nil
	e.obs.Observe(obs.HMigrateLatency, int64(e.env.Now()-mig.started))
	// Collect the frozen queue's requesters before adoptEpoch drops the
	// record. Read/write requesters re-request at the successor when the
	// notice moves them forward; releasing sites re-issue their releases
	// from adoptEpoch's own releasing path.
	seg := int32(sn.meta.ID)
	notify := make(map[int]bool)
	for pg := range sn.lib.pages {
		for _, r := range sn.lib.pages[pg].queue {
			if r.site != e.site {
				notify[r.site] = true
			}
		}
	}
	e.adoptEpoch(sn, m.SegEpoch, mig.target)
	for s := 0; s < e.opt.Sites; s++ {
		if notify[s] {
			e.send(s, &wire.Msg{
				Kind: wire.KRecover, Seg: seg, Page: -1, Req: int32(mig.target),
			})
		}
	}
}
