package core

import (
	"encoding/binary"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// Library-site failover (DESIGN.md §11).
//
// The paper fixes a segment's library site for life (§6.0) and leans on
// Locus for availability; here, when the reliability layer declares the
// library unreachable, the detecting site nominates a successor — the
// next site after the dead library in ID order — and sends it a
// KRecover trigger. The successor bumps the segment's *library epoch*,
// rebuilds the authoritative record by querying every surviving site
// for its page holdings, and resumes granting. Every protocol message
// carries the sender's idea of the epoch (wire.Msg.SegEpoch): messages
// from superseded epochs are rejected, which both fences in-flight
// traffic of the dead epoch and tells a deposed library that comes back
// that it has been replaced.
//
// Pages with no surviving copy are deliberately NOT zero-filled: the
// only good data is wherever the dead library left it, so the record
// keeps naming the dead site as writer. Grants aimed there fail fast
// (ErrUnreachable) while it is down and work again the moment it
// rejoins the new epoch; a site that rejoins and reports holdings the
// record cannot account for is reconciled by lateReport.

// Failover enables library-site takeover. It requires
// Options.Reliability, because the takeover trigger is the reliable
// channel's give-up verdict on a request to the library, and
// Options.Sites, because successor election walks the site ID space.
type Failover struct {
	// Replicas is the number of follower sites mirroring each segment's
	// library record: the Replicas sites after the current library in
	// ID order (DESIGN.md §15, docs/REPLICATION.md). A takeover then
	// installs the record from the replicated log instead of
	// interrogating every holder. 0 (the default) keeps the holder
	// rebuild only.
	Replicas int
	// RecoverTimeout bounds the successor's wait for holder reports;
	// sites that have not replied by then are treated as crashed and
	// their copies as lost. Default 2s.
	RecoverTimeout time.Duration
}

func (f *Failover) recoverTimeout() time.Duration {
	if f.RecoverTimeout == 0 {
		return 2 * time.Second
	}
	return f.RecoverTimeout
}

// recovery is the successor's transient takeover state for one segment.
type recovery struct {
	from    int           // the dead library being replaced
	started time.Duration // for the recovery-latency histogram
	waiting map[int]bool  // sites whose holdings report is still due
	got     map[int32]*recovPage
	// Library-bound messages (new-epoch requests from sites that
	// already adopted) buffered until the record is rebuilt.
	buffered []*wire.Msg
	cancel   func() // RecoverTimeout timer
	// elect is non-nil when this takeover runs as a replicated-log
	// election (docs/REPLICATION.md) instead of a holder rebuild; the
	// records then come from the merged log (see takeoverRecord).
	elect *replElect
}

// recovPage accumulates one page's reported holders.
type recovPage struct {
	readers mmu.Copyset
	writer  int
	clock   int // first reporter claiming the clock role, -1 if none
	// window is the granted Δ reported by the most authoritative holder
	// so far (winRank: 3 writer, 2 clock, 1 reader, 0 none). It lets
	// the rebuild restore a tuned per-page Δ instead of clobbering it
	// with the segment default.
	window  time.Duration
	winRank int
}

// Holdings-report record layout: 13 bytes per held page — the page
// number, a state byte, and the holder's granted window Δ — packed
// into KRecoverReply.Data. The window is what lets a takeover restore
// per-page tuned Δs: holders are the only survivors that know them
// (every install carried the grant's Δ), and the replicated log is not
// always on.
const (
	recRead  = 1 << 0 // site holds a read copy
	recWrite = 1 << 1 // site holds the writable copy
	recClock = 1 << 2 // site believes it has the clock role

	holdingBytes = 4 + 1 + 8
)

// holdingsPerChunk keeps each KRecoverReply under wire.MaxData.
const holdingsPerChunk = 8192

// failoverEnabled reports whether takeover is configured. New refuses
// Failover without Reliability, so the trigger is always armed.
func (e *Engine) failoverEnabled() bool {
	return e.opt.Failover != nil
}

// triggerFailover nominates a successor for the segment's unreachable
// library and sends it a KRecover trigger. tried accumulates candidates
// already attempted (the trigger itself may be undeliverable); it
// returns false when no candidate remains and the caller should fall
// back to the degraded-grant path.
func (e *Engine) triggerFailover(sn *segNode, seg int32, tried mmu.Copyset) bool {
	n := e.opt.Sites
	dead := sn.curLib
	cand := -1
	for i := 1; i < n; i++ {
		c := (dead + i) % n
		if c == dead || tried.Has(c) {
			continue
		}
		cand = c
		break
	}
	if cand < 0 {
		return false
	}
	e.stats.Failovers++
	e.obs.Count(e.site, obs.CFailover)
	e.emit(obs.Event{Type: obs.EvFailover, Seg: seg,
		From: int32(dead), To: int32(cand)})
	e.send(cand, &wire.Msg{
		Kind: wire.KRecover, Seg: seg, Page: -1,
		Req: int32(cand), Readers: tried.Add(cand),
	})
	return true
}

// handleRecover dispatches the three uses of KRecover: a takeover
// trigger (Req names this site, same epoch), a holdings query from a
// recovering successor (higher epoch, From == Req), and a stale-epoch
// notice (higher epoch, Req names the library that sender knows).
func (e *Engine) handleRecover(sn *segNode, m *wire.Msg) {
	if e.opt.Failover == nil {
		e.stats.Dropped++
		return
	}
	switch {
	case m.SegEpoch > sn.segEpoch:
		e.adoptEpoch(sn, m.SegEpoch, int(m.Req))
		e.sendHoldings(sn)
	case m.SegEpoch == sn.segEpoch && int(m.Req) == e.site && !m.Readers.Empty():
		// Takeover trigger: only triggerFailover stamps the tried mask,
		// so an empty Readers cannot nominate a successor. Identity
		// notices (staleEpoch, migration redirects) reuse KRecover with
		// Req naming the library the sender knows — if that happens to be
		// the receiver, treating it as a trigger would launch a crash
		// recovery against a live library.
		e.beginRecovery(sn)
	case m.SegEpoch == sn.segEpoch:
		switch {
		case int(m.Req) == e.site:
			// An identity notice naming this site. If we hold the role,
			// there is nothing to learn; if we do not, the sender's belief
			// and ours are both stale — drop it and let the requester-side
			// timeout backstop resolve the page.
		case int(m.From) != sn.curLib:
			// Stale chatter from a site this epoch already left behind.
		case int(m.Req) == int(m.From):
			// A query that raced another new-epoch message which already
			// moved us forward: (re-)report. Reports merge idempotently.
			e.sendHoldings(sn)
		case int(m.Req) != e.site:
			// Same-epoch identity correction: the site this site still
			// addresses as library says the role lives at Req. Happens
			// when the epoch was adopted blind (adoptAhead learns the
			// number, not the identity) after a voluntary migration, which
			// broadcasts nothing. Re-aim outstanding requests at the
			// successor the deposed library names.
			sn.curLib = int(m.Req)
			e.reaimRequests(sn)
		}
	default:
		e.markStale() // trigger or notice from a superseded epoch
	}
}

// beginRecovery starts the takeover at the nominated successor: bump
// the epoch, claim the library role, and query every surviving site
// for its holdings. Granting resumes in finishRecovery.
func (e *Engine) beginRecovery(sn *segNode) {
	if sn.lib != nil || sn.recov != nil || sn.curLib == e.site {
		return // already the library, or a takeover is running
	}
	dead := sn.curLib
	sn.segEpoch++
	sn.curLib = e.site
	// Entering the epoch drops this site's clock-side state of the dead
	// one, as adoptEpoch does at every other site before it reports: a
	// rolled-back copy must show in the holdings that build the record.
	e.purgeEpoch(sn)
	rc := &recovery{
		from:    dead,
		started: e.env.Now(),
		waiting: make(map[int]bool),
		got:     make(map[int32]*recovPage),
	}
	sn.recov = rc
	// Requests aimed at the dead library are dead with it; blocked
	// faults re-issue against this site once the record is rebuilt.
	e.forgetRequests(sn)
	if e.replicationEnabled() && e.replGroupHas(dead, e.site) {
		// This site mirrors the dead library's log: run an election and
		// install from the merged log tail instead of interrogating every
		// holder (docs/REPLICATION.md). Falls back to the holder rebuild
		// if the vote quorum cannot be reached.
		e.beginElection(sn, rc)
		return
	}
	e.mergeHoldings(rc, e.site, e.localHoldings(sn))
	e.queryHoldings(sn, rc)
}

// queryHoldings sends the holdings query to every surviving site and
// arms the report timeout; recovery finishes immediately when there is
// nobody to ask.
func (e *Engine) queryHoldings(sn *segNode, rc *recovery) {
	seg := int32(sn.meta.ID)
	for s := 0; s < e.opt.Sites; s++ {
		if s == e.site || s == rc.from {
			continue
		}
		rc.waiting[s] = true
		e.send(s, &wire.Msg{Kind: wire.KRecover, Seg: seg, Page: -1, Req: int32(e.site)})
	}
	if len(rc.waiting) == 0 {
		e.finishRecovery(sn)
		return
	}
	rc.cancel = e.env.After(e.opt.Failover.recoverTimeout(), func() {
		if cur, ok := e.segs[seg]; !ok || cur != sn || sn.recov != rc {
			return
		}
		e.finishRecovery(sn)
	})
}

// recovPeerDone marks one queried site's report complete (or the site
// itself unreachable) and finishes recovery when none remain.
func (e *Engine) recovPeerDone(sn *segNode, s int) {
	rc := sn.recov
	if rc == nil || !rc.waiting[s] {
		return
	}
	delete(rc.waiting, s)
	if len(rc.waiting) == 0 {
		e.finishRecovery(sn)
	}
}

// finishRecovery ends a takeover: it builds one record per page — from
// the merged log in an election, from the merged holdings in a rebuild
// — normalises them the same way, and installs them.
//
// Normalising restores Table 1's invariants. Read copies alongside a
// writer are leftovers of an interrupted cycle and are ordered
// discarded. A reader-mode page gets a listed clock site, which learns
// the rebuilt reader mask. A page whose only copy lived on the dead
// library keeps naming it writer (the orphan fail-fast rule): grants
// aimed there fail while it is down and work again when it rejoins,
// where zero-filling would discard the only good copy.
func (e *Engine) finishRecovery(sn *segNode) {
	rc := sn.recov
	if rc == nil {
		return
	}
	seg := int32(sn.meta.ID)
	dead := rc.from
	recs := make([]libRecord, sn.meta.Pages)
	for pg := range recs {
		r := takeoverRecord(sn, rc, int32(pg))
		switch {
		case r.writer == mmu.NoWriter && r.readers.Empty():
			r.writer, r.clock = dead, dead
		case r.writer != mmu.NoWriter:
			r.clock = r.writer
			r.readers.Remove(r.writer).ForEach(func(s int) {
				e.send(s, &wire.Msg{Kind: wire.KInvalOrder, Seg: seg, Page: int32(pg)})
			})
			r.readers = mmu.Copyset{}
		default:
			if !r.readers.Has(r.clock) {
				if r.readers.Has(e.site) {
					r.clock = e.site
				} else {
					r.clock = r.readers.Sites()[0]
				}
			}
			e.send(r.clock, &wire.Msg{
				Kind: wire.KClockHandoff, Seg: seg, Page: int32(pg), Readers: r.readers,
			})
		}
		recs[pg] = r
	}
	e.stats.Recoveries++
	e.obs.Count(e.site, obs.CRecovery)
	e.obs.Observe(obs.HRecoverLatency, int64(e.env.Now()-rc.started))
	if el := rc.elect; el != nil {
		e.stats.Elections++
		e.obs.Count(e.site, obs.CElect)
		e.emit(obs.Event{Type: obs.EvElect, Seg: seg, From: int32(dead),
			Cycle: el.bestEpoch, Arg: int64(el.bestIndex)})
	}
	e.emit(obs.Event{Type: obs.EvRecover, Seg: seg, Arg: int64(dead)})
	e.installLibrary(sn, sn.segEpoch, recs)
}

// takeoverRecord is one page's record before normalisation. An election
// takes the merged log's latest entry, resolving an in-flight intent
// from the probed holdings, and scrubs the dead leader from its
// readers: nothing vouches for that copy. A rebuild takes the reported
// holders, and the granted window of the most authoritative one as the
// page's tuned Δ. A page neither source knows gets a blank record,
// which normalises to an orphan of the dead library.
func takeoverRecord(sn *segNode, rc *recovery, page int32) libRecord {
	r := blankRecord(sn)
	if rc.elect != nil {
		if ent := rc.elect.pages[page]; ent != nil {
			r = ent.post
			if ent.intent {
				r = resolveIntent(rc, ent)
			}
			r.readers = r.readers.Remove(rc.from)
		}
	} else if rp := rc.got[page]; rp != nil {
		r.writer, r.clock, r.readers = rp.writer, rp.clock, rp.readers
		if rp.winRank > 0 {
			r.delta = rp.window
		}
	}
	return r
}

// handleRecoverReply merges one site's holdings report. During recovery
// it feeds the record rebuild; at an established library it is a late
// report from a site that just rejoined the epoch (see lateReport).
func (e *Engine) handleRecoverReply(sn *segNode, m *wire.Msg) {
	if e.opt.Failover == nil || m.SegEpoch != sn.segEpoch {
		e.markStale()
		return
	}
	if m.Page == -2 {
		// Refusal: the peer never attached the segment (see handle's
		// unknown-segment branch). As a queried holder it has nothing to
		// report; as a nominated successor it bounces the takeover to
		// the next candidate in the tried mask.
		switch {
		case sn.recov != nil && int(m.Req) == e.site:
			e.recovPeerDone(sn, int(m.From))
		case sn.recov == nil && sn.lib == nil && int(m.Req) == int(m.From):
			e.triggerFailover(sn, m.Seg, m.Readers)
		}
		return
	}
	hs := e.decodeHoldings(sn, m.Data)
	switch {
	case sn.recov != nil:
		e.mergeHoldings(sn.recov, int(m.From), hs)
		if m.Upgrade { // final chunk
			e.recovPeerDone(sn, int(m.From))
		}
	case sn.lib != nil:
		// A late report can span chunks; the reclaim sweep must only
		// run against the complete set.
		if sn.lateHold == nil {
			sn.lateHold = make(map[int][]holding)
		}
		from := int(m.From)
		sn.lateHold[from] = append(sn.lateHold[from], hs...)
		if m.Upgrade {
			all := sn.lateHold[from]
			delete(sn.lateHold, from)
			e.lateReport(sn, from, all)
		}
	default:
		e.markStale()
	}
}

// adoptEpoch moves this site into a newer library epoch: the previous
// epoch's in-flight state is dead with its library, so outstanding
// requests, clock-side collections, and (if this site WAS the library)
// the library role itself are all dropped. Local page copies stay put —
// they are reported to the new library like any holder's.
func (e *Engine) adoptEpoch(sn *segNode, epoch uint32, newLib int) {
	if epoch <= sn.segEpoch {
		return
	}
	sn.segEpoch = epoch
	sn.curLib = newLib
	seg := int32(sn.meta.ID)
	if sn.lib != nil {
		// Deposed: a successor recovered while this site was presumed
		// dead. The successor's record is authoritative now.
		sn.lib = nil
	}
	if sn.repl != nil {
		// Deposed as replication leader too: quorum gates die with the
		// role (their cycles are dead under the old epoch anyway). The
		// follower-side log is kept — it is this site's ballot if it is
		// ever solicited in a later election.
		sn.repl.lead = nil
	}
	if sn.recov != nil {
		// Our own takeover lost the race to a higher epoch.
		if sn.recov.cancel != nil {
			sn.recov.cancel()
		}
		sn.recov = nil
	}
	if sn.migOut != nil {
		// An outbound migration offer superseded by a higher epoch (or
		// committed by the ack that called us): moot either way.
		if sn.migOut.cancel != nil {
			sn.migOut.cancel()
		}
		sn.migOut = nil
	}
	sn.migIn = nil
	e.purgeEpoch(sn)
	if sn.releasing {
		// In-flight releases died with the old epoch (their eventual
		// give-up is fenced by the epoch guard in deliveryFailed, and a
		// deposed library dropped any it had queued): re-issue against
		// the current library for every frame still held, so the detach
		// can complete instead of waiting on confirmations that will
		// never come.
		sn.releasesPending = 0
		for p := 0; p < sn.m.Pages(); p++ {
			if !sn.m.Present(p) {
				continue
			}
			sn.releasesPending++
			kind := wire.KReleaseRead
			if sn.m.Prot(p) == mmu.ReadWrite {
				kind = wire.KReleaseWrite
			}
			e.send(sn.curLib, &wire.Msg{
				Kind: kind, Seg: seg, Page: int32(p),
				Data: sn.m.Snapshot(p),
			})
		}
		if sn.releasesPending == 0 {
			sn.setReleasing(false)
		}
	}
	e.reaimRequests(sn)
}

// purgeEpoch drops the segment's transient state of a superseded
// epoch. Clock-side pending invalidations roll back, in page order so
// the emitted page-state events (and any sim work they schedule) land
// identically across replays. Delegated inval subtrees and stashed
// copies are dead with their epoch: the parent resolves them through
// its own epoch handling, and answering it from the old epoch would be
// fenced anyway.
func (e *Engine) purgeEpoch(sn *segNode) {
	seg := int32(sn.meta.ID)
	for p := int32(0); p < int32(sn.m.Pages()); p++ {
		k := pageKey{seg: seg, page: p}
		if pi, ok := e.pend[k]; ok {
			delete(e.pend, k)
			e.rollbackPend(sn, p, pi)
		}
	}
	for k := range e.relay {
		if k.seg == seg {
			delete(e.relay, k)
		}
	}
	for k := range e.stash {
		if k.seg == seg {
			delete(e.stash, k)
		}
	}
}

// reaimRequests drops the segment's outstanding-request state and wakes
// every blocked fault so it re-issues against the current library. The
// waiters are woken in page order: map order would reorder the re-sent
// requests between otherwise identical runs and break replay
// determinism.
func (e *Engine) reaimRequests(sn *segNode) {
	e.forgetRequests(sn)
	for p := int32(0); p < int32(sn.m.Pages()); p++ {
		e.wakeWaiters(sn, p)
	}
}

// forgetRequests clears every outstanding request and its deadline for
// the segment, and any degraded-grant verdicts of the old epoch: the
// woken faults re-request against the current library, which may well
// be able to serve pages the dead one could not.
func (e *Engine) forgetRequests(sn *segNode) {
	for page := range sn.outR {
		delete(sn.outR, page)
	}
	for page := range sn.outW {
		delete(sn.outW, page)
	}
	for page, cancel := range sn.reqTimer {
		cancel()
		delete(sn.reqTimer, page)
	}
	for page := range sn.pageErr {
		sn.clearPageErr(page)
	}
}

// rollbackPend reinstates the copy a clock site invalidated for a write
// cycle that died with its library epoch. Unlike invalOrderFailed there
// is no library to notify: the new one rebuilds from reports.
func (e *Engine) rollbackPend(sn *segNode, page int32, pi *pendingInval) {
	p := int(page)
	if sn.m.Present(p) || pi.data == nil {
		return
	}
	e.emit(obs.Event{Type: obs.EvPageState, Seg: int32(sn.meta.ID), Page: page, Arg: 1})
	sn.m.Install(p, pi.data, mmu.ReadOnly, e.env.Now())
	a := sn.m.Aux(p)
	a.Writer = mmu.NoWriter
	a.Window = 0
	a.ReaderMask = pi.origMask
}

// staleEpoch rejects a message from a superseded epoch and tells the
// sender which epoch is current — a deposed library that comes back
// learns of its replacement from exactly this notice.
func (e *Engine) staleEpoch(sn *segNode, m *wire.Msg) {
	e.stats.StaleEpoch++
	e.obs.Count(e.site, obs.CStaleEpoch)
	e.send(int(m.From), &wire.Msg{
		Kind: wire.KRecover, Seg: m.Seg, Page: -1, Req: int32(sn.curLib),
	})
}

// adoptAhead handles a non-KRecover message stamped with an epoch this
// site has not adopted yet (the query is in flight on another circuit).
// Library-origin kinds identify the new library directly; for the rest
// the epoch number advances now and the identity follows with the query.
func (e *Engine) adoptAhead(sn *segNode, m *wire.Msg) {
	newLib := sn.curLib
	switch m.Kind {
	case wire.KInval, wire.KAddReader, wire.KAlready, wire.KDenied,
		wire.KClockHandoff, wire.KReleaseDone, wire.KAppend, wire.KVote:
		// Library-origin kinds; a KVote ahead of our epoch comes from an
		// election winner, which is the library of the epoch it installs.
		newLib = int(m.From)
	}
	e.adoptEpoch(sn, m.SegEpoch, newLib)
}

// holding is one decoded holdings-report record.
type holding struct {
	page   int32
	state  byte
	window time.Duration // the granted Δ this copy was installed with
}

// localHoldings reports this site's present pages for the segment.
func (e *Engine) localHoldings(sn *segNode) []holding {
	var hs []holding
	for p := 0; p < sn.m.Pages(); p++ {
		if !sn.m.Present(p) {
			continue
		}
		var st byte
		if sn.m.Prot(p) == mmu.ReadWrite {
			st = recWrite | recClock
		} else {
			st = recRead
			if !sn.m.Aux(p).ReaderMask.Empty() {
				st |= recClock
			}
		}
		hs = append(hs, holding{page: int32(p), state: st, window: sn.m.Aux(p).Window})
	}
	return hs
}

// sendHoldings ships this site's holdings to the current library in
// MaxData-sized chunks; Upgrade marks the final chunk.
func (e *Engine) sendHoldings(sn *segNode) {
	seg := int32(sn.meta.ID)
	hs := e.localHoldings(sn)
	for start := 0; ; start += holdingsPerChunk {
		end := start + holdingsPerChunk
		last := end >= len(hs)
		if last {
			end = len(hs)
		}
		data := make([]byte, 0, (end-start)*holdingBytes)
		for _, h := range hs[start:end] {
			var b [holdingBytes]byte
			binary.BigEndian.PutUint32(b[:4], uint32(h.page))
			b[4] = h.state
			binary.BigEndian.PutUint64(b[5:], uint64(h.window))
			data = append(data, b[:]...)
		}
		e.send(sn.curLib, &wire.Msg{
			Kind: wire.KRecoverReply, Seg: seg, Page: -1, Upgrade: last, Data: data,
		})
		if last {
			return
		}
	}
}

// decodeHoldings parses a report chunk, discarding malformed or
// out-of-range records rather than trusting the wire.
func (e *Engine) decodeHoldings(sn *segNode, data []byte) []holding {
	var hs []holding
	for len(data) >= holdingBytes {
		page := int32(binary.BigEndian.Uint32(data[:4]))
		st := data[4]
		window := time.Duration(binary.BigEndian.Uint64(data[5:]))
		data = data[holdingBytes:]
		if page < 0 || int(page) >= sn.m.Pages() || st&(recRead|recWrite) == 0 ||
			window < 0 {
			continue
		}
		hs = append(hs, holding{page: page, state: st, window: window})
	}
	return hs
}

// mergeHoldings folds one site's report into the rebuild state.
func (e *Engine) mergeHoldings(rc *recovery, site int, hs []holding) {
	for _, h := range hs {
		rp := rc.got[h.page]
		if rp == nil {
			rp = &recovPage{writer: mmu.NoWriter, clock: -1}
			rc.got[h.page] = rp
		}
		rank := 1
		if h.state&recWrite != 0 {
			rp.writer = site
			rank = 3
		} else {
			rp.readers = rp.readers.Add(site)
		}
		if h.state&recClock != 0 && rp.clock < 0 {
			rp.clock = site
		}
		if h.state&recClock != 0 && rank < 2 {
			rank = 2
		}
		if rank > rp.winRank {
			rp.window, rp.winRank = h.window, rank
		}
	}
}

// lateReport reconciles a holdings report arriving outside recovery: a
// site (typically the deposed library) rejoined the epoch. Copies the
// record already accounts for stand; copies it cannot account for
// predate the failover and are ordered discarded; pages the record
// attributes to the reporter that it no longer holds are unrecoverable
// and get reclaimed (zero-filled) so they stop wedging every grant.
func (e *Engine) lateReport(sn *segNode, from int, hs []holding) {
	lib := sn.lib
	seg := int32(sn.meta.ID)
	for _, h := range hs {
		p := &lib.pages[h.page]
		if p.busy {
			continue // never disturb a live grant cycle
		}
		switch {
		case p.writer == from:
			if h.state&recWrite == 0 {
				// The record presumed a writable copy (orphan policy)
				// but the survivor only ever read the page: demote the
				// entry so grant cycles use the right invalidation mode.
				p.writer = mmu.NoWriter
				p.readers = mmu.CopysetOf(from)
				p.clock = from
				e.send(from, &wire.Msg{
					Kind: wire.KClockHandoff, Seg: seg, Page: h.page,
					Readers: p.readers,
				})
			}
		case p.readers.Has(from):
			// Consistent read copy; nothing to do.
		default:
			e.send(from, &wire.Msg{Kind: wire.KInvalOrder, Seg: seg, Page: h.page})
		}
	}
	reported := make(map[int32]bool, len(hs))
	for _, h := range hs {
		reported[h.page] = true
	}
	for pg := range lib.pages {
		p := &lib.pages[pg]
		if p.writer == from && !reported[int32(pg)] && !p.busy {
			e.libReclaim(sn, int32(pg), nil)
			e.libProcess(sn, int32(pg))
		}
	}
}
