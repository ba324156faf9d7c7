package core

import (
	"fmt"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// pendingInval is clock-site transient state while other readers'
// copies are being collected for a write grant.
type pendingInval struct {
	m         *wire.Msg   // the KInval being honored
	remaining mmu.Copyset // targets whose discard is not yet confirmed
	data      []byte      // page contents captured for the new writer
	// Rollback state for the reliability layer: the reader set as it
	// stood before the cycle, and which targets have discarded so far.
	origMask mmu.Copyset
	acked    mmu.Copyset
	// Tree mode: direct child -> the subtree copyset delegated to it,
	// used to fall back to unicast when a child's circuit gives up.
	sub map[int]mmu.Copyset
}

// invalRelay is interior-site transient state for one delegated
// invalidation subtree: the site discarded its own copy, relayed
// orders onward, and owes its parent one aggregated ack.
type invalRelay struct {
	parent    int
	cycle     uint32
	remaining mmu.Copyset // subtree members not yet confirmed
	acked     mmu.Copyset // confirmed discards (includes this site)
	failed    mmu.Copyset // members given up on (reported via KInvalFail)
	sub       map[int]mmu.Copyset
}

// fanoutInvalOrders sends KInvalOrder to every site in targets. In
// flat mode (InvalFanout < 2) or for small sets each target gets a
// plain unicast order and acks the sender directly. In tree mode the
// sorted target list is partitioned into at most k contiguous slices;
// each slice's first member becomes a relay that receives the whole
// slice as a copyset, discards its own copy, fans out to the rest, and
// returns one aggregated ack. Returns the child->subtree map (nil for
// the unicast path) for give-up fallback bookkeeping.
func (e *Engine) fanoutInvalOrders(m *wire.Msg, targets mmu.Copyset) map[int]mmu.Copyset {
	k := e.opt.InvalFanout
	if k < 2 || targets.Count() <= k {
		targets.ForEach(func(s int) {
			e.send(s, &wire.Msg{Kind: wire.KInvalOrder, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle})
		})
		return nil
	}
	members := targets.Sites()
	n := len(members)
	sub := make(map[int]mmu.Copyset, k)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		if lo >= hi {
			continue
		}
		slice := mmu.CopysetOf(members[lo:hi]...)
		root := members[lo]
		sub[root] = slice
		e.send(root, &wire.Msg{
			Kind: wire.KInvalOrder, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle,
			Readers: slice,
		})
	}
	e.obs.Count(e.site, obs.CInvalFanout)
	e.emit(obs.Event{Type: obs.EvInvalFanout, Seg: m.Seg, Page: m.Page,
		Cycle: m.Cycle, Arg: int64(len(sub))})
	return sub
}

// CheckAccess classifies a local access for the ipc layer. Pages of a
// segment being released (detached) always fault so a racing re-attach
// refetches fresh copies through the library.
func (e *Engine) CheckAccess(seg, page int32, write bool) mmu.FaultType {
	sn, ok := e.segs[seg]
	if !ok || sn.releasing {
		if write {
			return mmu.WriteFault
		}
		return mmu.ReadFault
	}
	return sn.m.Check(int(page), write)
}

// Frame exposes the local frame for the data path after a successful
// CheckAccess. It returns nil for absent pages.
func (e *Engine) Frame(seg, page int32) []byte {
	sn, ok := e.segs[seg]
	if !ok {
		return nil
	}
	return sn.m.Frame(int(page))
}

// handleAddReader runs at the clock site for the Readers/Readers row
// of Table 1: no clock check, no invalidation — note the new readers
// and ship them copies directly.
func (e *Engine) handleAddReader(sn *segNode, m *wire.Msg) {
	p := int(m.Page)
	if !sn.m.Present(p) {
		if e.rel == nil {
			panic(fmt.Sprintf("core: site %d: add-reader for absent page: %v", e.site, m))
		}
		// Our copy is gone (dropped by an earlier degraded grant); the
		// library's record is behind. Fail the whole batch back.
		e.markStale()
		m.Readers.ForEach(func(s int) {
			e.send(sn.curLib, &wire.Msg{
				Kind: wire.KGrantFail, Mode: wire.Read, Seg: m.Seg, Page: m.Page,
				Req: int32(s), Cycle: m.Cycle,
			})
		})
		return
	}
	a := sn.m.Aux(p)
	a.ReaderMask = a.ReaderMask.Union(m.Readers)
	m.Readers.ForEach(func(s int) {
		e.stats.PagesSent++
		e.send(s, &wire.Msg{
			Kind:  wire.KPageSend,
			Mode:  wire.Read,
			Seg:   m.Seg,
			Page:  m.Page,
			Delta: m.Delta,
			Cycle: m.Cycle,
			Data:  sn.m.Snapshot(p),
		})
	})
}

// handleInval runs at the clock site: the Δ check (Table 1), then the
// invalidation cycle of §6.1 — invalidate the local page, invalidate
// any other outstanding readers, and distribute the page to the new
// writer or new readers.
func (e *Engine) handleInval(sn *segNode, m *wire.Msg) {
	e.stats.InvalsReceived++
	p := int(m.Page)
	if !sn.m.Present(p) {
		if e.rel == nil {
			panic(fmt.Sprintf("core: site %d: inval for absent page: %v", e.site, m))
		}
		// Clock copy gone: the cycle cannot be honored here.
		e.markStale()
		e.send(sn.curLib, &wire.Msg{
			Kind: wire.KGrantFail, Mode: wire.Write, Seg: m.Seg, Page: m.Page,
			Req: m.Req, Upgrade: m.Upgrade, Cycle: m.Cycle,
		})
		return
	}
	now := e.env.Now()
	if rem := sn.m.WindowRemaining(p, now); rem > 0 && !mutateSkipWindowCheck {
		// The window has not expired: §6.1 "the clock site replies
		// immediately with the amount of time the library must wait".
		// However the policy resolves it, this is a Δ denial — the
		// datum behind the Δ-tuning analyses.
		e.obs.Count(e.site, obs.CDeltaDenial)
		e.obs.Observe(obs.HDenialRemaining, int64(rem))
		e.emit(obs.Event{Type: obs.EvDeltaDeny, Seg: m.Seg, Page: m.Page,
			Cycle: m.Cycle, Arg: int64(rem)})
		switch e.opt.Policy {
		case PolicyRetry:
			e.stats.BusyReplies++
			e.send(sn.curLib, &wire.Msg{
				Kind: wire.KBusy, Seg: m.Seg, Page: m.Page, Remaining: rem, Cycle: m.Cycle,
			})
			return
		case PolicyHonorClose:
			if rem > e.opt.HonorThreshold {
				e.stats.BusyReplies++
				e.send(sn.curLib, &wire.Msg{
					Kind: wire.KBusy, Seg: m.Seg, Page: m.Page, Remaining: rem, Cycle: m.Cycle,
				})
				return
			}
			fallthrough
		case PolicyQueue:
			e.stats.WindowWait += rem
			e.env.After(rem, func() {
				// Segment may have been destroyed while we waited.
				if cur, ok := e.segs[m.Seg]; ok && cur == sn {
					e.acceptInval(sn, m)
				}
			})
			return
		}
	}
	e.acceptInval(sn, m)
}

// acceptInval performs the clock site's actions once the window allows.
func (e *Engine) acceptInval(sn *segNode, m *wire.Msg) {
	p := int(m.Page)
	now := e.env.Now()
	a := sn.m.Aux(p)

	if m.Mode == wire.Read {
		// Table 1 row Writer/Readers: downgrade the writer to reader
		// (optimization 2: it retains its read copy) and distribute
		// copies to the new readers. The clock site stays here.
		if sn.m.Prot(p) != mmu.ReadWrite {
			if e.rel == nil {
				panic(fmt.Sprintf("core: site %d: downgrade of non-writable page: %v", e.site, m))
			}
			e.markStale()
			e.send(sn.curLib, &wire.Msg{
				Kind: wire.KGrantFail, Mode: wire.Write, Seg: m.Seg, Page: m.Page,
				Req: -1, Cycle: m.Cycle,
			})
			return
		}
		sn.m.Downgrade(p, now)
		e.stats.Downgrades++
		e.obs.Count(e.site, obs.CDowngrade)
		if !sn.releasing {
			// Mid-release the surrender was already traced when the copy
			// shipped home; the frame survives only to serve this cycle
			// (local access faults until release-done frees it). Once the
			// library drains the queued release it stops invalidating this
			// site, so tracing a retained read copy here would leave a
			// phantom holder coexisting with later writers.
			e.emit(obs.Event{Type: obs.EvDowngrade, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle})
			e.emit(obs.Event{Type: obs.EvPageState, Seg: m.Seg, Page: m.Page, Arg: 1})
		}
		a.Writer = mmu.NoWriter
		a.Window = m.Delta
		a.ReaderMask = mmu.CopysetOf(e.site).Union(m.Readers)
		m.Readers.ForEach(func(s int) {
			e.stats.PagesSent++
			e.send(s, &wire.Msg{
				Kind:  wire.KPageSend,
				Mode:  wire.Read,
				Seg:   m.Seg,
				Page:  m.Page,
				Delta: m.Delta,
				Cycle: m.Cycle,
				Data:  sn.m.Snapshot(p),
			})
		})
		return
	}

	// Write grant: rows Readers/Writer and Writer/Writer. Collect every
	// readable copy except the new writer's own (upgrade), then grant.
	//
	// Targets are the intersection of the clock's mask with the
	// library's record (m.Readers). The clock's mask goes stale on
	// release — releases flow to the library, which never tells the
	// clock — so it can still name sites that surrendered their copies
	// cycles ago. Ordering those sites is wasted traffic in the happy
	// path, but fatal under an aborted cycle: they ack vacuously, land
	// in the acked set, and the rollback re-ships them copies the
	// library's record no longer tracks.
	origMask := a.ReaderMask
	targets := a.ReaderMask.Intersect(m.Readers).Remove(e.site).Remove(int(m.Req))
	var data []byte
	if int(m.Req) == e.site && m.Upgrade {
		// We are both clock site and upgrading requester: keep our copy.
	} else {
		// The frame is captured even for upgrades (which don't ship it):
		// it is the rollback/rehome copy should the grant fail.
		data = sn.m.Invalidate(p)
		e.emit(obs.Event{Type: obs.EvPageState, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle})
	}
	a.ReaderMask = mmu.Copyset{}
	a.Writer = mmu.NoWriter

	if targets.Empty() {
		e.finishWriteGrant(sn, m, data)
		return
	}
	pi := &pendingInval{m: m, remaining: targets, data: data, origMask: origMask}
	k := pageKey{m.Seg, m.Page}
	e.pend[k] = pi
	pi.sub = e.fanoutInvalOrders(m, targets)
	if e.rel != nil && len(pi.sub) > 0 {
		e.env.After(e.delegationTimeout(), func() {
			if cur, ok := e.pend[k]; ok && cur == pi {
				e.reissueDelegations(k, pi.m.Cycle, pi.sub, pi.remaining)
			}
		})
	}
}

// delegationTimeout is how long a delegating site waits for a
// subtree's aggregated answer before falling back to direct orders:
// twice the reliable channel's give-up horizon, so a child relay that
// legitimately spends the whole horizon giving up on a dead leaf (and
// then reports) still beats the deadline.
func (e *Engine) delegationTimeout() time.Duration {
	var h time.Duration
	for i := 1; i <= e.rel.opt.MaxAttempts; i++ {
		h += e.rel.timeout(i)
	}
	return 2 * h
}

// reissueDelegations converts every still-unanswered subtree to direct
// unicast orders from this site. Flat orders need no watchdog —
// processing an order and acking it are the same instant, so the
// sender's ARQ on the order covers the whole exchange — but a
// delegated order opens a window between the transport ack (order
// delivered to the relay) and the protocol ack (the relay's
// aggregated KInvalAck). A relay that fail-stops inside that window
// has already satisfied the sender's ARQ, so nothing retransmits and
// the cycle would wedge forever. Reissuing as unicast is always safe:
// a member that already discarded holds no copy and acks vacuously, a
// live-but-slow relay's late aggregate merges idempotently, and a
// truly dead member now fails through the normal order give-up path
// (abort at the clock, KInvalFail at a relay) instead of hanging.
func (e *Engine) reissueDelegations(k pageKey, cycle uint32, sub map[int]mmu.Copyset, remaining mmu.Copyset) {
	for root, subtree := range sub {
		delete(sub, root)
		subtree.ForEach(func(s int) {
			if remaining.Has(s) {
				e.stats.Reissued++
				e.send(s, &wire.Msg{Kind: wire.KInvalOrder, Seg: k.seg, Page: k.page, Cycle: cycle})
			}
		})
	}
}

// finishWriteGrant runs at the clock site once no readable copy
// remains anywhere except (for an upgrade) the new writer's.
func (e *Engine) finishWriteGrant(sn *segNode, m *wire.Msg, data []byte) {
	req := int(m.Req)
	if m.Upgrade {
		if req == e.site {
			// Clock site upgrading itself: flip the protection in place
			// and notify the library directly.
			e.emit(obs.Event{Type: obs.EvUpgrade, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle})
			e.emit(obs.Event{Type: obs.EvPageState, Seg: m.Seg, Page: m.Page, Arg: 2})
			sn.m.Upgrade(int(m.Page), e.env.Now())
			a := sn.m.Aux(int(m.Page))
			a.Writer = e.site
			a.Window = m.Delta
			e.stats.Upgrades++
			e.obs.Count(e.site, obs.CUpgrade)
			e.send(sn.curLib, &wire.Msg{
				Kind: wire.KInstalled, Mode: wire.Write, Seg: m.Seg, Page: m.Page,
				Cycle: m.Cycle,
			})
			sn.clearPageErr(m.Page) // in-place grant supersedes old verdicts
			e.wakeWaiters(sn, m.Page)
			sn.outW[m.Page] = false
			sn.outR[m.Page] = false
			e.reqProgress(sn, m.Page)
			return
		}
		// Optimization 1: no page copy; a notification acknowledges the
		// write request. The captured frame is stashed so a failed
		// delivery (or an upgrade landing on an invalid copy) can still
		// rehome the page at the library.
		if e.rel != nil && data != nil {
			e.stash[pageKey{m.Seg, m.Page}] = data
		}
		e.send(req, &wire.Msg{
			Kind: wire.KUpgradeGrant, Seg: m.Seg, Page: m.Page, Delta: m.Delta,
			Cycle: m.Cycle,
		})
		return
	}
	if data == nil {
		panic(fmt.Sprintf("core: site %d: write grant with no page data: %v", e.site, m))
	}
	e.stats.PagesSent++
	e.send(req, &wire.Msg{
		Kind:  wire.KPageSend,
		Mode:  wire.Write,
		Seg:   m.Seg,
		Page:  m.Page,
		Delta: m.Delta,
		Cycle: m.Cycle,
		Data:  data,
	})
}

// handleInvalOrder runs at a reader told to discard its copy. With a
// non-empty Readers copyset the order also delegates a subtree: after
// discarding its own copy the site relays orders to the remaining
// members and answers its parent with one aggregated ack.
func (e *Engine) handleInvalOrder(sn *segNode, m *wire.Msg) {
	e.stats.InvalOrders++
	p := int(m.Page)
	if sn.m.Present(p) {
		sn.m.Invalidate(p)
		a := sn.m.Aux(p)
		a.ReaderMask = mmu.Copyset{}
		a.Writer = mmu.NoWriter
		e.emit(obs.Event{Type: obs.EvPageState, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle})
	}
	rest := m.Readers.Remove(e.site)
	if rest.Empty() {
		// Leaf (or flat unicast): a single-site ack.
		e.send(int(m.From), &wire.Msg{
			Kind: wire.KInvalAck, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle,
			Readers: mmu.CopysetOf(e.site),
		})
		return
	}
	// Interior relay: fan out to the delegated subtree and hold the ack
	// until every member is resolved. A newer order for the same page
	// supersedes any stale relay state (its parent has already given up
	// or aborted; late acks to it resolve as stale).
	e.obs.Count(e.site, obs.CRelay)
	e.emit(obs.Event{Type: obs.EvRelay, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle,
		From: m.From, Arg: int64(rest.Count())})
	rl := &invalRelay{
		parent:    int(m.From),
		cycle:     m.Cycle,
		remaining: rest,
		acked:     mmu.CopysetOf(e.site),
	}
	rl.sub = e.fanoutInvalOrders(m, rest)
	k := pageKey{m.Seg, m.Page}
	e.relay[k] = rl
	if e.rel != nil && len(rl.sub) > 0 {
		e.env.After(e.delegationTimeout(), func() {
			if cur, ok := e.relay[k]; ok && cur == rl {
				e.reissueDelegations(k, rl.cycle, rl.sub, rl.remaining)
			}
		})
	}
}

// ackCovered returns the set of sites an inval-ack confirms: the
// carried copyset on the tree path, the sender alone otherwise.
func ackCovered(m *wire.Msg) mmu.Copyset {
	if m.Readers.Empty() {
		return mmu.CopysetOf(int(m.From))
	}
	return m.Readers
}

// handleInvalAck collects discard confirmations — at the clock site
// for the cycle in flight, or at an interior relay for its delegated
// subtree.
func (e *Engine) handleInvalAck(sn *segNode, m *wire.Msg) {
	e.obs.Count(e.site, obs.CInvalAcked)
	k := pageKey{m.Seg, m.Page}
	if rl, ok := e.relay[k]; ok && rl.cycle == m.Cycle {
		covered := ackCovered(m)
		rl.acked = rl.acked.Union(covered)
		rl.remaining = rl.remaining.Subtract(covered)
		delete(rl.sub, int(m.From))
		e.relayMaybeFinish(k, rl)
		return
	}
	pi, ok := e.pend[k]
	if !ok || (e.rel != nil && m.Cycle != pi.m.Cycle) {
		if e.rel != nil {
			e.markStale()
			return
		}
		panic(fmt.Sprintf("core: site %d: unexpected inval-ack: %v", e.site, m))
	}
	covered := ackCovered(m)
	pi.acked = pi.acked.Union(covered)
	pi.remaining = pi.remaining.Subtract(covered)
	if pi.sub != nil {
		delete(pi.sub, int(m.From))
	}
	if !pi.remaining.Empty() {
		return
	}
	delete(e.pend, k)
	e.finishWriteGrant(sn, pi.m, pi.data)
}

// relayMaybeFinish sends the aggregated answer to the relay's parent
// once every subtree member is resolved. The ack travels first so the
// parent merges this relay's confirmed set before any failure report
// triggers rollback — both messages ride the same FIFO circuit.
func (e *Engine) relayMaybeFinish(k pageKey, rl *invalRelay) {
	if !rl.remaining.Empty() {
		return
	}
	delete(e.relay, k)
	e.send(rl.parent, &wire.Msg{
		Kind: wire.KInvalAck, Seg: k.seg, Page: k.page, Cycle: rl.cycle,
		Readers: rl.acked,
	})
	if !rl.failed.Empty() {
		e.send(rl.parent, &wire.Msg{
			Kind: wire.KInvalFail, Seg: k.seg, Page: k.page, Cycle: rl.cycle,
			Readers: rl.failed,
		})
	}
}

// relayOrderFailed runs at a relay whose circuit to a child gave up:
// the child is recorded as failed, and the rest of the subtree it was
// delegated falls back to direct unicast orders from this relay, so a
// crashed interior site degrades the tree to the flat path instead of
// stranding its descendants.
func (e *Engine) relayOrderFailed(k pageKey, rl *invalRelay, to int) {
	subtree, ok := rl.sub[to]
	delete(rl.sub, to)
	if !ok {
		subtree = mmu.CopysetOf(to)
	}
	if rl.remaining.Has(to) {
		rl.failed = rl.failed.Add(to)
		rl.remaining = rl.remaining.Remove(to)
	}
	subtree.Remove(to).ForEach(func(s int) {
		if rl.remaining.Has(s) {
			e.send(s, &wire.Msg{Kind: wire.KInvalOrder, Seg: k.seg, Page: k.page, Cycle: rl.cycle})
		}
	})
	e.relayMaybeFinish(k, rl)
}

// handleInvalFail receives a relay's unreachable-subtree report. At
// the clock site it aborts the cycle exactly like a direct reader
// circuit giving up; at an intermediate relay it folds the failure
// into the aggregated answer for its own parent.
func (e *Engine) handleInvalFail(sn *segNode, m *wire.Msg) {
	k := pageKey{m.Seg, m.Page}
	if rl, ok := e.relay[k]; ok && rl.cycle == m.Cycle {
		rl.failed = rl.failed.Union(m.Readers)
		rl.remaining = rl.remaining.Subtract(m.Readers)
		e.relayMaybeFinish(k, rl)
		return
	}
	pi, ok := e.pend[k]
	if !ok || m.Cycle != pi.m.Cycle {
		e.markStale()
		return
	}
	e.invalOrderFailed(sn, pi.m, int(m.From))
}

// handlePageSend installs a received page at the requester and
// completes its share of the grant cycle.
func (e *Engine) handlePageSend(sn *segNode, m *wire.Msg) {
	if sn.releasing && !sn.outR[m.Page] && !sn.outW[m.Page] {
		// An unsolicited copy — a clock rollback re-shipping to a
		// reader whose release is still queued at the busy library.
		// The copy was surrendered the moment it shipped home;
		// re-installing would leave a frame the library's record no
		// longer tracks (and, once the record drains, coexist with a
		// reclaimed writable copy at the library).
		e.stats.Dropped++
		return
	}
	e.stats.PagesReceived++
	e.obs.Count(e.site, obs.CPageRecv)
	p := int(m.Page)
	now := e.env.Now()
	prot := mmu.ReadOnly
	state := int64(1)
	if m.Mode == wire.Write {
		prot = mmu.ReadWrite
		state = 2
	}
	e.emit(obs.Event{Type: obs.EvPageState, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle, Arg: state})
	if sn.m.Present(p) {
		// A stale copy can exist if a read grant raced a later write
		// request from this site; the incoming page is authoritative.
		sn.m.Invalidate(p)
	}
	sn.m.Install(p, m.Data, prot, now)
	a := sn.m.Aux(p)
	a.Window = m.Delta
	if m.Mode == wire.Write {
		a.Writer = e.site
		a.ReaderMask = mmu.Copyset{}
	} else {
		a.Writer = mmu.NoWriter
	}
	e.send(sn.curLib, &wire.Msg{
		Kind: wire.KInstalled, Mode: m.Mode, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle,
	})
	if m.Mode == wire.Write {
		sn.outW[m.Page] = false
		sn.outR[m.Page] = false
	} else {
		sn.outR[m.Page] = false
	}
	// A fresh copy supersedes any degraded-grant verdict still cached
	// for the page: without this, an access after the peer heals would
	// fail with the stale error instead of using the installed copy.
	sn.clearPageErr(m.Page)
	e.reqProgress(sn, m.Page)
	e.wakeWaiters(sn, m.Page)
}

// handleUpgradeGrant flips a read copy to writable in place
// (optimization 1) at the requester.
func (e *Engine) handleUpgradeGrant(sn *segNode, m *wire.Msg) {
	p := int(m.Page)
	if sn.m.Prot(p) != mmu.ReadOnly {
		if e.rel == nil {
			panic(fmt.Sprintf("core: site %d: upgrade grant for %v page: %v", e.site, sn.m.Prot(p), m))
		}
		if sn.m.Prot(p) == mmu.ReadWrite {
			// Raced duplicate: we are already the writer; complete the
			// cycle anyway.
			e.markStale()
			e.send(sn.curLib, &wire.Msg{
				Kind: wire.KInstalled, Mode: wire.Write, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle,
			})
			return
		}
		// Our read copy is gone (dropped by an earlier degraded grant):
		// the in-place upgrade cannot apply. The clock (the sender)
		// holds the frame it captured for this cycle; ask it to rehome
		// the page through the library.
		e.markStale()
		e.send(int(m.From), &wire.Msg{
			Kind: wire.KGrantFail, Mode: wire.Write, Upgrade: true,
			Seg: m.Seg, Page: m.Page, Req: int32(e.site), Cycle: m.Cycle,
		})
		return
	}
	e.emit(obs.Event{Type: obs.EvUpgrade, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle})
	e.emit(obs.Event{Type: obs.EvPageState, Seg: m.Seg, Page: m.Page, Arg: 2})
	sn.m.Upgrade(p, e.env.Now())
	a := sn.m.Aux(p)
	a.Writer = e.site
	a.Window = m.Delta
	a.ReaderMask = mmu.Copyset{}
	e.stats.Upgrades++
	e.obs.Count(e.site, obs.CUpgrade)
	e.send(sn.curLib, &wire.Msg{
		Kind: wire.KInstalled, Mode: wire.Write, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle,
	})
	sn.outW[m.Page] = false
	sn.outR[m.Page] = false
	sn.clearPageErr(m.Page) // the upgraded copy supersedes old verdicts
	e.reqProgress(sn, m.Page)
	e.wakeWaiters(sn, m.Page)
}

// handleAlready clears the satisfied request and lets waiters recheck.
func (e *Engine) handleAlready(sn *segNode, m *wire.Msg) {
	e.stats.Already++
	e.obs.Count(e.site, obs.CAlready)
	if m.Mode == wire.Write {
		sn.outW[m.Page] = false
	} else {
		sn.outR[m.Page] = false
	}
	if sn.m.Present(int(m.Page)) {
		// The record says we hold the page and we do: any cached
		// degraded verdict is from an older failure and must not poison
		// the access that triggered this round trip.
		sn.clearPageErr(m.Page)
	}
	e.reqProgress(sn, m.Page)
	if e.rel != nil && m.Mode == wire.Read && !sn.m.Present(int(m.Page)) &&
		len(sn.waiters[m.Page]) > 0 && !sn.releasing {
		// The record lists us as a reader but the copy is gone (dropped
		// by an earlier degraded grant). Shed the stale record entry;
		// the refault's fresh request, queued behind this correction on
		// the same circuit, then earns a real grant.
		e.markStale()
		e.send(sn.curLib, &wire.Msg{Kind: wire.KReleaseRead, Seg: m.Seg, Page: m.Page})
	}
	e.wakeWaiters(sn, m.Page)
}

// windowRemainingForTest exposes Δ accounting to package tests.
func (e *Engine) windowRemainingForTest(seg, page int32) time.Duration {
	sn := e.segs[seg]
	return sn.m.WindowRemaining(int(page), e.env.Now())
}
