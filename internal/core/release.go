package core

import (
	"fmt"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// ReleaseSegment returns this site's page copies to the library when
// the last local process detaches the segment. The site keeps serving
// protocol traffic for pages it still holds until the library confirms
// each release (the release is queued behind any grant cycles already
// targeting this site as a holder); local accesses fault for the
// duration so a racing re-attach refetches coherent copies.
//
// At the library site itself this is a no-op: the library is the
// segment's home.
func (e *Engine) ReleaseSegment(seg int32) {
	sn, ok := e.segs[seg]
	if !ok {
		return
	}
	if sn.curLib == e.site {
		return
	}
	sn.setReleasing(true)
	for p := 0; p < sn.m.Pages(); p++ {
		if !sn.m.Present(p) {
			continue
		}
		sn.releasesPending++
		kind := wire.KReleaseRead
		if sn.m.Prot(p) == mmu.ReadWrite {
			kind = wire.KReleaseWrite
		}
		// Read copies carry data too: if this site turns out to be the
		// last holder, the library reinstalls from it.
		e.send(sn.curLib, &wire.Msg{
			Kind: kind, Seg: seg, Page: int32(p),
			Data: sn.m.Snapshot(p),
		})
		// Trace-wise the copy is surrendered the moment it ships home:
		// the frame stays installed only to serve grant cycles already
		// in flight, and the detached process can never touch it again.
		e.emit(obs.Event{Type: obs.EvPageState, Seg: seg, Page: int32(p)})
	}
	if sn.releasesPending == 0 {
		sn.setReleasing(false)
	}
}

// setReleasing sets the segment's releasing flag and fences its pages
// off the hit path (or lets them back on) to match. Fencing waits out
// the hits in flight, so a surrender traced after it follows every op
// the site made on its copy.
func (sn *segNode) setReleasing(on bool) {
	sn.releasing = on
	sn.m.SetFenced(on)
}

// Releasing reports whether the segment is mid-release at this site.
func (e *Engine) Releasing(seg int32) bool {
	sn, ok := e.segs[seg]
	return ok && sn.releasing
}

// libProcessRelease runs at the library when a queued release reaches
// the head of a page's queue (never while a grant cycle is in flight).
func (e *Engine) libProcessRelease(sn *segNode, page int32, r libReq) {
	p := &sn.lib.pages[page]
	seg := int32(sn.meta.ID)
	mutated := true
	handoffTo := -1
	var handoff *wire.Msg
	switch {
	case r.site == p.writer:
		// The writer hands its (only) copy home: the library becomes
		// writer and clock site again.
		e.libReclaim(sn, page, r.data)
	case p.readers.Has(r.site):
		p.readers = p.readers.Remove(r.site)
		if p.readers.Empty() && p.writer == mmu.NoWriter {
			// Last copy anywhere: reinstall at the library. With no
			// writer outstanding every read copy is current.
			e.libReclaim(sn, page, r.data)
		} else if p.clock == r.site {
			// Hand the clock role to a remaining reader, preferring
			// the library itself.
			nc := e.site
			if !p.readers.Has(e.site) {
				nc = p.readers.Sites()[0]
			}
			p.clock = nc
			handoffTo = nc
			handoff = &wire.Msg{
				Kind: wire.KClockHandoff, Seg: seg, Page: page,
				Readers: p.readers,
			}
		}
	default:
		// Stale: an intervening cycle already removed this holder.
		mutated = false
	}
	done := &wire.Msg{Kind: wire.KReleaseDone, Seg: seg, Page: page}
	confirm := func() {
		if handoff != nil {
			e.send(handoffTo, handoff)
		}
		e.send(r.site, done)
	}
	if mutated && e.replActive(sn) {
		// The released copy is unrecoverable the moment the holder hears
		// KReleaseDone, so the confirmation waits for the record change
		// to be quorum-durable — otherwise an elected successor could
		// grant from a record still naming the departed holder.
		e.replAppend(sn, &replEntry{page: page, post: recordOf(p, e.env.Now())}, func() {
			if cur, ok := e.segs[seg]; !ok || cur != sn || sn.lib == nil {
				return
			}
			confirm()
		})
		return
	}
	confirm()
}

// libReclaim reinstalls a returned page at the library site.
func (e *Engine) libReclaim(sn *segNode, page int32, data []byte) {
	p := &sn.lib.pages[page]
	now := e.env.Now()
	if sn.m.Present(int(page)) {
		sn.m.Invalidate(int(page))
	}
	if data == nil {
		if e.rel == nil {
			panic(fmt.Sprintf("core: site %d: reclaim of page %d with no data", e.site, page))
		}
		// Every recorded copy is gone and nothing came home: the page
		// content is unrecoverable. Zero-fill rather than wedge the page
		// forever, and account for it honestly.
		e.stats.Lost++
		e.obs.Count(e.site, obs.CLost)
		data = make([]byte, sn.meta.PageSize)
	}
	e.emit(obs.Event{Type: obs.EvPageState, Seg: int32(sn.meta.ID), Page: page, Arg: 2})
	sn.m.Install(int(page), data, mmu.ReadWrite, now)
	a := sn.m.Aux(int(page))
	a.Writer = e.site
	a.Window = 0
	a.ReaderMask = mmu.Copyset{}
	p.writer = e.site
	p.readers = mmu.Copyset{}
	p.clock = e.site
	e.replAppendSet(sn, page)
}

// handleReleaseDone finalizes one page release at the departing site.
func (e *Engine) handleReleaseDone(sn *segNode, m *wire.Msg) {
	if sn.releasesPending == 0 {
		if e.rel == nil {
			panic(fmt.Sprintf("core: site %d: excess release-done: %v", e.site, m))
		}
		// Confirmation of a record-correction release (handleAlready),
		// not of a segment release. A fresh copy the subsequent request
		// earned may already be installed here (the clock's page send
		// travels a different circuit): leave it alone.
		return
	}
	p := int(m.Page)
	if sn.m.Present(p) {
		// The surrender was already traced when the release shipped
		// (ReleaseSegment); this just frees the frame.
		sn.m.Invalidate(p)
		a := sn.m.Aux(p)
		a.ReaderMask = mmu.Copyset{}
		a.Writer = mmu.NoWriter
	}
	sn.releasesPending--
	if sn.releasesPending == 0 {
		sn.setReleasing(false)
		// A re-attach may have queued faults while releasing.
		for page := range sn.waiters {
			e.wakeWaiters(sn, page)
		}
	}
}
