package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/wire"
)

// The library record (§6.0: "record which sites are storing a given
// page", distinguishing writers from readers), as it moves between
// sites. One type, one codec and one install path serve every way a
// site becomes the library:
//
//   - a voluntary migration (DESIGN.md §14) ships one record per page
//     as a compacted log head in KMigrate;
//   - the replicated log (DESIGN.md §15) carries records in KAppend
//     and KVote entries;
//   - the §11.2 holder rebuild builds records from merged holdings, and
//     the §15 election from the merged log with intents resolved.
//
// All of them end in installLibrary.

// libRecord is one page's record: the holders, plus the demand and
// tuning state (DESIGN.md §16) that keeps a rehomed library warm.
// lastReqAge is now − lastReq when the record was built: two sites'
// clocks are unrelated, so the last request crosses as an age and is
// re-based into the installer's clock domain by applyTo.
type libRecord struct {
	writer  int
	clock   int
	delta   time.Duration
	readers mmu.Copyset

	requests   int
	lastReqAge time.Duration
	gapEWMA    time.Duration
	denied     int
	denRemEWMA time.Duration
	flipEWMA   int
	lastWriter int
}

// recordOf snapshots a library page's record at time now.
func recordOf(p *libPage, now time.Duration) libRecord {
	r := libRecord{
		writer: p.writer, clock: p.clock, delta: p.delta, readers: p.readers,
		requests: p.requests, gapEWMA: p.gapEWMA,
		denied: p.denied, denRemEWMA: p.denRemEWMA,
		flipEWMA: p.flipEWMA, lastWriter: p.lastWriter,
	}
	if p.requests > 0 {
		r.lastReqAge = now - p.lastReq
	}
	return r
}

// blankRecord is a page no source accounts for: no holder, the segment
// default Δ, no demand history.
func blankRecord(sn *segNode) libRecord {
	return libRecord{writer: mmu.NoWriter, clock: -1, delta: sn.meta.Delta, lastWriter: mmu.NoWriter}
}

// applyTo writes the record into a fresh library page at time now. The
// controller's rate-limit state is deliberately left fresh: tuned=false
// restarts the cooldown at the first local grant without touching Δ.
func (r *libRecord) applyTo(p *libPage, now time.Duration) {
	p.writer, p.clock, p.delta, p.readers = r.writer, r.clock, r.delta, r.readers
	p.requests, p.gapEWMA = r.requests, r.gapEWMA
	if r.requests > 0 {
		p.lastReq = max(now-r.lastReqAge, 0)
	}
	p.denied, p.denRemEWMA, p.tuneDenied = r.denied, r.denRemEWMA, r.denied
	p.flipEWMA, p.lastWriter = r.flipEWMA, r.lastWriter
}

// Record wire form, self-delimiting:
//
//	writer i32 | clock i32 | delta i64 | requests u32 | last-request age i64 |
//	gap EWMA i64 | denied u32 | denial-remaining EWMA i64 | flip EWMA u16 |
//	last writer i32 | cs-len u16 | copyset wire
//
// The copyset reuses the dual inline/bitmap wire form of
// mmu.AppendWire. The two demand counters grow without bound at the
// library, so they saturate at the u32 maximum rather than wrap: the
// decoder must accept every record a library can produce, or a follower
// would drop a committed entry of a hot page.
const libRecordHeader = 4 + 4 + 8 + 4 + 8 + 8 + 4 + 8 + 2 + 4 + 2

func appendLibRecord(buf []byte, r *libRecord) []byte {
	var h [libRecordHeader]byte
	be := binary.BigEndian
	be.PutUint32(h[0:], uint32(int32(r.writer)))
	be.PutUint32(h[4:], uint32(int32(r.clock)))
	be.PutUint64(h[8:], uint64(r.delta))
	be.PutUint32(h[16:], sat32(r.requests))
	be.PutUint64(h[20:], uint64(r.lastReqAge))
	be.PutUint64(h[28:], uint64(r.gapEWMA))
	be.PutUint32(h[36:], sat32(r.denied))
	be.PutUint64(h[40:], uint64(r.denRemEWMA))
	be.PutUint16(h[48:], uint16(r.flipEWMA))
	be.PutUint32(h[50:], uint32(int32(r.lastWriter)))
	be.PutUint16(h[54:], uint16(r.readers.WireLen()))
	buf = append(buf, h[:]...)
	return r.readers.AppendWire(buf)
}

// sat32 is a non-negative counter as a u32, saturated.
func sat32(n int) uint32 {
	return uint32(min(uint64(n), math.MaxUint32))
}

// decodeLibRecord decodes one record from the head of data, returning
// the bytes consumed. Out-of-range fields are errors, never clamped:
// a record that cannot be trusted whole must not be installed in part.
func decodeLibRecord(data []byte) (libRecord, int, error) {
	if len(data) < libRecordHeader {
		return libRecord{}, 0, fmt.Errorf("record: truncated at %d bytes", len(data))
	}
	be := binary.BigEndian
	r := libRecord{
		writer:     int(int32(be.Uint32(data[0:]))),
		clock:      int(int32(be.Uint32(data[4:]))),
		delta:      time.Duration(be.Uint64(data[8:])),
		requests:   int(be.Uint32(data[16:])),
		lastReqAge: time.Duration(be.Uint64(data[20:])),
		gapEWMA:    time.Duration(be.Uint64(data[28:])),
		denied:     int(be.Uint32(data[36:])),
		denRemEWMA: time.Duration(be.Uint64(data[40:])),
		flipEWMA:   int(be.Uint16(data[48:])),
		lastWriter: int(int32(be.Uint32(data[50:]))),
	}
	switch {
	case r.writer < mmu.NoWriter || r.clock < mmu.NoWriter || r.lastWriter < mmu.NoWriter:
		return libRecord{}, 0, fmt.Errorf("record: bad site in writer %d clock %d last writer %d",
			r.writer, r.clock, r.lastWriter)
	case r.delta < 0 || r.lastReqAge < 0 || r.gapEWMA < 0 || r.denRemEWMA < 0:
		return libRecord{}, 0, fmt.Errorf("record: negative duration")
	case r.flipEWMA > flipScale:
		return libRecord{}, 0, fmt.Errorf("record: flip EWMA %d out of range", r.flipEWMA)
	}
	cs := int(be.Uint16(data[54:]))
	if cs > len(data)-libRecordHeader {
		return libRecord{}, 0, fmt.Errorf("record: copyset truncated: %d of %d bytes",
			len(data)-libRecordHeader, cs)
	}
	n := libRecordHeader + cs
	if cs > 0 {
		var err error
		if r.readers, err = mmu.DecodeCopysetWire(data[libRecordHeader:n]); err != nil {
			return libRecord{}, 0, err
		}
	}
	return r, n, nil
}

// logHead is the compacted log head of a library record: one set entry
// per page, index page+1. It seeds a new leader's log, and it is the
// KMigrate payload.
func logHead(lib *libSeg, now time.Duration) []*replEntry {
	ents := make([]*replEntry, len(lib.pages))
	for pg := range lib.pages {
		ents[pg] = &replEntry{index: uint32(pg + 1), page: int32(pg), post: recordOf(&lib.pages[pg], now)}
	}
	return ents
}

// decodeLogHead decodes a KMigrate payload: exactly one set entry for
// each of the segment's pages, in any order. Anything else is an error.
func decodeLogHead(data []byte, pages int) ([]libRecord, error) {
	recs := make([]libRecord, pages)
	seen := make([]bool, pages)
	got := 0
	for len(data) > 0 {
		ent, n, err := decodeReplEntry(data)
		if err != nil {
			return nil, err
		}
		data = data[n:]
		if ent.intent || ent.page < 0 || int(ent.page) >= pages || seen[ent.page] {
			return nil, fmt.Errorf("record: log head entry for page %d out of place", ent.page)
		}
		seen[ent.page] = true
		recs[ent.page] = ent.post
		got++
	}
	if got != pages {
		return nil, fmt.Errorf("record: log head covers %d of %d pages", got, pages)
	}
	return recs, nil
}

// installLibrary makes this site the segment's library under epoch,
// with one record per page. It is the one place a new record becomes
// sn.lib outside segment creation: it drops the old epoch's transient
// state, seeds the replication leader and bases its followers, then
// serves the requests a takeover buffered and wakes blocked faults.
func (e *Engine) installLibrary(sn *segNode, epoch uint32, recs []libRecord) {
	now := e.env.Now()
	lib := &libSeg{meta: sn.meta, pages: make([]libPage, len(recs))}
	for pg := range recs {
		recs[pg].applyTo(&lib.pages[pg], now)
	}
	var buffered []*wire.Msg
	if rc := sn.recov; rc != nil {
		if rc.cancel != nil {
			rc.cancel()
		}
		buffered = rc.buffered
		sn.recov = nil
	}
	sn.segEpoch, sn.curLib, sn.lib = epoch, e.site, lib
	e.purgeEpoch(sn)
	if e.replicationEnabled() {
		// The installed record IS the new epoch's log head, and the group
		// changes with the leader: base it eagerly.
		e.replSeedLeader(sn)
		e.replBaseFollowers(sn)
	}
	for _, m := range buffered {
		e.handleLibrary(sn, m)
	}
	for p := int32(0); p < int32(sn.m.Pages()); p++ {
		e.wakeWaiters(sn, p)
	}
}
