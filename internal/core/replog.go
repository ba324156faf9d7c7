package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// Consensus-replicated library records (DESIGN.md §15, docs/REPLICATION.md).
//
// Failover (DESIGN.md §11) rebuilds the library record after a crash by
// interrogating every surviving holder — a cluster-wide pause whose
// length grows with the site count. Replication (Failover.Replicas > 0)
// removes the pause: the library (leader) mirrors every page-record
// mutation to a small group of follower sites as log entries BEFORE the
// mutation's effects reach the rest of the cluster, so a successor
// already inside the group can install the record from its log tail
// instead of reconstructing it. The log term is the existing per-segment
// library epoch: a takeover bumps it exactly as failover does, and the
// same epoch fence that isolates a dead library's traffic isolates a
// dead leader's stream.
//
// Safety hinges on WHEN an entry is written relative to the mutation it
// describes. Grant cycles log a write-ahead *intent* (prior and post
// record) and hold the cycle's opening send until a quorum of the group
// acknowledged the intent: recording behind the mutation could elect a
// record that never heard of a granted writer (two writers — unsafe),
// while recording ahead only risks a *ghost* — a record naming holders
// the crash prevented from materializing — which every holder path
// already degrades around (a KInval at an absent page answers
// KGrantFail, a stale reader entry acks invalidation orders vacuously).
// Completed cycles, releases, reclaims and Δ retunes log a *set* entry
// carrying the committed record. Entries are full per-page snapshots,
// so both ends compact the log to the latest entry per page — no
// unbounded log, and a vote reply is at most one entry per page.

// replicationEnabled reports whether the replicated-record machinery is
// configured (Failover.Replicas > 0): the takeover that consumes the log
// is the failover election.
func (e *Engine) replicationEnabled() bool {
	return e.opt.Failover != nil && e.opt.Failover.Replicas > 0
}

// replFollowers returns the follower group for a segment led by
// leader: the Replicas sites after it in ID order.
func (e *Engine) replFollowers(leader int) []int {
	n := e.opt.Sites
	var out []int
	for i := 1; len(out) < e.opt.Failover.Replicas && i < n; i++ {
		out = append(out, (leader+i)%n)
	}
	return out
}

// replGroupHas reports whether s is in the follower group of a segment
// led by leader.
func (e *Engine) replGroupHas(leader, s int) bool {
	for _, f := range e.replFollowers(leader) {
		if f == s {
			return true
		}
	}
	return false
}

// replQuorum is the number of group members (leader counts itself)
// whose applied log must cover an intent before its cycle opens: a
// majority of the leader and its Replicas followers.
func (e *Engine) replQuorum() int {
	return (e.opt.Failover.Replicas+1)/2 + 1
}

// replVoteQuorum is the number of group logs (the winner's own
// included) an election must merge before installing: sized so any
// vote set intersects any commit set in at least one surviving
// follower.
func (e *Engine) replVoteQuorum() int {
	return e.opt.Failover.Replicas + 2 - e.replQuorum()
}

// replEntry is one log entry: a full page-record snapshot, so per-page
// latest-entry compaction loses nothing.
type replEntry struct {
	intent bool   // write-ahead intent (prior valid) vs committed set
	index  uint32 // position in the leader's log for this epoch
	page   int32
	post   libRecord // the record the mutation commits
	prior  libRecord // the record before the cycle (intents only)
}

// replSeg is a site's replication state for one segment: the compacted
// log (per-page latest entries) that doubles as the leader's own log
// view and a follower's ballot, plus — at the leader only — the group
// bookkeeping.
type replSeg struct {
	epoch     uint32 // log term: the SegEpoch the entries were written under
	lastIndex uint32 // highest index applied (cumulative-ack value)
	pages     map[int32]*replEntry
	lead      *replLead // non-nil while this site leads the group
	// needBase is set at a follower that failed to decode an entry: its
	// log has a gap, so it refuses every append but a re-base.
	needBase bool
}

// replLead is the leader's group bookkeeping.
type replLead struct {
	followers []int
	acked     map[int]uint32 // per-follower cumulative applied index
	dead      map[int]bool   // followers the channel gave up on
	based     map[int]bool   // followers holding this epoch's base snapshot
	gates     []*replGate
}

// replGate is one intent awaiting quorum; release opens the gated
// cycle (or lets a release confirmation go).
type replGate struct {
	index   uint32
	page    int32
	digest  uint32
	started time.Duration
	release func()
}

// replElect is an election winner's vote-merge state, carried on the
// recovery struct so the existing request buffering covers the whole
// takeover.
type replElect struct {
	bestEpoch uint32
	bestIndex uint32
	pages     map[int32]*replEntry
	waiting   map[int]bool // voters whose final chunk is still due
	votes     int          // complete ballots merged, the winner's own included
	need      int          // replVoteQuorum
	bufs      map[int]*voteBuf
}

// voteBuf accumulates one voter's chunked reply; it merges only when
// complete, so a truncated higher-epoch ballot can never replace the
// merge wholesale with a partial page set.
type voteBuf struct {
	epoch   uint32
	last    uint32
	entries []byte
}

func (e *Engine) newReplLead() *replLead {
	return &replLead{
		followers: e.replFollowers(e.site),
		acked:     make(map[int]uint32),
		dead:      make(map[int]bool),
		based:     make(map[int]bool),
	}
}

// replActive reports whether this site is currently gating mutations
// through a live replication group for the segment.
func (e *Engine) replActive(sn *segNode) bool {
	return e.replicationEnabled() && sn.repl != nil && sn.repl.lead != nil &&
		len(sn.repl.lead.followers) > 0
}

// replSeedLeader makes this site the segment's log leader for the
// current epoch: the log head of the just-installed record (indexes
// 1..P), so the epoch's log is complete from entry one and followers
// re-base from it.
func (e *Engine) replSeedLeader(sn *segNode) {
	rl := &replSeg{epoch: sn.segEpoch, pages: make(map[int32]*replEntry, len(sn.lib.pages))}
	for _, ent := range logHead(sn.lib, e.env.Now()) {
		rl.pages[ent.page] = ent
	}
	rl.lastIndex = uint32(len(sn.lib.pages))
	rl.lead = e.newReplLead()
	sn.repl = rl
}

// ---- Entry wire form ----
//
// Inside KAppend.Data (and after the 8-byte ballot header of a KVote
// reply) entries are self-delimiting and batchable:
//
//	kind u8 (1 intent, 2 set) | index u32 | page i32 | post record | [prior record]
//
// where a record is the libRecord wire form (record.go). A KMigrate
// payload is the same stream: the log head, one set entry per page.
// The 32-bit FNV-1a digest of an entry's encoded bytes
// is its identity in EvReplicate events; leader and follower compute
// it over the identical bytes, so the checker can pin log-prefix
// agreement without shipping the entries in the trace.
const (
	replKindIntent = 1
	replKindSet    = 2
	replEntryHdr   = 1 + 4 + 4
	replChunkBytes = 60000
)

func encodeReplEntry(buf []byte, ent *replEntry) []byte {
	kind := byte(replKindSet)
	if ent.intent {
		kind = replKindIntent
	}
	var h [replEntryHdr]byte
	h[0] = kind
	binary.BigEndian.PutUint32(h[1:], ent.index)
	binary.BigEndian.PutUint32(h[5:], uint32(ent.page))
	buf = append(buf, h[:]...)
	buf = appendLibRecord(buf, &ent.post)
	if ent.intent {
		buf = appendLibRecord(buf, &ent.prior)
	}
	return buf
}

// decodeReplEntry decodes one entry from the head of data, returning
// the bytes consumed (the digest input).
func decodeReplEntry(data []byte) (replEntry, int, error) {
	if len(data) < replEntryHdr {
		return replEntry{}, 0, fmt.Errorf("repl: entry truncated at %d bytes", len(data))
	}
	var ent replEntry
	switch data[0] {
	case replKindIntent:
		ent.intent = true
	case replKindSet:
	default:
		return replEntry{}, 0, fmt.Errorf("repl: unknown entry kind %d", data[0])
	}
	ent.index = binary.BigEndian.Uint32(data[1:])
	ent.page = int32(binary.BigEndian.Uint32(data[5:]))
	post, n, err := decodeLibRecord(data[replEntryHdr:])
	if err != nil {
		return replEntry{}, 0, err
	}
	ent.post, n = post, replEntryHdr+n
	if ent.intent {
		prior, c, err := decodeLibRecord(data[n:])
		if err != nil {
			return replEntry{}, 0, err
		}
		ent.prior, n = prior, n+c
	}
	return ent, n, nil
}

// sendEntries ships log entries in index order, chunked under the wire
// payload bound. Each chunk opens with hdr and goes out through send,
// which learns the index of the chunk's last entry and whether the
// chunk is the final one. At least one chunk is always sent.
func sendEntries(hdr []byte, ents []*replEntry, send func(data []byte, last uint32, final bool)) {
	sort.Slice(ents, func(i, j int) bool { return ents[i].index < ents[j].index })
	data := append([]byte(nil), hdr...)
	var last uint32
	for _, ent := range ents {
		if len(data) >= replChunkBytes {
			send(data, last, false)
			data = append([]byte(nil), hdr...)
		}
		data = encodeReplEntry(data, ent)
		last = ent.index
	}
	send(data, last, true)
}

// replDigest is the 32-bit FNV-1a digest of an entry's encoded bytes.
func replDigest(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// ---- Leader: appending and gating ----

// replAppend appends one entry to the leader's log and streams it to
// the live followers. A non-nil cont is gated on the group quorum
// acknowledging the entry (released immediately when the quorum is
// already unreachable — degraded, counted, and deliberately without a
// commit event so the checker's durability invariant stays one-sided).
// A nil cont is fire-and-forget: the entry replicates but nothing
// waits on it.
func (e *Engine) replAppend(sn *segNode, ent *replEntry, cont func()) {
	if !e.replActive(sn) {
		if cont != nil {
			cont()
		}
		return
	}
	rl, ld := sn.repl, sn.repl.lead
	rl.lastIndex++
	ent.index = rl.lastIndex
	rl.epoch = sn.segEpoch
	rl.pages[ent.page] = ent
	enc := encodeReplEntry(nil, ent)
	dig := replDigest(enc)
	e.stats.Appends++
	e.obs.Count(e.site, obs.CAppend)
	seg := int32(sn.meta.ID)
	for _, f := range ld.followers {
		if ld.dead[f] {
			continue
		}
		if !ld.based[f] {
			// First contact this epoch (or a re-based revival): ship the
			// whole compacted log — per-page latest entries, the new one
			// included — so the follower's ballot is complete.
			e.replSendLog(sn, f)
			ld.based[f] = true
			continue
		}
		e.send(f, &wire.Msg{Kind: wire.KAppend, Seg: seg, Page: ent.page, Cycle: ent.index, Data: enc})
	}
	if cont == nil {
		return
	}
	g := &replGate{index: ent.index, page: ent.page, digest: dig, started: e.env.Now(), release: cont}
	ld.gates = append(ld.gates, g)
	e.replRecomputeGates(sn)
}

// replSendLog ships the leader's whole compacted log to one follower
// in index order (the follower's applied-index stream must ascend),
// chunked under the wire payload bound.
func (e *Engine) replSendLog(sn *segNode, f int) {
	rl := sn.repl
	ents := make([]*replEntry, 0, len(rl.pages))
	for _, ent := range rl.pages {
		ents = append(ents, ent)
	}
	seg := int32(sn.meta.ID)
	sendEntries(nil, ents, func(data []byte, last uint32, _ bool) {
		e.send(f, &wire.Msg{Kind: wire.KAppend, Seg: seg, Page: -1, Cycle: last, Data: data})
	})
}

// replRecomputeGates re-evaluates every pending gate against the
// current ack state. A gate whose quorum arrived commits (EvReplicate
// with From == Site, the replication-lag sample, the counter); when
// the live group can no longer form a quorum at all, every gate is
// released degraded instead — blocking grants on acks that cannot come
// would trade durability for a livelock.
func (e *Engine) replRecomputeGates(sn *segNode) {
	ld := sn.repl.lead
	if ld == nil || len(ld.gates) == 0 {
		return
	}
	q := e.replQuorum()
	live := 1
	for _, f := range ld.followers {
		if !ld.dead[f] {
			live++
		}
	}
	degraded := live < q
	seg := int32(sn.meta.ID)
	var keep []*replGate
	for _, g := range ld.gates {
		n := 1 // the leader's own log always covers its gates
		for _, f := range ld.followers {
			if !ld.dead[f] && ld.acked[f] >= g.index {
				n++
			}
		}
		switch {
		case n >= q:
			e.stats.ReplCommits++
			e.obs.Count(e.site, obs.CReplCommit)
			e.obs.Observe(obs.HReplLag, int64(e.env.Now()-g.started))
			e.emit(obs.Event{Type: obs.EvReplicate, Seg: seg, Page: g.page,
				From: int32(e.site), Arg: int64(g.index), Cycle: g.digest})
			g.release()
		case degraded:
			e.stats.ReplDegraded++
			e.obs.Count(e.site, obs.CReplDegraded)
			g.release()
		default:
			keep = append(keep, g)
		}
	}
	ld.gates = keep
}

// replGateCycleOpen logs a grant cycle's write-ahead intent — the
// record before the page's open cycle and the one it commits — and
// defers the cycle's opening send to the quorum commit. Without an
// active group it sends at once and builds no record. The continuation
// re-checks the cycle (by number) before sending: an epoch change or
// abort in the gap must not fire a dead cycle's invalidation.
func (e *Engine) replGateCycleOpen(sn *segNode, page int32, to int, open *wire.Msg) {
	if !e.replActive(sn) {
		e.send(to, open)
		return
	}
	seg := int32(sn.meta.ID)
	p := &sn.lib.pages[page]
	cyc := p.cycle
	prior := recordOf(p, e.env.Now())
	post := prior
	post.writer, post.clock, post.readers = p.grant.outcome(p)
	e.replAppend(sn, &replEntry{intent: true, page: page, post: post, prior: prior}, func() {
		cur, ok := e.segs[seg]
		if !ok || cur != sn || sn.lib == nil {
			return
		}
		p := &sn.lib.pages[page]
		if !p.busy || !p.grant.active || p.cycle != cyc {
			return
		}
		e.send(to, open)
	})
}

// replAppendSet logs a page's committed record fire-and-forget.
func (e *Engine) replAppendSet(sn *segNode, page int32) {
	if !e.replActive(sn) {
		return
	}
	e.replAppend(sn, &replEntry{page: page, post: recordOf(&sn.lib.pages[page], e.env.Now())}, nil)
}

// ---- Follower: applying the stream ----

// handleAppend applies a batch of log entries at a follower and
// acknowledges its cumulative applied index. The generic epoch fence
// already matched the message to this site's epoch; a stream from a
// newer term than the local log resets it (the leader re-bases every
// epoch with a full snapshot, so nothing carried over is needed). An
// entry that fails to decode leaves a gap no cumulative ack may cover:
// the follower refuses (Page -2), so the leader benches it and later
// re-bases it, and it refuses every append but a re-base (Page -1)
// until then.
func (e *Engine) handleAppend(sn *segNode, m *wire.Msg) {
	if !e.replicationEnabled() {
		e.stats.Dropped++
		return
	}
	if mutateReplAckWithoutApply {
		// MUTATION BUILD: acknowledge the append without applying it —
		// the lie the acked-append-lost invariant exists to catch.
		e.send(int(m.From), &wire.Msg{Kind: wire.KAppendAck, Seg: m.Seg, Page: m.Page, Cycle: m.Cycle})
		return
	}
	rl := sn.repl
	if rl == nil {
		rl = &replSeg{pages: make(map[int32]*replEntry)}
		sn.repl = rl
	}
	if m.SegEpoch > rl.epoch {
		rl.epoch = m.SegEpoch
		rl.lastIndex = 0
		rl.pages = make(map[int32]*replEntry)
	}
	refuse := func() {
		rl.needBase = true
		e.send(int(m.From), &wire.Msg{Kind: wire.KAppendAck, Seg: m.Seg, Page: -2})
	}
	if m.Page == -1 {
		rl.needBase = false
	} else if rl.needBase {
		refuse()
		return
	}
	data := m.Data
	for len(data) > 0 {
		ent, n, err := decodeReplEntry(data)
		if err != nil {
			e.markStale()
			refuse()
			return
		}
		dig := replDigest(data[:n])
		data = data[n:]
		cur := rl.pages[ent.page]
		if cur != nil && ent.index <= cur.index {
			continue // a re-based snapshot re-sent an entry already held
		}
		entCopy := ent
		rl.pages[ent.page] = &entCopy
		if ent.index > rl.lastIndex {
			rl.lastIndex = ent.index
		}
		e.emit(obs.Event{Type: obs.EvReplicate, Seg: m.Seg, Page: ent.page,
			From: m.From, Arg: int64(ent.index), Cycle: dig})
	}
	e.send(int(m.From), &wire.Msg{Kind: wire.KAppendAck, Seg: m.Seg, Page: m.Page, Cycle: rl.lastIndex})
}

// handleAppendAck runs at the leader: a cumulative-ack advance
// re-evaluates the gates, a refusal (Page -2: the peer holds no state
// for the segment) benches the follower with a timed retry, and any
// current-epoch ack from a benched follower revives it (with a re-base,
// since it missed entries while benched). Stale-epoch acks never get
// here — the generic fence drops them — so the ack counting only ever
// sees appliers of the current term.
func (e *Engine) handleAppendAck(sn *segNode, m *wire.Msg) {
	rl := sn.repl
	if rl == nil || rl.lead == nil {
		e.markStale()
		return
	}
	ld := rl.lead
	f := int(m.From)
	member := false
	for _, s := range ld.followers {
		if s == f {
			member = true
			break
		}
	}
	if !member {
		e.markStale()
		return
	}
	if m.Page == -2 {
		ld.dead[f] = true
		ld.based[f] = false
		e.replArmRevival(sn, f)
		e.replRecomputeGates(sn)
		return
	}
	if m.Cycle > ld.acked[f] {
		ld.acked[f] = m.Cycle
	}
	if ld.dead[f] {
		ld.dead[f] = false
		ld.based[f] = false
	}
	e.replRecomputeGates(sn)
}

// replArmRevival schedules one retry for a benched follower: after the
// recovery timeout the next append re-bases it. A follower that is
// really gone just benches again — bounded, periodic, and deterministic
// in simulation.
func (e *Engine) replArmRevival(sn *segNode, f int) {
	seg := int32(sn.meta.ID)
	epoch := sn.segEpoch
	e.env.After(e.opt.Failover.recoverTimeout(), func() {
		cur, ok := e.segs[seg]
		if !ok || cur != sn || sn.segEpoch != epoch || sn.repl == nil || sn.repl.lead == nil {
			return
		}
		sn.repl.lead.dead[f] = false
		sn.repl.lead.based[f] = false
	})
}

// replFollowerFailed benches a follower whose append channel gave up
// and re-evaluates the gates (the quorum may have shrunk past reach).
func (e *Engine) replFollowerFailed(sn *segNode, f int) {
	rl := sn.repl
	if rl == nil || rl.lead == nil {
		e.stats.Dropped++
		return
	}
	rl.lead.dead[f] = true
	rl.lead.based[f] = false
	e.replArmRevival(sn, f)
	e.replRecomputeGates(sn)
}

// ---- Election: takeover from the log ----

// beginElection starts the replicated branch of a takeover at the
// nominated successor (beginRecovery already bumped the epoch, claimed
// the role and forgot the dead library's requests): solicit the group's
// log tails, merge a vote quorum, and install from the merged log —
// no cluster-wide holdings interrogation. Vote timeout or an
// unreachable quorum falls back to the legacy rebuild under the
// already-bumped epoch.
func (e *Engine) beginElection(sn *segNode, rc *recovery) {
	seg := int32(sn.meta.ID)
	el := &replElect{
		pages:   make(map[int32]*replEntry),
		waiting: make(map[int]bool),
		votes:   1,
		need:    e.replVoteQuorum(),
		bufs:    make(map[int]*voteBuf),
	}
	if rl := sn.repl; rl != nil {
		el.bestEpoch = rl.epoch
		el.bestIndex = rl.lastIndex
		for pg, ent := range rl.pages {
			el.pages[pg] = ent
		}
	}
	rc.elect = el
	var ballot [8]byte
	binary.BigEndian.PutUint32(ballot[0:], el.bestEpoch)
	binary.BigEndian.PutUint32(ballot[4:], el.bestIndex)
	group := append([]int{rc.from}, e.replFollowers(rc.from)...)
	for _, s := range group {
		if s == e.site || s == rc.from {
			continue
		}
		el.waiting[s] = true
		e.send(s, &wire.Msg{Kind: wire.KVote, Seg: seg, Page: -1,
			Req: int32(e.site), Data: append([]byte(nil), ballot[:]...)})
	}
	if el.votes >= el.need || len(el.waiting) == 0 {
		e.settleElection(sn)
		return
	}
	rc.cancel = e.env.After(e.opt.Failover.recoverTimeout(), func() {
		if cur, ok := e.segs[seg]; !ok || cur != sn || sn.recov != rc {
			return
		}
		e.electionFallback(sn)
	})
}

// handleVote serves both directions of the election exchange. A
// solicitation (From == Req, another site) is answered with this
// site's ballot: log epoch, applied index, and the per-page latest
// entries the solicitor's own log cannot already hold, chunked with
// Upgrade marking the final chunk. A reply (Req == this site) is
// buffered per voter and merged when complete.
func (e *Engine) handleVote(sn *segNode, m *wire.Msg) {
	if !e.replicationEnabled() {
		e.stats.Dropped++
		return
	}
	from := int(m.From)
	switch {
	case int(m.Req) == from && from != e.site:
		e.sendVoteReply(sn, from, m.Data)
	case int(m.Req) == e.site && from != e.site:
		rc := sn.recov
		if rc == nil || rc.elect == nil || !rc.elect.waiting[from] {
			e.markStale()
			return
		}
		el := rc.elect
		if len(m.Data) < 8 {
			e.markStale()
			return
		}
		b := el.bufs[from]
		if b == nil {
			b = &voteBuf{
				epoch: binary.BigEndian.Uint32(m.Data[0:]),
				last:  binary.BigEndian.Uint32(m.Data[4:]),
			}
			el.bufs[from] = b
		}
		b.entries = append(b.entries, m.Data[8:]...)
		if !m.Upgrade {
			return
		}
		delete(el.bufs, from)
		delete(el.waiting, from)
		el.merge(b)
		el.votes++
		if el.votes >= el.need || len(el.waiting) == 0 {
			e.settleElection(sn)
		}
	default:
		e.markStale()
	}
}

// merge folds one complete ballot into the election state: a higher
// log epoch wins wholesale, an equal one merges per page by index, a
// lower one contributes nothing but still counts as a vote.
func (el *replElect) merge(b *voteBuf) {
	if b.epoch < el.bestEpoch {
		return
	}
	if b.epoch > el.bestEpoch {
		el.bestEpoch = b.epoch
		el.bestIndex = 0
		el.pages = make(map[int32]*replEntry)
	}
	if b.last > el.bestIndex {
		el.bestIndex = b.last
	}
	data := b.entries
	for len(data) > 0 {
		ent, n, err := decodeReplEntry(data)
		if err != nil {
			return
		}
		data = data[n:]
		cur := el.pages[ent.page]
		if cur == nil || ent.index > cur.index {
			entCopy := ent
			el.pages[ent.page] = &entCopy
		}
	}
}

// sendVoteReply ships this site's ballot to an election winner. The
// solicitation carries the winner's own (epoch, index) so a same-epoch
// reply can skip entries the winner's log already covers.
func (e *Engine) sendVoteReply(sn *segNode, to int, ballot []byte) {
	var solEpoch, solIdx uint32
	if len(ballot) >= 8 {
		solEpoch = binary.BigEndian.Uint32(ballot[0:])
		solIdx = binary.BigEndian.Uint32(ballot[4:])
	}
	rl := sn.repl
	var hdr [8]byte
	var ents []*replEntry
	if rl != nil {
		binary.BigEndian.PutUint32(hdr[0:], rl.epoch)
		binary.BigEndian.PutUint32(hdr[4:], rl.lastIndex)
		// A ballot older than the solicitor's is epoch+index alone: its
		// entries cannot beat anything the winner already merged.
		if rl.epoch >= solEpoch {
			for _, ent := range rl.pages {
				if rl.epoch == solEpoch && ent.index <= solIdx {
					continue
				}
				ents = append(ents, ent)
			}
		}
	}
	seg := int32(sn.meta.ID)
	sendEntries(hdr[:], ents, func(data []byte, _ uint32, final bool) {
		e.send(to, &wire.Msg{Kind: wire.KVote, Seg: seg, Page: -1,
			Req: int32(to), Upgrade: final, Data: data})
	})
}

// voteSolicitFailed reacts to an undeliverable solicitation: the voter
// is gone; if no awaited ballot remains and the quorum is short, the
// election cannot complete and the legacy rebuild takes over.
func (e *Engine) voteSolicitFailed(sn *segNode, to int) {
	rc := sn.recov
	if rc == nil || rc.elect == nil || !rc.elect.waiting[to] {
		e.stats.Dropped++
		return
	}
	el := rc.elect
	delete(el.waiting, to)
	delete(el.bufs, to)
	if el.votes >= el.need {
		e.settleElection(sn)
		return
	}
	if len(el.waiting) == 0 {
		e.electionFallback(sn)
	}
}

// electionFallback abandons the vote and reconstructs the record the
// legacy way (holder interrogation) under the already-bumped epoch:
// quorum lost means the log's completeness can no longer be proven, and
// an unprovable log is worth less than the holders' own word.
func (e *Engine) electionFallback(sn *segNode) {
	rc := sn.recov
	if rc == nil || rc.elect == nil {
		return
	}
	if rc.cancel != nil {
		rc.cancel()
		rc.cancel = nil
	}
	rc.elect = nil
	e.mergeHoldings(rc, e.site, e.localHoldings(sn))
	e.queryHoldings(sn, rc)
}

// settleElection runs once the vote quorum is merged. Pages whose
// latest entry is a still-in-flight intent are ambiguous — the crash
// may have landed before, during, or after the cycle the intent
// announced — so the involved sites (old writer, new writer, clock)
// are probed with the ordinary holdings query; everything else
// installs straight from the log. The probe doubles as the epoch
// notice: it forces adoptEpoch at the target, which rolls back the
// target's pending invalidation state before it reports.
func (e *Engine) settleElection(sn *segNode) {
	rc := sn.recov
	if rc == nil || rc.elect == nil {
		return
	}
	if rc.cancel != nil {
		rc.cancel()
		rc.cancel = nil
	}
	el := rc.elect
	el.waiting = nil
	// This site's own holdings resolve intents it was itself involved in
	// (it is never probed): e.g. an upgrade intent whose new writer is
	// the electing site — whether it took effect is written in the local
	// MMU, not in anyone else's report.
	e.mergeHoldings(rc, e.site, e.localHoldings(sn))
	targets := make(map[int]bool)
	for _, ent := range el.pages {
		if !ent.intent {
			continue
		}
		for _, s := range []int{ent.post.writer, ent.post.clock, ent.prior.clock, ent.prior.writer} {
			if s >= 0 && s != e.site && s != rc.from {
				targets[s] = true
			}
		}
	}
	if len(targets) == 0 {
		e.finishRecovery(sn)
		return
	}
	seg := int32(sn.meta.ID)
	order := make([]int, 0, len(targets))
	for s := range targets {
		order = append(order, s)
	}
	sort.Ints(order)
	for _, s := range order {
		rc.waiting[s] = true
		e.send(s, &wire.Msg{Kind: wire.KRecover, Seg: seg, Page: -1, Req: int32(e.site)})
	}
	rc.cancel = e.env.After(e.opt.Failover.recoverTimeout(), func() {
		if cur, ok := e.segs[seg]; !ok || cur != sn || sn.recov != rc {
			return
		}
		e.finishRecovery(sn)
	})
}

// resolveIntent picks the record for a page whose log tail is an
// in-flight intent, from the probed holdings of the involved sites.
// A write (or upgrade) took effect only if its new writer actually
// holds the writable copy; a downgrade failed only if the old writer
// still holds it; a pure reader extension is always safe to adopt —
// a listed reader without a copy just acks its invalidations vacuously.
func resolveIntent(rc *recovery, ent *replEntry) libRecord {
	rp := rc.got[ent.page]
	switch {
	case ent.post.writer != mmu.NoWriter:
		if rp != nil && rp.writer == ent.post.writer {
			return ent.post
		}
		return ent.prior
	case ent.prior.writer != mmu.NoWriter:
		if rp != nil && rp.writer == ent.prior.writer {
			return ent.prior
		}
		return ent.post
	default:
		return ent.post
	}
}

// replBaseFollowers eagerly re-bases the new leader's follower group
// with the epoch's seed log. installLibrary uses it: an existing
// segment's group members have had the chance to attach. Initial
// segment creation bases lazily on first append instead, so a follower
// that has not attached yet is not benched before it ever joined.
func (e *Engine) replBaseFollowers(sn *segNode) {
	if !e.replActive(sn) {
		return
	}
	ld := sn.repl.lead
	for _, f := range ld.followers {
		if ld.dead[f] {
			continue
		}
		e.replSendLog(sn, f)
		ld.based[f] = true
	}
}
