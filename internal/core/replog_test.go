package core

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
	"mirage/internal/wire"
)

// replOptions enables the full replication stack with short timers so
// the sim-driven tests cross the give-up and recovery horizons quickly.
func replOptions(o *obs.Obs, replicas int) Options {
	return Options{
		Reliability: &Reliability{
			AckTimeout: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
			MaxAttempts: 5, RequestTimeout: 10 * time.Second,
		},
		Failover: &Failover{Replicas: replicas, RecoverTimeout: 500 * time.Millisecond},
		Obs:      o,
	}
}

// crash marks a site dead: every message to or from it is dropped, so
// its peers' reliable channels give up on it.
func (n *testNet) crash(site int) { n.down[site] = true }

// codecCases are log entries across both copyset encodings (the sparse
// member list and the dense bitmap), both entry kinds, and records with
// and without demand history.
func codecCases() []replEntry {
	sparse := mmu.CopysetOf(1).Add(5).Add(63)
	dense := mmu.Copyset{}
	for s := 0; s < 40; s++ {
		dense = dense.Add(s)
	}
	warm := libRecord{writer: 3, clock: 3, delta: 20 * time.Millisecond,
		requests: 41, lastReqAge: 3 * time.Millisecond, gapEWMA: time.Millisecond,
		denied: 7, denRemEWMA: 2 * time.Millisecond, flipEWMA: flipScale, lastWriter: 2}
	// A hot page past 2^31 requests and denials: the counters use the
	// full u32 range, so the leader's record still decodes.
	hot := libRecord{writer: mmu.NoWriter, clock: 1, requests: 1 << 31, lastReqAge: time.Microsecond,
		gapEWMA: 8 * time.Microsecond, denied: 1<<32 - 1, lastWriter: 0}
	return []replEntry{
		{index: 1, page: 0, post: warm},
		{index: 3, page: 4, post: hot},
		{index: 7, page: 2, post: libRecord{writer: mmu.NoWriter, clock: 1, readers: sparse, lastWriter: mmu.NoWriter}},
		{index: 9, page: 5, post: libRecord{writer: mmu.NoWriter, clock: 0, readers: dense,
			delta: time.Second, lastWriter: mmu.NoWriter}},
		{intent: true, index: 12, page: 1,
			post:  libRecord{writer: 2, clock: 2, delta: 5 * time.Millisecond, requests: 3, lastWriter: 2},
			prior: libRecord{writer: mmu.NoWriter, clock: 4, readers: sparse, requests: 3, lastWriter: 4}},
		{intent: true, index: 13, page: 3,
			post:  libRecord{writer: mmu.NoWriter, clock: 6, readers: dense, lastWriter: 6},
			prior: libRecord{writer: 6, clock: 6, lastWriter: 6}},
	}
}

// corruptCase is the intent entry TestReplEntryCodecRejectsCorrupt
// truncates and corrupts.
func corruptCase() replEntry {
	return replEntry{intent: true, index: 4, page: 1,
		post:  libRecord{writer: 2, clock: 2, delta: time.Millisecond, lastWriter: mmu.NoWriter},
		prior: libRecord{writer: mmu.NoWriter, clock: 3, readers: mmu.CopysetOf(3).Add(4), lastWriter: mmu.NoWriter}}
}

// sameRecord compares two records field by field (copysets by members).
func sameRecord(a, b libRecord) bool {
	return a.readers.Equal(b.readers) && a.writer == b.writer && a.clock == b.clock &&
		a.delta == b.delta && a.requests == b.requests && a.lastReqAge == b.lastReqAge &&
		a.gapEWMA == b.gapEWMA && a.denied == b.denied && a.denRemEWMA == b.denRemEWMA &&
		a.flipEWMA == b.flipEWMA && a.lastWriter == b.lastWriter
}

// TestReplEntryCodecRoundTrip round-trips entries through the wire form
// across both copyset encodings (the sparse member list and the dense
// bitmap) and both entry kinds.
func TestReplEntryCodecRoundTrip(t *testing.T) {
	cases := codecCases()
	var buf []byte
	for i := range cases {
		buf = encodeReplEntry(buf, &cases[i])
	}
	for i := range cases {
		ent, n, err := decodeReplEntry(buf)
		if err != nil {
			t.Fatalf("entry %d: decode: %v", i, err)
		}
		want := cases[i]
		if ent.intent != want.intent || ent.index != want.index || ent.page != want.page {
			t.Fatalf("entry %d: header %+v, want %+v", i, ent, want)
		}
		for _, pair := range []struct{ got, want libRecord }{{ent.post, want.post}, {ent.prior, want.prior}} {
			if !sameRecord(pair.got, pair.want) {
				t.Fatalf("entry %d: record %+v, want %+v", i, pair.got, pair.want)
			}
		}
		if !want.intent && ent.prior.readers.Count() != 0 {
			t.Fatalf("entry %d: set entry decoded a prior record", i)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes after all entries", len(buf))
	}
}

// TestLibRecordSaturatesCounters: demand counters beyond the u32 range
// cross as the u32 maximum instead of wrapping into a value the decoder
// refuses.
func TestLibRecordSaturatesCounters(t *testing.T) {
	r := libRecord{writer: 2, clock: 2, requests: math.MaxInt, denied: math.MaxInt, lastWriter: 2}
	got, n, err := decodeLibRecord(appendLibRecord(nil, &r))
	if err != nil || n != libRecordHeader {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if want := min(math.MaxInt, math.MaxUint32); got.requests != want || got.denied != want {
		t.Fatalf("requests %d denied %d, want both %d", got.requests, got.denied, want)
	}
}

// TestReplEntryCodecRejectsCorrupt feeds truncations and corruptions of
// a valid entry to the decoder; none may round-trip silently.
func TestReplEntryCodecRejectsCorrupt(t *testing.T) {
	ent := corruptCase()
	good := encodeReplEntry(nil, &ent)
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := decodeReplEntry(good[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", cut, len(good))
		}
	}
	bad := append([]byte(nil), good...)
	bad[0] = 99 // unknown kind
	if _, _, err := decodeReplEntry(bad); err == nil {
		t.Fatal("unknown entry kind decoded")
	}
}

// truncatedOffer is a 4-page KMigrate payload, site 2 writing page 3,
// with its last 10 bytes cut.
func truncatedOffer() []byte {
	lib := &libSeg{pages: make([]libPage, 4)}
	for pg := range lib.pages {
		lib.pages[pg] = libPage{writer: mmu.NoWriter, readers: mmu.CopysetOf(0), lastWriter: mmu.NoWriter}
	}
	lib.pages[3] = libPage{writer: 2, clock: 2, lastWriter: 2, requests: 5, lastReq: time.Second}
	var data []byte
	for _, ent := range logHead(lib, 2*time.Second) {
		data = encodeReplEntry(data, ent)
	}
	return data[:len(data)-10]
}

// FuzzLibRecord feeds arbitrary bytes to the one record codec. Whatever
// decodes as a log entry must re-encode to bytes that decode to the same
// entry and re-encode identically; the KMigrate log-head decoder must
// never panic, and must refuse anything that is not a whole head.
func FuzzLibRecord(f *testing.F) {
	cases := append(codecCases(), corruptCase())
	for i := range cases {
		f.Add(encodeReplEntry(nil, &cases[i]))
	}
	good := encodeReplEntry(nil, &cases[len(cases)-1])
	f.Add(good[:len(good)/2])
	bad := append([]byte(nil), good...)
	bad[0] = 99
	f.Add(bad)
	f.Add(truncatedOffer())
	f.Fuzz(func(t *testing.T, data []byte) {
		if recs, err := decodeLogHead(data, 4); err == nil && len(recs) != 4 {
			t.Fatalf("log head decoded %d records for 4 pages", len(recs))
		}
		ent, n, err := decodeReplEntry(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc := encodeReplEntry(nil, &ent)
		again, n2, err := decodeReplEntry(enc)
		if err != nil || n2 != len(enc) {
			t.Fatalf("re-encoded entry: n=%d of %d, err=%v", n2, len(enc), err)
		}
		if again.intent != ent.intent || again.index != ent.index || again.page != ent.page ||
			!sameRecord(again.post, ent.post) || !sameRecord(again.prior, ent.prior) {
			t.Fatalf("round trip changed the entry: %+v -> %+v", ent, again)
		}
		if !bytes.Equal(encodeReplEntry(nil, &again), enc) {
			t.Fatal("re-encoding is not stable")
		}
	})
}

// TestReplQuorumGatesMutations: with two followers, every record
// mutation must append to the log and commit at quorum before the world
// sees its effects.
func TestReplQuorumGatesMutations(t *testing.T) {
	o := obs.New()
	n := newTestNet(t, 3, replOptions(o, 2))
	n.newSeg(2, 0)

	n.acquire(1, 1, 0, true)
	n.acquire(2, 1, 0, false)
	n.acquire(2, 1, 1, true)
	n.settle()

	lib := n.engines[0]
	st := lib.Stats()
	if st.Appends == 0 {
		t.Fatal("no log appends at the leader")
	}
	if st.ReplCommits == 0 {
		t.Fatal("no quorum commits at the leader")
	}
	if st.ReplDegraded != 0 {
		t.Fatalf("ReplDegraded = %d with the whole group alive", st.ReplDegraded)
	}
	// Followers mirror the record: their compacted log's latest entries
	// must agree with the leader's authoritative record.
	for _, f := range []int{1, 2} {
		rl := n.engines[f].segs[1].repl
		if rl == nil {
			t.Fatalf("site %d holds no replica log", f)
		}
		for pg := int32(0); pg < 2; pg++ {
			ent := rl.pages[pg]
			if ent == nil {
				t.Fatalf("site %d: no log entry for page %d", f, pg)
			}
			want := lib.LibraryState(1, pg)
			if ent.post.writer != want.Writer || !ent.post.readers.Equal(want.Readers) {
				t.Errorf("site %d page %d: replica writer=%d readers=%v, record %d/%v",
					f, pg, ent.post.writer, ent.post.readers, want.Writer, want.Readers)
			}
		}
	}
	// Leader commits and follower applies both appear in the trace.
	var leaderCommits, followerApplies int
	for _, ev := range o.Buffer().Events() {
		if ev.Type != obs.EvReplicate {
			continue
		}
		if ev.Site == int32(ev.From) {
			leaderCommits++
		} else {
			followerApplies++
		}
	}
	if leaderCommits == 0 || followerApplies == 0 {
		t.Fatalf("trace: %d leader commits, %d follower applies; want both > 0",
			leaderCommits, followerApplies)
	}
}

// TestReplAppendDecodeErrorRefuses: a follower that cannot decode the
// second entry of a multi-entry KAppend (its first re-base) must not ack
// past the gap. It refuses, the leader benches it, and once the leader
// re-bases it the follower's log matches the leader's again.
func TestReplAppendDecodeErrorRefuses(t *testing.T) {
	n := newTestNet(t, 3, replOptions(nil, 2))
	n.newSeg(4, 0)

	var gap uint32
	corrupted, rebased := false, false
	n.mangle = func(from, to int, m *wire.Msg) {
		switch {
		case m.Kind == wire.KAppend && to == 1 && m.Page == -1 && !corrupted:
			_, k, err := decodeReplEntry(m.Data)
			if err != nil || k == len(m.Data) {
				t.Fatalf("first re-base is not a multi-entry append (err %v)", err)
			}
			second, _, err := decodeReplEntry(m.Data[k:])
			if err != nil {
				t.Fatal(err)
			}
			gap = second.index
			m.Data[k] = 0xff // an unknown entry kind
			corrupted = true
		case m.Kind == wire.KAppend && to == 1 && m.Page == -1:
			rebased = true
		case m.Kind == wire.KAppendAck && from == 1 && corrupted && !rebased &&
			m.Page != -2 && m.Cycle >= gap:
			t.Errorf("follower acked index %d past the undecodable entry %d", m.Cycle, gap)
		}
	}
	for pg := int32(0); pg < 4; pg++ {
		n.acquire(2, 1, pg, true)
	}
	n.settle()
	if !corrupted {
		t.Fatal("no re-base reached site 1")
	}
	// Past the revival timeout the next mutation re-bases the follower.
	n.acquire(1, 1, 0, true)
	n.settle()
	if !rebased {
		t.Fatal("the leader never re-based the refusing follower")
	}
	lead, fol := n.engines[0].segs[1].repl, n.engines[1].segs[1].repl
	if fol.needBase {
		t.Fatal("follower still refuses after the re-base")
	}
	for pg := int32(0); pg < 4; pg++ {
		want, got := lead.pages[pg], fol.pages[pg]
		if got == nil || got.index != want.index || !sameRecord(got.post, want.post) {
			t.Errorf("page %d: follower entry %+v, leader %+v", pg, got, want)
		}
	}
	if acked := lead.lead.acked[1]; acked != lead.lastIndex {
		t.Errorf("follower acked %d, leader log ends at %d", acked, lead.lastIndex)
	}
}

// TestReplElectionInstallsFromLog: after the leader crashes, the
// nominated follower installs the record from its replicated log (an
// election, not a holder rebuild) and the record survives exactly.
func TestReplElectionInstallsFromLog(t *testing.T) {
	o := obs.New()
	n := newTestNet(t, 3, replOptions(o, 2))
	n.newSeg(2, 0)

	n.acquire(1, 1, 0, true) // site 1 becomes page 0's writer
	n.acquire(2, 1, 1, false)
	n.settle()

	n.crash(0)
	n.acquire(2, 1, 0, false) // forces a request → give-up → takeover
	n.settle()

	succ := n.engines[1]
	st := succ.Stats()
	if st.Elections != 1 {
		t.Fatalf("successor Elections = %d, want 1", st.Elections)
	}
	if st.Recoveries != 1 {
		t.Fatalf("successor Recoveries = %d, want 1", st.Recoveries)
	}
	ls := succ.LibraryState(1, 0)
	if ls.Writer != mmu.NoWriter || !ls.Readers.Has(2) {
		t.Errorf("page 0 after takeover: writer=%d readers=%v, want read copy at site 2",
			ls.Writer, ls.Readers)
	}
	ls1 := succ.LibraryState(1, 1)
	if !ls1.Readers.Has(2) {
		t.Errorf("page 1 after takeover lost reader 2: %+v", ls1)
	}
	var elects int
	for _, ev := range o.Buffer().Events() {
		if ev.Type == obs.EvElect {
			elects++
			if ev.Site != 1 || ev.From != 0 {
				t.Errorf("EvElect site=%d from=%d, want 1/0", ev.Site, ev.From)
			}
		}
	}
	if elects != 1 {
		t.Fatalf("trace has %d EvElect events, want 1", elects)
	}
	if got := o.Metrics.Total(obs.CElect); got != 1 {
		t.Errorf("elections counter = %d, want 1", got)
	}
}

// TestReplElectionFallback: when the vote quorum is unreachable the
// takeover must fall back to the legacy holder rebuild — a recovery
// without an election.
func TestReplElectionFallback(t *testing.T) {
	n := newTestNet(t, 3, replOptions(nil, 2))
	n.newSeg(2, 0)

	n.acquire(1, 1, 0, false) // survivor holds a read copy of page 0
	n.settle()

	n.crash(0)
	n.crash(2) // the only other voter dies with the leader
	// The write upgrade must reach the library: give-up nominates site 1,
	// whose election cannot reach a quorum and falls back to the rebuild.
	n.acquire(1, 1, 0, true)
	n.settle()

	st := n.engines[1].Stats()
	if st.Elections != 0 {
		t.Fatalf("Elections = %d after quorum loss, want 0 (fallback)", st.Elections)
	}
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", st.Recoveries)
	}
	// The rebuilt record granted the upgrade: site 1 writes page 0.
	if ls := n.engines[1].LibraryState(1, 0); ls.Writer != 1 {
		t.Errorf("page 0 writer = %d after fallback rebuild, want 1", ls.Writer)
	}
}

// TestReplDegradedReleasesGates: when the live group cannot form a
// quorum, gated mutations must release degraded instead of wedging the
// grant path.
func TestReplDegradedReleasesGates(t *testing.T) {
	n := newTestNet(t, 4, replOptions(nil, 3))
	n.newSeg(1, 0)

	n.acquire(1, 1, 0, true)
	n.settle()
	n.crash(2)
	n.crash(3)

	// Quorum is 3 of {0,1,2,3}; only the leader and follower 1 survive.
	n.acquire(0, 1, 0, true)
	n.settle()

	st := n.engines[0].Stats()
	if st.ReplDegraded == 0 {
		t.Fatal("no degraded gate releases with the quorum unreachable")
	}
	if ls := n.engines[0].LibraryState(1, 0); ls.Writer != 0 {
		t.Errorf("page 0 writer = %d, want 0 (grant must proceed degraded)", ls.Writer)
	}
}

// TestReplConcurrentClusters runs the append-storm and crash-election
// scenarios in parallel goroutines, each on a private cluster. The
// engines are actor-serialized; this catches any package-level state
// the replication layer would share across engines under -race.
func TestReplConcurrentClusters(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := newTestNet(t, 3, replOptions(nil, 2))
			n.newSeg(2, 0)
			for i := 0; i < 4; i++ {
				n.acquire(1, 1, 0, true)
				n.acquire(2, 1, 0, false)
				n.acquire(2, 1, 1, true)
			}
			n.settle()
			if g%2 == 0 { // half the clusters also crash their leader
				n.crash(0)
				// Site 1 was invalidated off page 1 by site 2's write, so
				// this access faults, gives up, and triggers the takeover.
				n.acquire(1, 1, 1, false)
				n.settle()
				if el := n.engines[1].Stats().Elections; el != 1 {
					t.Errorf("cluster %d: Elections = %d, want 1", g, el)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReplMigrationShipsLogHead: a voluntary migration must leave the
// successor leading a freshly seeded log (the offer is the log head),
// with the old leader deposed.
func TestReplMigrationShipsLogHead(t *testing.T) {
	opt := replOptions(nil, 2)
	opt.Placement = &Placement{
		Window: 50 * time.Millisecond, MinRequests: 4,
		Share: 0.5, PingPong: 0.8, Cooldown: time.Hour,
	}
	n := newTestNet(t, 3, opt)
	n.newSeg(2, 0)

	driveSkew(n, 1, 40)
	n.settle()

	if got := n.engines[1].Stats().Migrations; got != 1 {
		t.Fatalf("site 1 accepted %d migrations, want 1", got)
	}
	old, succ := n.engines[0].segs[1], n.engines[1].segs[1]
	if old.repl == nil || old.repl.lead != nil {
		t.Error("deposed leader still leads the replication group")
	}
	if succ.repl == nil || succ.repl.lead == nil {
		t.Fatal("successor does not lead the replication group")
	}
	if succ.repl.epoch != succ.segEpoch {
		t.Errorf("successor log epoch %d != segment epoch %d", succ.repl.epoch, succ.segEpoch)
	}
	if len(succ.repl.pages) != 2 {
		t.Errorf("successor log seeded with %d pages, want 2", len(succ.repl.pages))
	}
}

// TestReplFallbackReseedsLeader: a takeover that falls back to the
// holder rebuild must still make the successor the log leader of the
// new epoch. Otherwise it gates and appends nothing, and the next
// takeover elects from logs written before the rebuild.
func TestReplFallbackReseedsLeader(t *testing.T) {
	n := newTestNet(t, 6, replOptions(nil, 4))
	n.newSeg(2, 0)
	n.acquire(1, 1, 0, false)
	n.acquire(1, 1, 1, false)
	n.settle()

	// Voters 2 and 3 die with the leader: site 1's election reaches only
	// site 4, short of the vote quorum of 3, and falls back.
	n.crash(0)
	n.crash(2)
	n.crash(3)
	n.acquire(1, 1, 0, true)
	n.settle()
	st := n.engines[1].Stats()
	if st.Elections != 0 || st.Recoveries != 1 {
		t.Fatalf("Elections=%d Recoveries=%d, want a fallback rebuild (0/1)", st.Elections, st.Recoveries)
	}

	// The new leader's followers 4 and 5 are alive, so grants must log.
	n.acquire(4, 1, 0, true)
	n.acquire(5, 1, 1, false)
	n.settle()
	st = n.engines[1].Stats()
	if st.Appends == 0 || st.ReplCommits == 0 {
		t.Fatalf("after the rebuild: Appends=%d ReplCommits=%d, want both > 0", st.Appends, st.ReplCommits)
	}
	for _, f := range []int{4, 5} {
		rl := n.engines[f].segs[1].repl
		if rl == nil || rl.epoch != n.engines[1].segs[1].segEpoch {
			t.Errorf("follower %d holds no log of the rebuilt epoch", f)
		}
	}
}

// TestTakeoverRollsBackSuccessorClockCycle: a holder rebuild's successor
// that was the clock site of an open write cycle when the library died
// must roll its copy back before it merges its own holdings. Otherwise
// the rebuilt record forgets a copy the successor could restore, and
// the stale clock-side cycle outlives its epoch.
func TestTakeoverRollsBackSuccessorClockCycle(t *testing.T) {
	opt := replOptions(nil, 0)
	n := newTestNet(t, 4, opt)
	n.newSeg(1, 0)
	n.acquire(1, 1, 0, true)
	n.acquire(3, 1, 0, false) // readers {1, 3}, clock site 1
	n.settle()

	// Site 2's write makes clock site 1 collect the copies. Its order to
	// reader 3 is aimed at an unknown segment, so the cycle stays open.
	held := true
	n.mangle = func(from, to int, m *wire.Msg) {
		if held && m.Kind == wire.KInvalOrder && from == 1 && to == 3 {
			m.Seg = 99
		}
	}
	key := pageKey{seg: 1, page: 0}
	n.engines[2].Fault(1, 0, true, 102, func() {})
	for n.engines[1].pend[key] == nil {
		if !n.k.Step() {
			t.Fatal("site 1 never opened the write cycle")
		}
	}
	n.crash(0)
	held = false

	// Reader 3's write request gives up on the dead library and nominates
	// site 1, which rebuilds from holdings.
	n.engines[3].Fault(1, 0, true, 103, func() {})
	for n.engines[1].segs[1].lib == nil {
		if !n.k.Step() {
			t.Fatal("site 1 never took over")
		}
	}
	if n.engines[1].pend[key] != nil {
		t.Error("the dead epoch's write cycle is still open at the successor")
	}
	if n.engines[1].CheckAccess(1, 0, false) != mmu.NoFault {
		t.Error("the successor's copy was not rolled back")
	}
	if ls := n.engines[1].LibraryState(1, 0); !ls.Readers.Has(1) || !ls.Readers.Has(3) {
		t.Errorf("rebuilt readers %v, want both 1 and 3", ls.Readers.Sites())
	}
	n.settle()
	n.checkSingleWriter(1, 0)
}

// TestElectionOrdersReadersOfDeadWriter: an elected page whose writer
// is the dead leader stays that leader's orphan, and reader entries
// alongside it are leftovers ordered discarded, as for a live writer.
// Left in place, they would be read copies no record tracks.
func TestElectionOrdersReadersOfDeadWriter(t *testing.T) {
	n := newTestNet(t, 3, replOptions(nil, 2))
	n.newSeg(1, 0)
	n.acquire(2, 1, 0, false)
	n.settle()
	n.crash(0)

	var ordered []int
	n.mangle = func(from, to int, m *wire.Msg) {
		if m.Kind == wire.KInvalOrder {
			ordered = append(ordered, to)
		}
	}
	e := n.engines[1]
	sn := e.segs[1]
	sn.segEpoch++
	sn.curLib = 1
	sn.recov = &recovery{from: 0, got: map[int32]*recovPage{}, elect: &replElect{
		pages: map[int32]*replEntry{0: {index: 1, page: 0, post: libRecord{
			writer: 0, clock: 0, readers: mmu.CopysetOf(0).Add(2), lastWriter: 0}}},
	}}
	e.finishRecovery(sn)
	n.settle()

	if len(ordered) != 1 || ordered[0] != 2 {
		t.Fatalf("KInvalOrder sent to %v, want [2]", ordered)
	}
	if ls := e.LibraryState(1, 0); ls.Writer != 0 || ls.Clock != 0 || !ls.Readers.Empty() {
		t.Errorf("elected record writer %d clock %d readers %v, want the dead leader's orphan",
			ls.Writer, ls.Clock, ls.Readers.Sites())
	}
	if n.engines[2].CheckAccess(1, 0, false) == mmu.NoFault {
		t.Error("site 2 still reads a copy the record does not list")
	}
}
