package core

import (
	"testing"
	"time"

	"mirage/internal/mmu"
	"mirage/internal/obs"
)

// fastAuto is an AutoDelta config with the rate limiter opened up so a
// short driven workload crosses several adjustment intervals: one grant
// cycle and one millisecond between retunes instead of the production
// four cycles / three clock ticks.
func fastAuto() *AutoDelta {
	return &AutoDelta{
		Min: 2 * time.Millisecond, Max: 100 * time.Millisecond,
		Step: 5 * time.Millisecond, CheapDenial: time.Second,
		MinCycles: 1, Cooldown: time.Millisecond,
	}
}

// TestAutoDeltaShrinksOnWriteSharing: two sites alternating writes on
// one page is the E16 ping-pong regime — every window is pure latency
// for the waiting writer, so the controller must walk Δ down
// multiplicatively and never below Min.
func TestAutoDeltaShrinksOnWriteSharing(t *testing.T) {
	o := obs.New()
	ad := fastAuto()
	n := newTestNet(t, 3, Options{AutoDelta: ad, Obs: o})
	const seed = 40 * time.Millisecond
	n.newSeg(1, seed)

	for i := 0; i < 12; i++ {
		n.acquire(1, 1, 0, true)
		n.acquire(2, 1, 0, true)
	}
	n.settle()

	st := n.engines[0].Stats()
	if st.DeltaShrinks < 2 {
		t.Fatalf("DeltaShrinks = %d under write-sharing, want >= 2", st.DeltaShrinks)
	}
	ls := n.engines[0].LibraryState(1, 0)
	if ls.Delta > seed/2 {
		t.Errorf("Δ = %v after ping-pong, want <= %v (halving from %v)", ls.Delta, seed/2, seed)
	}
	if ls.Delta < ad.Min {
		t.Errorf("Δ = %v fell below Min %v", ls.Delta, ad.Min)
	}
	if !ls.WriteSharing {
		t.Error("WriteSharing not reported after alternating write grants")
	}
	if ls.Denied == 0 || ls.DenialRemaining == 0 {
		t.Errorf("denial signals empty: denied=%d remEWMA=%v", ls.Denied, ls.DenialRemaining)
	}

	// Every adjustment must surface in the metrics and the trace.
	adjusts := st.DeltaGrows + st.DeltaShrinks
	if got := o.Metrics.Total(obs.CDeltaShrink); int(got) != st.DeltaShrinks {
		t.Errorf("delta_shrink counter = %d, stats say %d", got, st.DeltaShrinks)
	}
	if got := o.Metrics.Total(obs.CDeltaGrow); int(got) != st.DeltaGrows {
		t.Errorf("delta_grow counter = %d, stats say %d", got, st.DeltaGrows)
	}
	if c := o.Metrics.Hist(obs.HTunedDelta).Count(); int(c) != adjusts {
		t.Errorf("tuned_delta_ns has %d samples, want one per adjustment (%d)", c, adjusts)
	}
	retunes := 0
	for _, ev := range o.Buffer().Events() {
		if ev.Type != obs.EvRetune {
			continue
		}
		retunes++
		if ev.Site != 0 || ev.Seg != 1 || ev.Page != 0 {
			t.Errorf("EvRetune site=%d seg=%d page=%d, want 0/1/0", ev.Site, ev.Seg, ev.Page)
		}
		if d := time.Duration(ev.Arg); d < ad.Min || d > ad.Max {
			t.Errorf("EvRetune Arg %v outside [%v, %v]", d, ad.Min, ad.Max)
		}
	}
	if retunes != adjusts {
		t.Errorf("trace has %d EvRetune events, want one per adjustment (%d)", retunes, adjusts)
	}
}

// TestAutoDeltaGrowsOnCheapDenials: a stable writer whose readers keep
// bouncing off the window is the thrash-amelioration regime (§7.2) —
// denials present, cheap, no write alternation — so the controller must
// grow Δ additively, clamped at Max, and never shrink.
func TestAutoDeltaGrowsOnCheapDenials(t *testing.T) {
	ad := &AutoDelta{
		Min: 0, Max: 60 * time.Millisecond,
		Step: 10 * time.Millisecond, CheapDenial: time.Second,
		MinCycles: 1, Cooldown: time.Millisecond,
	}
	n := newTestNet(t, 3, Options{AutoDelta: ad})
	const seed = 10 * time.Millisecond
	n.newSeg(1, seed)

	for i := 0; i < 12; i++ {
		n.acquire(1, 1, 0, true) // always the same writer: no alternation
		n.acquire(2, 1, 0, false)
	}
	n.settle()

	st := n.engines[0].Stats()
	if st.DeltaGrows < 2 {
		t.Fatalf("DeltaGrows = %d with a stable writer and cheap denials, want >= 2", st.DeltaGrows)
	}
	if st.DeltaShrinks != 0 {
		t.Errorf("DeltaShrinks = %d, want 0 (no write-sharing, denials cheap)", st.DeltaShrinks)
	}
	ls := n.engines[0].LibraryState(1, 0)
	if ls.Delta <= seed {
		t.Errorf("Δ = %v never grew above the %v seed", ls.Delta, seed)
	}
	if ls.Delta > ad.Max {
		t.Errorf("Δ = %v exceeds Max %v", ls.Delta, ad.Max)
	}
	if ls.WriteSharing {
		t.Error("WriteSharing reported for a stable writer")
	}
}

// TestAutoDeltaFirstGrantClampsAndRateLimits: a seed Δ above Max must
// be clamped into the band before the first window goes out (that is
// what keeps Delta=Min verification sound), and a long Cooldown must
// pin Δ there no matter how hard the workload ping-pongs.
func TestAutoDeltaFirstGrantClampsAndRateLimits(t *testing.T) {
	o := obs.New()
	ad := &AutoDelta{
		Min: 0, Max: 15 * time.Millisecond,
		Step:      5 * time.Millisecond,
		MinCycles: 1, Cooldown: time.Hour,
	}
	n := newTestNet(t, 3, Options{AutoDelta: ad, Obs: o})
	n.newSeg(1, 40*time.Millisecond) // seed deliberately above Max

	n.acquire(1, 1, 0, true)
	if w := n.engines[1].Seg(1).Aux(0).Window; w != ad.Max {
		t.Fatalf("first granted window = %v, want the clamped %v", w, ad.Max)
	}
	for i := 0; i < 8; i++ {
		n.acquire(2, 1, 0, true)
		n.acquire(1, 1, 0, true)
	}
	n.settle()

	st := n.engines[0].Stats()
	if adj := st.DeltaGrows + st.DeltaShrinks; adj != 0 {
		t.Errorf("%d adjustments under an hour-long Cooldown, want 0", adj)
	}
	if d := n.engines[0].LibraryState(1, 0).Delta; d != ad.Max {
		t.Errorf("Δ = %v, want pinned at the clamped %v", d, ad.Max)
	}
	for _, ev := range o.Buffer().Events() {
		if ev.Type == obs.EvRetune {
			t.Fatalf("EvRetune at t=%v despite the Cooldown (first-grant clamp must not emit)", ev.T)
		}
	}
}

// TestTuneInfoCarriesDenialSignals: the TuneDelta hook must see the
// denial-side signals the library now records — denied count, the
// remaining-window EWMA from KBusy replies, and the write-sharing
// indicator — not just the demand stats.
func TestTuneInfoCarriesDenialSignals(t *testing.T) {
	var captured []TuneInfo
	opt := Options{TuneDelta: func(ti TuneInfo) time.Duration {
		captured = append(captured, ti)
		return ti.Delta
	}}
	n := newTestNet(t, 3, opt)
	const delta = 20 * time.Millisecond
	n.newSeg(1, delta)

	for i := 0; i < 6; i++ {
		n.acquire(1, 1, 0, true)
		n.acquire(2, 1, 0, true)
	}
	n.settle()

	if len(captured) == 0 {
		t.Fatal("tuner hook never called")
	}
	last := captured[len(captured)-1]
	if last.Seg != 1 || last.Page != 0 || last.Delta != delta {
		t.Errorf("TuneInfo header = seg=%d page=%d Δ=%v, want 1/0/%v", last.Seg, last.Page, last.Delta, delta)
	}
	if last.Denied == 0 {
		t.Error("TuneInfo.Denied = 0 after window denials")
	}
	if last.DenialRemaining <= 0 || last.DenialRemaining > delta {
		t.Errorf("TuneInfo.DenialRemaining = %v, want in (0, %v]", last.DenialRemaining, delta)
	}
	if !last.WriteSharing {
		t.Error("TuneInfo.WriteSharing = false after alternating write grants")
	}
	if last.Requests == 0 || last.MeanGap <= 0 {
		t.Errorf("demand stats empty: requests=%d gap=%v", last.Requests, last.MeanGap)
	}
}

// TestMigrationShipsTuningState: a voluntary migration must hand the
// successor the page's whole tuning record — the tuned Δ, the demand
// EWMAs, and the denial-side signals — with lastReq re-based into the
// successor's clock domain, not dropped to zero for it to re-learn.
func TestMigrationShipsTuningState(t *testing.T) {
	n := newTestNet(t, 3, migOptions(nil))
	n.newSeg(2, 0)
	const tuned = 7 * time.Millisecond
	if err := n.engines[0].SetPageDelta(1, 0, tuned); err != nil {
		t.Fatal(err)
	}

	// Drive the 2:1 skew one round at a time and stop at the handoff, so
	// the successor's record is dominated by shipped state, not by
	// post-migration traffic it accumulated itself.
	for i := 0; i < 80 && n.engines[1].Stats().Migrations == 0; i++ {
		driveSkew(n, 1, 1)
	}
	n.settle()
	if got := n.engines[1].Stats().Migrations; got != 1 {
		t.Fatalf("site 1 accepted %d migrations, want 1", got)
	}

	lib := n.engines[1].segs[1].lib
	if lib == nil {
		t.Fatal("successor holds no segment record")
	}
	p := &lib.pages[0]
	if p.delta != tuned {
		t.Errorf("successor Δ = %v, want the tuned %v (segment default is 0)", p.delta, tuned)
	}
	// One driveSkew round generates at most 3 requests, so anything above
	// that proves the demand history crossed the wire.
	if p.requests < 6 {
		t.Errorf("successor requests = %d, want the shipped history (>= 6)", p.requests)
	}
	if p.gapEWMA <= 0 {
		t.Errorf("successor gapEWMA = %v, want carried over", p.gapEWMA)
	}
	if p.denied == 0 || p.denRemEWMA <= 0 {
		t.Errorf("denial signals not shipped: denied=%d remEWMA=%v", p.denied, p.denRemEWMA)
	}
	if p.flipEWMA == 0 || p.lastWriter == mmu.NoWriter {
		t.Errorf("write-sharing state not shipped: flipEWMA=%d lastWriter=%d", p.flipEWMA, p.lastWriter)
	}
	now := n.k.Now().Duration()
	if p.lastReq <= 0 || p.lastReq > now {
		t.Errorf("lastReq = %v not re-based into the successor's clock (now %v)", p.lastReq, now)
	}
	if p.tuned {
		t.Error("controller rate-limit state shipped; the successor must restart its cooldown")
	}
	// The untouched page rides along with the segment default.
	if q := &lib.pages[1]; q.delta != 0 || q.requests != 0 {
		t.Errorf("idle page polluted: Δ=%v requests=%d", q.delta, q.requests)
	}
}

// TestAutoDeltaSurvivesTakeover: the tuned Δ and the demand history
// reach the replicas through the ordinary record log, so a takeover
// election must grant with the tuned value and keep the demand window
// — not cold-restart from the segment default.
func TestAutoDeltaSurvivesTakeover(t *testing.T) {
	o := obs.New()
	opt := replOptions(o, 2)
	ad := fastAuto()
	opt.AutoDelta = ad
	n := newTestNet(t, 3, opt)
	const seed = 40 * time.Millisecond
	n.newSeg(1, seed)

	for i := 0; i < 10; i++ {
		n.acquire(2, 1, 0, true)
		n.acquire(1, 1, 0, true)
	}
	n.settle()

	pre := n.engines[0].LibraryState(1, 0)
	tuned := pre.Delta
	if tuned >= seed {
		t.Fatalf("setup: controller never shrank Δ below the %v seed (got %v)", seed, tuned)
	}

	n.crash(0)
	// Site 2 was invalidated by site 1's last write, so this access
	// faults, gives up on the dead library, and triggers the takeover.
	n.acquire(2, 1, 0, false)
	n.settle()

	succ := n.engines[1]
	if el := succ.Stats().Elections; el != 1 {
		t.Fatalf("successor Elections = %d, want 1", el)
	}
	post := succ.LibraryState(1, 0)
	if post.Delta != tuned {
		t.Errorf("Δ after takeover = %v, want the tuned %v", post.Delta, tuned)
	}
	// One request reached the successor itself; a count above the old
	// library's proves the history was elected with the record.
	if post.Requests <= pre.Requests || post.MeanGap <= 0 {
		t.Errorf("demand after takeover: requests=%d gap=%v, want > %d requests and a carried gap",
			post.Requests, post.MeanGap, pre.Requests)
	}
	// The post-takeover grant itself must carry the tuned window: a
	// stale-Δ grant would show up here as the seed.
	if w := n.engines[2].Seg(1).Aux(0).Window; w != tuned {
		t.Errorf("post-takeover grant window = %v, want the tuned %v", w, tuned)
	}
}

// TestFailoverRestoresTunedDeltaFromHoldings: without replication the
// rebuilt record is reconstructed from holder reports, and the holders
// are the only survivors that know their granted windows. The rebuild
// must restore the tuned Δ from them instead of clobbering it with the
// segment default.
func TestFailoverRestoresTunedDeltaFromHoldings(t *testing.T) {
	opt := Options{
		Reliability: &Reliability{
			AckTimeout: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
			MaxAttempts: 5, RequestTimeout: 10 * time.Second,
		},
		Failover: &Failover{RecoverTimeout: 500 * time.Millisecond},
	}
	n := newTestNet(t, 3, opt)
	n.newSeg(1, 0) // segment default Δ is 0
	const tuned = 25 * time.Millisecond
	if err := n.engines[0].SetPageDelta(1, 0, tuned); err != nil {
		t.Fatal(err)
	}

	n.acquire(1, 1, 0, true) // site 1 holds the page with the tuned window
	n.settle()
	if w := n.engines[1].Seg(1).Aux(0).Window; w != tuned {
		t.Fatalf("setup: holder window = %v, want %v", w, tuned)
	}

	n.crash(0)
	n.acquire(2, 1, 0, false) // give-up → holder rebuild at site 1
	n.settle()

	succ := n.engines[1]
	st := succ.Stats()
	if st.Elections != 0 || st.Recoveries != 1 {
		t.Fatalf("Elections=%d Recoveries=%d, want a legacy rebuild (0/1)", st.Elections, st.Recoveries)
	}
	if got := succ.LibraryState(1, 0).Delta; got != tuned {
		t.Errorf("rebuilt Δ = %v, want %v restored from the holder's window", got, tuned)
	}
	if w := n.engines[2].Seg(1).Aux(0).Window; w != tuned {
		t.Errorf("post-rebuild grant window = %v, want the tuned %v", w, tuned)
	}
}
