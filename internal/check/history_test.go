package check

import (
	"testing"
	"time"

	"mirage/internal/obs"
)

const ms = time.Millisecond

// pse builds an EvPageState event on seg 1 page 0.
func pse(t time.Duration, site int32, arg int64, cycle uint32) obs.Event {
	return obs.Event{T: t, Site: site, Type: obs.EvPageState, Seg: 1, Cycle: cycle, Arg: arg}
}

func gstart(t time.Duration, cycle uint32) obs.Event {
	return obs.Event{T: t, Type: obs.EvGrantStart, Seg: 1, Cycle: cycle}
}

func gend(t time.Duration, cycle uint32) obs.Event {
	return obs.Event{T: t, Type: obs.EvGrantEnd, Seg: 1, Cycle: cycle}
}

func oprec(t time.Duration, site int32, typ obs.EvType, off, n int32, digest uint64) obs.Event {
	return obs.Event{T: t, Site: site, Type: typ, Seg: 1, From: off, To: n, Arg: int64(digest)}
}

func wantInv(t *testing.T, viols []Violation, inv string) {
	t.Helper()
	for _, v := range viols {
		if v.Invariant == inv {
			return
		}
	}
	t.Fatalf("expected a %s violation, got %v", inv, viols)
}

func wantClean(t *testing.T, viols []Violation) {
	t.Helper()
	if len(viols) != 0 {
		t.Fatalf("expected clean trace, got %v", viols)
	}
}

// A full legal write handoff: create at library 0, grant cycle 1 moves
// the page to site 1 after the (expired) window.
func legalHandoff() []obs.Event {
	return []obs.Event{
		pse(0, 0, 2, 0),    // creation: ungranted write hold at library
		gstart(1*ms, 1),    // cycle 1: write grant to site 1
		pse(2*ms, 0, 0, 1), // library's copy invalidated for the grant
		pse(3*ms, 1, 2, 1), // site 1 installs writable
		gend(4*ms, 1),      // cycle commits
	}
}

func TestCleanHandoff(t *testing.T) {
	wantClean(t, Verify(Config{Sites: 2}, legalHandoff()))
}

func TestSingleWriterTwoWritables(t *testing.T) {
	evs := []obs.Event{
		pse(0, 0, 2, 0),
		pse(1*ms, 1, 2, 1), // second writable copy with no invalidation
	}
	wantInv(t, Verify(Config{Sites: 2}, evs), InvSingleWriter)
}

func TestSingleWriterWriterWithReader(t *testing.T) {
	evs := []obs.Event{
		pse(0, 0, 2, 0),
		pse(1*ms, 1, 1, 1), // read copy appears while writer still live
	}
	wantInv(t, Verify(Config{Sites: 2}, evs), InvSingleWriter)
}

func TestWriteSerializationBackwardsCycle(t *testing.T) {
	evs := []obs.Event{gstart(1*ms, 2), gend(2*ms, 2), gstart(3*ms, 1)}
	wantInv(t, Verify(Config{}, evs), InvWriteSerial)
}

func TestWriteSerializationOverlap(t *testing.T) {
	evs := []obs.Event{gstart(1*ms, 1), gstart(2*ms, 2)}
	wantInv(t, Verify(Config{}, evs), InvWriteSerial)
	// With the reliability layer, cycle 1 may have aborted without a
	// commit event: the overlap is legal.
	wantClean(t, Verify(Config{Reliable: true}, evs))
}

func TestExactlyOnceDoubleCommit(t *testing.T) {
	evs := []obs.Event{gstart(1*ms, 1), gend(2*ms, 1), gend(3*ms, 1)}
	wantInv(t, Verify(Config{}, evs), InvExactlyOnce)
}

func TestExactlyOnceDuplicateInstall(t *testing.T) {
	evs := append(legalHandoff(),
		pse(5*ms, 1, 0, 0), // voluntary discard ...
		pse(6*ms, 1, 2, 1), // ... then the same granted install applied again
	)
	wantInv(t, Verify(Config{Sites: 2}, evs), InvExactlyOnce)
}

func TestCommitWithoutOpenCycle(t *testing.T) {
	wantInv(t, Verify(Config{}, []obs.Event{gend(1*ms, 7)}), InvWriteSerial)
}

func TestWindowRevokedEarly(t *testing.T) {
	evs := []obs.Event{
		pse(0, 1, 2, 1),     // granted install at site 1: window until 50ms
		pse(30*ms, 1, 0, 2), // protocol revocation at 30ms — inside the window
	}
	wantInv(t, Verify(Config{Delta: 50 * ms}, evs), InvWindow)
	// Same revocation after expiry is legal.
	late := []obs.Event{pse(0, 1, 2, 1), pse(70*ms, 1, 0, 2)}
	wantClean(t, Verify(Config{Delta: 50 * ms}, late))
	// Slack forgives wall-clock timer coarseness.
	wantClean(t, Verify(Config{Delta: 50 * ms, Slack: 25 * ms}, evs))
	// Delta 0 disables the invariant entirely.
	wantClean(t, Verify(Config{}, evs))
}

func TestWindowVoluntaryReleaseExempt(t *testing.T) {
	evs := []obs.Event{
		pse(0, 1, 2, 1),
		pse(10*ms, 1, 0, 0), // Cycle 0: voluntary release, never window-bound
	}
	wantClean(t, Verify(Config{Delta: 50 * ms}, evs))
}

func TestWindowNonClockReaderUnprotected(t *testing.T) {
	// Site 2 gets a read copy but is not the clock: an inval-order
	// inside its nominal window is legal (§6.1: only the clock's
	// window is enforced).
	evs := []obs.Event{
		pse(0, 1, 2, 1), // clock: site 1
		obs.Event{T: 60 * ms, Site: 1, Type: obs.EvDowngrade, Seg: 1, Cycle: 2},
		pse(60*ms, 1, 1, 0), // echo of the downgrade
		pse(61*ms, 2, 1, 2), // site 2 joins the read set
		pse(65*ms, 2, 0, 3), // revoked 4ms in — not the clock, fine
	}
	wantClean(t, Verify(Config{Delta: 50 * ms}, evs))
}

func TestWindowEarlyDowngradeCaught(t *testing.T) {
	evs := []obs.Event{
		pse(0, 1, 2, 1),
		{T: 10 * ms, Site: 1, Type: obs.EvDowngrade, Seg: 1, Cycle: 2},
	}
	wantInv(t, Verify(Config{Delta: 50 * ms}, evs), InvWindow)
}

func TestDowngradeRefreshesWindow(t *testing.T) {
	evs := []obs.Event{
		pse(0, 1, 2, 1),
		{T: 60 * ms, Site: 1, Type: obs.EvDowngrade, Seg: 1, Cycle: 2}, // legal: window expired
		pse(80*ms, 1, 0, 3), // 20ms into the fresh read window — violation
	}
	wantInv(t, Verify(Config{Delta: 50 * ms}, evs), InvWindow)
}

func TestUpgradeWindowEnforced(t *testing.T) {
	evs := []obs.Event{
		pse(0, 1, 1, 1), // read copy; clock unknown yet
		{T: 5 * ms, Site: 1, Type: obs.EvUpgrade, Seg: 1, Cycle: 2},
		pse(5*ms, 1, 2, 0),  // echo install after upgrade
		pse(20*ms, 1, 0, 3), // revoked 15ms into the upgrade's window
	}
	wantInv(t, Verify(Config{Delta: 50 * ms}, evs), InvWindow)
}

func TestReadOfInvalidatedCopy(t *testing.T) {
	evs := append(legalHandoff(),
		pse(5*ms, 1, 0, 2),                       // site 1 invalidated
		oprec(6*ms, 1, obs.EvRead, 0, 1, 0xbeef), // ...but still reads
	)
	wantInv(t, Verify(Config{Sites: 2}, evs), InvValidCopy)
}

func TestWriteOnReadOnlyCopy(t *testing.T) {
	evs := []obs.Event{
		pse(0, 1, 1, 1), // read copy
		oprec(1*ms, 1, obs.EvWrite, 0, 1, 0xbeef),
	}
	wantInv(t, Verify(Config{Sites: 2}, evs), InvValidCopy)
}

func TestOpAtUnknownSitePermitted(t *testing.T) {
	// A trace that starts mid-run: ops at sites never mentioned before
	// are not violations.
	evs := []obs.Event{
		oprec(1*ms, 1, obs.EvRead, 0, 1, 0xbeef),
		oprec(2*ms, 1, obs.EvWrite, 0, 1, 0xcafe),
	}
	wantClean(t, Verify(Config{Sites: 2}, evs))
}

func TestReadLatestWrite(t *testing.T) {
	evs := append(legalHandoff(),
		oprec(5*ms, 1, obs.EvWrite, 0, 1, 0xcafe),
		oprec(6*ms, 1, obs.EvRead, 0, 1, 0xbeef), // stale digest
	)
	wantInv(t, Verify(Config{Sites: 2}, evs), InvLatestWrite)
	clean := append(legalHandoff(),
		oprec(5*ms, 1, obs.EvWrite, 0, 1, 0xcafe),
		oprec(6*ms, 1, obs.EvRead, 0, 1, 0xcafe),
	)
	wantClean(t, Verify(Config{Sites: 2}, clean))
}

func TestOverlappingWriteEvictsOracle(t *testing.T) {
	evs := append(legalHandoff(),
		oprec(5*ms, 1, obs.EvWrite, 0, 4, 0xcafe), // write [0,4)
		oprec(6*ms, 1, obs.EvWrite, 2, 4, 0xf00d), // overlapping [2,6) evicts it
		oprec(7*ms, 1, obs.EvRead, 0, 4, 0x9999),  // unknown now — permissive
	)
	wantClean(t, Verify(Config{Sites: 2}, evs))
}

func TestSchemaSiteOutOfRange(t *testing.T) {
	wantInv(t, Verify(Config{Sites: 2}, []obs.Event{pse(0, 5, 2, 0)}), InvSchema)
}

func TestSchemaBadPageStateArg(t *testing.T) {
	wantInv(t, Verify(Config{}, []obs.Event{pse(0, 0, 7, 0)}), InvSchema)
}

func TestMaxViolationsBounds(t *testing.T) {
	c := NewChecker(Config{MaxViolations: 2})
	for i := 0; i < 5; i++ {
		c.Feed(pse(time.Duration(i)*ms, 0, 7, 0))
	}
	if len(c.Violations()) != 2 || c.Dropped() != 3 {
		t.Fatalf("got %d violations, %d dropped", len(c.Violations()), c.Dropped())
	}
}
