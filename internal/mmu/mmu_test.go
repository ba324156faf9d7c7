package mmu

import (
	"testing"
	"time"
)

func newSeg() *Seg { return NewSeg(4, 512) }

func TestNewSegInitialState(t *testing.T) {
	s := newSeg()
	if s.Pages() != 4 || s.PageSize() != 512 {
		t.Fatalf("geometry %d x %d", s.Pages(), s.PageSize())
	}
	for p := 0; p < 4; p++ {
		if s.Prot(p) != Invalid {
			t.Fatalf("page %d prot = %v", p, s.Prot(p))
		}
		if s.Present(p) {
			t.Fatalf("page %d present", p)
		}
		if s.Aux(p).Writer != NoWriter {
			t.Fatalf("page %d writer = %d", p, s.Aux(p).Writer)
		}
	}
	if s.PresentCount() != 0 {
		t.Fatal("fresh seg has present pages")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSeg(0, 512)
}

func TestCheckFaultTypes(t *testing.T) {
	s := newSeg()
	if s.Check(0, false) != ReadFault {
		t.Fatalf("invalid read: %v", s.Check(0, false))
	}
	if s.Check(0, true) != WriteFault {
		t.Fatalf("invalid write: %v", s.Check(0, true))
	}
	s.Install(0, nil, ReadOnly, 0)
	if s.Check(0, false) != NoFault {
		t.Fatal("RO read should not fault")
	}
	if s.Check(0, true) != WriteFault {
		t.Fatal("RO write should write-fault")
	}
	s.Upgrade(0, 0)
	if s.Check(0, false) != NoFault || s.Check(0, true) != NoFault {
		t.Fatal("RW access should not fault")
	}
}

func TestInstallCopiesData(t *testing.T) {
	s := newSeg()
	data := make([]byte, 512)
	data[0], data[511] = 0xAB, 0xCD
	s.Install(1, data, ReadWrite, 7*time.Millisecond)
	data[0] = 0 // mutate source; frame must hold the copy
	f := s.Frame(1)
	if f[0] != 0xAB || f[511] != 0xCD {
		t.Fatalf("frame = %x..%x", f[0], f[511])
	}
	if s.Aux(1).InstallTime != 7*time.Millisecond {
		t.Fatalf("install time = %v", s.Aux(1).InstallTime)
	}
}

func TestInstallNilZeroFills(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadWrite, 0)
	f := s.Frame(0)
	f[5] = 9
	// Reinstall with nil must zero the recycled frame.
	s.Install(0, nil, ReadOnly, 0)
	if s.Frame(0)[5] != 0 {
		t.Fatal("reinstall with nil did not zero the frame")
	}
}

func TestInstallWrongSizePanics(t *testing.T) {
	s := newSeg()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Install(0, make([]byte, 100), ReadOnly, 0)
}

func TestInstallInvalidProtPanics(t *testing.T) {
	s := newSeg()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Install(0, nil, Invalid, 0)
}

func TestInvalidateReturnsOldContents(t *testing.T) {
	s := newSeg()
	data := make([]byte, 512)
	data[3] = 0x7E
	s.Install(2, data, ReadWrite, 0)
	old := s.Invalidate(2)
	if old[3] != 0x7E {
		t.Fatal("invalidate lost contents")
	}
	if s.Present(2) || s.Frame(2) != nil || s.Prot(2) != Invalid {
		t.Fatal("page still mapped after invalidate")
	}
}

func TestDowngradeKeepsFrame(t *testing.T) {
	s := newSeg()
	data := make([]byte, 512)
	data[9] = 1
	s.Install(0, data, ReadWrite, 0)
	s.Downgrade(0, 50*time.Millisecond)
	if s.Prot(0) != ReadOnly {
		t.Fatalf("prot = %v", s.Prot(0))
	}
	if s.Frame(0)[9] != 1 {
		t.Fatal("downgrade discarded frame")
	}
	if s.Aux(0).InstallTime != 50*time.Millisecond {
		t.Fatal("downgrade must restart the window clock")
	}
}

func TestDowngradeNonWriterPanics(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadOnly, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Downgrade(0, 0)
}

func TestUpgradeInPlace(t *testing.T) {
	s := newSeg()
	data := make([]byte, 512)
	data[100] = 42
	s.Install(0, data, ReadOnly, 0)
	s.Upgrade(0, 99*time.Millisecond)
	if s.Prot(0) != ReadWrite {
		t.Fatalf("prot = %v", s.Prot(0))
	}
	if s.Frame(0)[100] != 42 {
		t.Fatal("upgrade must not touch data (optimization 1)")
	}
	if s.Aux(0).InstallTime != 99*time.Millisecond {
		t.Fatal("upgrade must restart the window clock")
	}
}

func TestUpgradeInvalidPanics(t *testing.T) {
	s := newSeg()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Upgrade(0, 0)
}

func TestWindowExpiry(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadWrite, 100*time.Millisecond)
	s.Aux(0).Window = 30 * time.Millisecond
	if s.WindowExpired(0, 110*time.Millisecond) {
		t.Fatal("window should be live at +10ms")
	}
	if got := s.WindowRemaining(0, 110*time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("remaining = %v", got)
	}
	if !s.WindowExpired(0, 130*time.Millisecond) {
		t.Fatal("window should expire exactly at +30ms")
	}
	if got := s.WindowRemaining(0, 200*time.Millisecond); got != 0 {
		t.Fatalf("remaining after expiry = %v", got)
	}
}

func TestZeroWindowAlwaysExpired(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadWrite, 5*time.Millisecond)
	if !s.WindowExpired(0, 5*time.Millisecond) {
		t.Fatal("Δ=0 must be expired immediately")
	}
}

func TestPresentCount(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadOnly, 0)
	s.Install(3, nil, ReadWrite, 0)
	if s.PresentCount() != 2 {
		t.Fatalf("present = %d", s.PresentCount())
	}
	s.Invalidate(0)
	if s.PresentCount() != 1 {
		t.Fatalf("present = %d", s.PresentCount())
	}
}

func TestProtAndFaultStrings(t *testing.T) {
	cases := map[string]string{
		Invalid.String():    "invalid",
		ReadOnly.String():   "read-only",
		ReadWrite.String():  "read-write",
		NoFault.String():    "none",
		ReadFault.String():  "read-fault",
		WriteFault.String(): "write-fault",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("got %q want %q", got, want)
		}
	}
	if Prot(9).String() == "" || FaultType(9).String() == "" {
		t.Fatal("unknown values must still render")
	}
}

// TestRevocationWaitsForPinnedHit: Invalidate and Downgrade take the
// frame lock exclusively, so each waits for a read hit already in
// flight, and a later pin sees the revoked protection.
func TestRevocationWaitsForPinnedHit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		revoke func(s *Seg)
		write  bool // the access the revoked page no longer allows
	}{
		{"invalidate", func(s *Seg) { s.Invalidate(0) }, false},
		{"downgrade", func(s *Seg) { s.Downgrade(0, 0) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSeg()
			s.Install(0, nil, ReadWrite, 0)
			frame := s.Pin(0, false)
			if frame == nil {
				t.Fatal("read pin of a writable page faulted")
			}
			done := make(chan struct{})
			go func() {
				tc.revoke(s)
				close(done)
			}()
			select {
			case <-done:
				t.Fatal("revocation finished while a hit held the frame")
			case <-time.After(20 * time.Millisecond):
			}
			s.Unpin(0, false)
			<-done
			if s.Pin(0, tc.write) != nil {
				t.Fatal("pin succeeded after the revocation")
			}
		})
	}
}

// TestPinFollowsPublishedProtection: a pin needs the access the page's
// protection allows, and a pending error or a fenced segment sends
// every access to the fault path until lifted.
func TestPinFollowsPublishedProtection(t *testing.T) {
	s := newSeg()
	if s.Pin(0, false) != nil {
		t.Fatal("pin of an absent page")
	}
	s.Install(0, nil, ReadOnly, 0)
	if s.Pin(0, true) != nil {
		t.Fatal("write pin of a read-only page")
	}
	if s.Pin(0, false) == nil {
		t.Fatal("read pin of a read-only page faulted")
	}
	s.Unpin(0, false)
	s.Upgrade(0, 0)
	if s.Pin(0, true) == nil {
		t.Fatal("write pin of a writable page faulted")
	}
	s.Unpin(0, true)
	s.SetPending(0, true)
	if s.Pin(0, false) != nil {
		t.Fatal("pin of a page with a pending error")
	}
	s.SetPending(0, false)
	s.SetFenced(true)
	if s.Pin(0, false) != nil {
		t.Fatal("pin of a fenced segment")
	}
	s.SetFenced(false)
	if s.Pin(0, true) == nil {
		t.Fatal("write pin faulted after the fences lifted")
	}
	s.Unpin(0, true)
}
