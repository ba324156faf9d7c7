//go:build mirage_mutation

package mirage

import (
	"testing"

	"mirage/internal/check"
)

// TestMutationStaleHit is the hit path's mutation kill: the build tag
// mirage_mutation makes mmu's Invalidate leave the frame mapped for
// hits at read-only, so a reader keeps serving reads from a copy the
// protocol revoked. The coherence checker must report it.
//
// Run it alone — the tag breaks the protocol, so the package's other
// tests rightly fail under it:
//
//	go test -tags mirage_mutation . -run TestMutationStaleHit
func TestMutationStaleHit(t *testing.T) {
	c := newTestCluster(t, 2, Options{Obs: NewObs(), Check: true})
	id, err := c.Site(0).Shmget(0x57A1, 512, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := c.Site(0).Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := c.Site(1).Attach(id, false)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(1); v <= 3; v++ {
		if _, err := reader.Uint32(0); err != nil {
			t.Fatal(err)
		}
		// The write invalidates the reader's copy; the mutated hit
		// path then reads the stale frame.
		if err := writer.SetUint32(0, v); err != nil {
			t.Fatal(err)
		}
		if _, err := reader.Uint32(0); err != nil {
			t.Fatal(err)
		}
	}
	viols, err := c.VerifyTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range viols {
		if v.Invariant == check.InvValidCopy || v.Invariant == check.InvLatestWrite {
			t.Logf("caught: %v", v)
			return
		}
	}
	t.Fatalf("stale hits not caught; violations: %v", viols)
}
