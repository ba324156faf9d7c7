// Package mmu models the memory-management hardware and kernel tables
// Mirage layers its protocol on (paper §6.2).
//
// For each shared segment a site keeps:
//
//   - a master page-table: one PTE per page with a valid bit and a
//     protection bit (read-only or read-write), exactly the state the
//     VAX hardware consults;
//   - an auxiliary parallel page table (auxpte, Table 2): per page,
//     the reader mask, the current writer site, the page's time window
//     in ticks (Δ), and the installation time at this site;
//   - the page frames themselves, for pages present at the site.
//
// Processes attach segments into address spaces managed by the ipc
// package; each attached process carries a copy of the master PTEs
// refreshed lazily at dispatch (§6.2), which the sched layer charges
// as remap cost. Coherence checks consult the master table: in the
// paper every path from a master-table change back to user mode passes
// through the scheduler's remap, so user code never observes a stale
// process PTE.
//
// Live accessors have no scheduler: they run on their own goroutines
// and use a page the site holds without asking the protocol engine
// (the hit path, DESIGN.md §8.5). Each page therefore carries a frame
// lock and a published protection, the access a hit may make. The
// master-table changes (Install, Invalidate, Downgrade, Upgrade) take
// the frame lock exclusively and republish, which plays the remap's
// part: a change waits out every hit in flight, and no later hit sees
// the old protection.
package mmu

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Prot is a page protection level.
type Prot uint8

const (
	// Invalid marks a page not present at this site.
	Invalid Prot = iota
	// ReadOnly marks a readable copy.
	ReadOnly
	// ReadWrite marks the (single) writable copy.
	ReadWrite
)

func (p Prot) String() string {
	switch p {
	case Invalid:
		return "invalid"
	case ReadOnly:
		return "read-only"
	case ReadWrite:
		return "read-write"
	}
	return fmt.Sprintf("Prot(%d)", uint8(p))
}

// FaultType classifies a page fault, which the VAX reports (and the
// modified Locus interrupt service routine passes through, §6.2).
type FaultType uint8

const (
	// NoFault means the access is permitted by the current PTE.
	NoFault FaultType = iota
	// ReadFault is an access to a page not present at the site.
	ReadFault
	// WriteFault is a write to a page that is absent or read-only.
	WriteFault
)

func (f FaultType) String() string {
	switch f {
	case NoFault:
		return "none"
	case ReadFault:
		return "read-fault"
	case WriteFault:
		return "write-fault"
	}
	return fmt.Sprintf("FaultType(%d)", uint8(f))
}

// PTE is one master page-table entry, with the state the hit path
// consults. mu guards the frame's bytes and its frames slot against the
// engine; hit is the Prot a hit may use, Prot unless the page or its
// segment is fenced.
type PTE struct {
	Prot Prot

	mu      sync.RWMutex
	hit     atomic.Uint32
	pending bool // every access faults: an error awaits the next one
}

// AuxPTE is one auxiliary parallel page table entry (paper Table 2).
type AuxPTE struct {
	ReaderMask  Copyset       // set of sites using this page
	Writer      int           // current writer site, or NoWriter
	Window      time.Duration // Δ allocated for this page ("window ticks")
	InstallTime time.Duration // installation time of this page at this site
}

// NoWriter is the AuxPTE.Writer value when no site holds a writable copy.
const NoWriter = -1

// Seg is the per-site MMU state for one segment. The protocol engine
// owns the master table and the auxiliary table and calls every method
// except Pin and Unpin from one goroutine; Pin and Unpin are safe from
// any goroutine.
type Seg struct {
	pageSize int
	pte      []PTE
	aux      []AuxPTE
	frames   [][]byte
	fenced   bool // every access faults: the segment is released or destroyed
}

// NewSeg creates MMU state for a segment of npages pages.
func NewSeg(npages, pageSize int) *Seg {
	if npages <= 0 || pageSize <= 0 {
		panic(fmt.Sprintf("mmu: bad geometry %d x %d", npages, pageSize))
	}
	s := &Seg{
		pageSize: pageSize,
		pte:      make([]PTE, npages),
		aux:      make([]AuxPTE, npages),
		frames:   make([][]byte, npages),
	}
	for i := range s.aux {
		s.aux[i].Writer = NoWriter
	}
	return s
}

// Pages returns the number of pages.
func (s *Seg) Pages() int { return len(s.pte) }

// PageSize returns the page size in bytes.
func (s *Seg) PageSize() int { return s.pageSize }

// Prot returns the current protection of page p.
func (s *Seg) Prot(p int) Prot { return s.pte[p].Prot }

// Aux returns a pointer to page p's auxpte for inspection or update.
func (s *Seg) Aux(p int) *AuxPTE { return &s.aux[p] }

// Check classifies an access against the master page table without
// performing it.
func (s *Seg) Check(p int, write bool) FaultType {
	switch s.pte[p].Prot {
	case ReadWrite:
		return NoFault
	case ReadOnly:
		if write {
			return WriteFault
		}
		return NoFault
	default:
		if write {
			return WriteFault
		}
		return ReadFault
	}
}

// Frame returns the frame backing page p, or nil when the page is not
// present. Callers must respect the protection; the protocol engine is
// the only writer of invalid/RO frames. A hit may be writing a
// read-write frame concurrently: copy one with Snapshot instead.
func (s *Seg) Frame(p int) []byte { return s.frames[p] }

// Snapshot returns a copy of page p's frame, taken under the frame lock
// so a concurrent write hit cannot tear it.
func (s *Seg) Snapshot(p int) []byte {
	e := &s.pte[p]
	e.mu.RLock()
	b := append([]byte(nil), s.frames[p]...)
	e.mu.RUnlock()
	return b
}

// Pin locks page p's frame for one access and returns it, or returns
// nil, holding nothing, when the published protection does not allow
// the access: the caller must fault. A read pins the frame shared and
// a write exclusively, so a read-modify-write under one pin is atomic.
// Release the pin with Unpin and the same write flag.
func (s *Seg) Pin(p int, write bool) []byte {
	e := &s.pte[p]
	need := uint32(ReadOnly)
	if write {
		need = uint32(ReadWrite)
	}
	if e.hit.Load() < need {
		return nil
	}
	if write {
		e.mu.Lock()
	} else {
		e.mu.RLock()
	}
	if e.hit.Load() < need {
		s.Unpin(p, write)
		return nil
	}
	return s.frames[p]
}

// Unpin releases a pin taken by Pin.
func (s *Seg) Unpin(p int, write bool) {
	if write {
		s.pte[p].mu.Unlock()
	} else {
		s.pte[p].mu.RUnlock()
	}
}

// SetPending fences page p off the hit path while on holds: every
// access faults, so the error the engine holds for the page reaches the
// next accessor.
func (s *Seg) SetPending(p int, on bool) {
	e := &s.pte[p]
	e.mu.Lock()
	e.pending = on
	s.publish(p)
	e.mu.Unlock()
}

// SetFenced fences every page off the hit path while on holds (the
// segment is being released or was destroyed). It waits out the hits
// in flight.
func (s *Seg) SetFenced(on bool) {
	s.fenced = on
	for p := range s.pte {
		e := &s.pte[p]
		e.mu.Lock()
		s.publish(p)
		e.mu.Unlock()
	}
}

// publish recomputes page p's hit protection; the caller holds the
// frame lock exclusively.
func (s *Seg) publish(p int) {
	e := &s.pte[p]
	prot := e.Prot
	if s.fenced || e.pending {
		prot = Invalid
	}
	e.hit.Store(uint32(prot))
}

// Install maps page p at this site with protection prot and contents
// data (copied; nil means zero-filled), recording the install time for
// the Δ clock check. Installing with Invalid protection is a model bug.
func (s *Seg) Install(p int, data []byte, prot Prot, now time.Duration) {
	if prot == Invalid {
		panic("mmu: Install with Invalid protection")
	}
	e := &s.pte[p]
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.Prot == Invalid {
		s.frames[p] = make([]byte, s.pageSize)
	}
	if data != nil {
		if len(data) != s.pageSize {
			panic(fmt.Sprintf("mmu: install %d bytes into %d-byte page", len(data), s.pageSize))
		}
		copy(s.frames[p], data)
	} else {
		for i := range s.frames[p] {
			s.frames[p][i] = 0
		}
	}
	e.Prot = prot
	s.aux[p].InstallTime = now
	s.publish(p)
}

// Invalidate unmaps page p and discards the frame. It returns the old
// contents so a caller forwarding the page (invalidated writer sending
// its data to the new writer) can use them without an extra copy: once
// it returns, no hit can reach them.
func (s *Seg) Invalidate(p int) []byte {
	e := &s.pte[p]
	e.mu.Lock()
	defer e.mu.Unlock()
	f := s.frames[p]
	old := e.Prot
	e.Prot = Invalid
	if mutateStaleHit && old != Invalid {
		// MUTATION BUILD: the frame stays mapped and hits keep reading
		// it, the stale PTE the remap exists to prevent.
		e.hit.Store(uint32(ReadOnly))
		return f
	}
	s.frames[p] = nil
	s.publish(p)
	return f
}

// Downgrade reduces a read-write page to read-only, retaining the
// frame (optimization 2, §6.1). Downgrading a non-writable page is a
// protocol bug and panics.
func (s *Seg) Downgrade(p int, now time.Duration) {
	if s.pte[p].Prot != ReadWrite {
		panic(fmt.Sprintf("mmu: downgrade of %v page %d", s.pte[p].Prot, p))
	}
	e := &s.pte[p]
	e.mu.Lock()
	e.Prot = ReadOnly
	s.aux[p].InstallTime = now
	s.publish(p)
	e.mu.Unlock()
}

// Upgrade raises a read-only page to read-write in place (optimization
// 1: a reader becoming writer receives no page copy). Upgrading a page
// that is not read-only panics.
func (s *Seg) Upgrade(p int, now time.Duration) {
	if s.pte[p].Prot != ReadOnly {
		panic(fmt.Sprintf("mmu: upgrade of %v page %d", s.pte[p].Prot, p))
	}
	e := &s.pte[p]
	e.mu.Lock()
	e.Prot = ReadWrite
	s.aux[p].InstallTime = now
	s.publish(p)
	e.mu.Unlock()
}

// Present reports whether page p has a frame at this site.
func (s *Seg) Present(p int) bool { return s.pte[p].Prot != Invalid }

// PresentCount returns how many pages are present at this site.
func (s *Seg) PresentCount() int {
	n := 0
	for i := range s.pte {
		if s.pte[i].Prot != Invalid {
			n++
		}
	}
	return n
}

// WindowExpired reports whether page p's Δ window has elapsed at time
// now. A zero window is always expired.
func (s *Seg) WindowExpired(p int, now time.Duration) bool {
	a := &s.aux[p]
	return now >= a.InstallTime+a.Window
}

// WindowRemaining returns how much of page p's Δ window remains at
// time now (zero if expired).
func (s *Seg) WindowRemaining(p int, now time.Duration) time.Duration {
	a := &s.aux[p]
	rem := a.InstallTime + a.Window - now
	if rem < 0 {
		return 0
	}
	return rem
}
