package mirage

import (
	"fmt"
	"sync/atomic"

	"mirage/internal/mem"
	"mirage/internal/mmu"
)

// Segment is one attach of a shared segment at a site: the handle
// through which processes read and write coherently shared memory.
// Handles are safe for concurrent use by multiple goroutines (they
// model colocated processes sharing the site's page frames).
type Segment struct {
	site     *Site
	seg      *mem.Segment
	m        *mmu.Seg // the site's page table and frames for seg
	readonly bool
	pid      int32

	detached atomic.Bool
}

// Size returns the segment size in bytes.
func (g *Segment) Size() int { return g.seg.Size }

// ID returns the segment id.
func (g *Segment) ID() SegID { return g.seg.ID }

// PageSize returns the coherence unit.
func (g *Segment) PageSize() int { return g.seg.PageSize }

// Detach unmaps the segment (System V shmdt). The cluster-wide last
// detach destroys the segment.
func (g *Segment) Detach() error {
	if !g.detached.CompareAndSwap(false, true) {
		return ErrDetached
	}
	return g.site.detach(g.seg.ID)
}

// access runs fn over each page-aligned chunk of [off, off+n) with the
// page held in the needed mode. fn runs on the caller's goroutine with
// the page's frame pinned — shared for a read, exclusive for a write —
// so the protocol cannot revoke the page while fn runs, and a write's
// read-modify-write is atomic. Only a fault involves the site's actor
// loop, which brings the page in; the access then retries the hit.
func (g *Segment) access(off, n int, write bool, fn func(frame []byte, frameOff, bufOff, k int)) error {
	if g.detached.Load() {
		return ErrDetached
	}
	if write && g.readonly {
		return ErrReadOnly
	}
	if off < 0 || n < 0 || off+n > g.seg.Size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+n, g.seg.Size)
	}
	ps := g.seg.PageSize
	bufOff := 0
	for n > 0 {
		page := off / ps
		fo := off % ps
		k := ps - fo
		if k > n {
			k = n
		}
		for {
			if g.seg.Removed() {
				return ErrDetached
			}
			if frame := g.m.Pin(page, write); frame != nil {
				fn(frame, fo, bufOff, k)
				if g.site.c.opts.Check {
					// Op record for VerifyTrace, under the pin so it
					// lands in causal order with the page's protocol
					// events.
					g.site.node.eng.RecordOp(int32(g.seg.ID), int32(page), fo, write, frame[fo:fo+k])
				}
				g.m.Unpin(page, write)
				break
			}
			if err := g.fault(page, write); err != nil {
				return err
			}
		}
		off += k
		bufOff += k
		n -= k
	}
	return nil
}

// fault brings page in with the needed access through the site's
// protocol engine and waits until the page's local state changed. A nil
// return means retry the access; the page may have been revoked again
// meanwhile.
func (g *Segment) fault(page int, write bool) error {
	nd := g.site.node
	segID, p := int32(g.seg.ID), int32(page)
	done := make(chan error, 1)
	ok := nd.post(func() {
		if g.seg.Removed() {
			// Destroyed: the engine may have dropped the segment, and
			// a wake it posts once the node has closed never runs.
			done <- ErrDetached
			return
		}
		if err := nd.eng.FaultError(segID, p); err != nil {
			// A previous fault on this page was degraded (peer
			// unreachable past the retry budget). Surface it instead
			// of refaulting into the same partition.
			done <- err
			return
		}
		if nd.eng.CheckAccess(segID, p, write) == mmu.NoFault {
			done <- nil
			return
		}
		nd.eng.Fault(segID, p, write, g.pid, func() {
			select {
			case done <- nil:
			default: // already woken once for this attempt
			}
		})
	})
	if !ok {
		return ErrDetached
	}
	return <-done
}

// ReadAt copies len(b) bytes from the segment at off into b,
// coherently: the bytes reflect the latest completed writes anywhere
// in the cluster.
func (g *Segment) ReadAt(b []byte, off int) error {
	return g.access(off, len(b), false, func(frame []byte, fo, bo, k int) {
		copy(b[bo:bo+k], frame[fo:fo+k])
	})
}

// WriteAt copies b into the segment at off.
func (g *Segment) WriteAt(b []byte, off int) error {
	return g.access(off, len(b), true, func(frame []byte, fo, bo, k int) {
		copy(frame[fo:fo+k], b[bo:bo+k])
	})
}

// Uint32 reads a 32-bit little-endian word.
func (g *Segment) Uint32(off int) (uint32, error) {
	var v uint32
	err := g.access(off, 4, false, func(frame []byte, fo, bo, k int) {
		for i := 0; i < k; i++ {
			v |= uint32(frame[fo+i]) << (8 * uint(bo+i))
		}
	})
	return v, err
}

// SetUint32 writes a 32-bit little-endian word.
func (g *Segment) SetUint32(off int, v uint32) error {
	return g.access(off, 4, true, func(frame []byte, fo, bo, k int) {
		for i := 0; i < k; i++ {
			frame[fo+i] = byte(v >> (8 * uint(bo+i)))
		}
	})
}

// AddUint32 atomically (with respect to the page's single-writer
// protocol state) adds delta to the word at off and returns the new
// value. The word must not span pages.
func (g *Segment) AddUint32(off int, delta uint32) (uint32, error) {
	if off+4 <= g.seg.Size && off%g.seg.PageSize > g.seg.PageSize-4 {
		panic("mirage: AddUint32 across a page boundary")
	}
	var out uint32
	err := g.access(off, 4, true, func(frame []byte, fo, bo, k int) {
		v := uint32(frame[fo]) | uint32(frame[fo+1])<<8 | uint32(frame[fo+2])<<16 | uint32(frame[fo+3])<<24
		v += delta
		frame[fo] = byte(v)
		frame[fo+1] = byte(v >> 8)
		frame[fo+2] = byte(v >> 16)
		frame[fo+3] = byte(v >> 24)
		out = v
	})
	return out, err
}

// TestAndSet sets the byte at off to 1 under write access and returns
// its previous value: the interlocked instruction §7.2 studies (and
// recommends against for cross-site spinlocks).
func (g *Segment) TestAndSet(off int) (old byte, err error) {
	err = g.access(off, 1, true, func(frame []byte, fo, bo, k int) {
		old = frame[fo]
		frame[fo] = 1
	})
	return old, err
}

// Clear zeroes the byte at off under write access (spinlock release).
func (g *Segment) Clear(off int) error {
	return g.access(off, 1, true, func(frame []byte, fo, bo, k int) {
		frame[fo] = 0
	})
}
