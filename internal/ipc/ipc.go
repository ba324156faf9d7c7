// Package ipc assembles the simulated Mirage cluster and exposes the
// System V shared-memory interface to simulated processes (paper §2.2,
// §3.0 "Transparent Access": the same calls work whether the segment's
// pages are local or remote).
//
// A Cluster owns one discrete-event kernel, a simulated Ethernet, one
// CPU and one protocol Engine per site, and the cluster-wide segment
// registry. Simulated processes (Proc) run on a site's CPU and use
// Shmget/Shmat/Shmdt plus attached-segment accessors; accesses check
// the MMU and, on a fault, invoke the protocol engine and sleep until
// the page state changes — the paper's "standard way UNIX tasks await
// the completion of an I/O operation" (§6.1).
package ipc

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/netsim"
	"mirage/internal/obs"
	"mirage/internal/sched"
	"mirage/internal/sim"
	"mirage/internal/vaxmodel"
)

// DSM is the contract a distributed shared memory engine fulfills to
// plug into the simulated cluster. The Mirage engine (internal/core)
// is the default; the Li/Hudak-style baseline (internal/ivy) is an
// alternative used by the comparison benches.
type DSM interface {
	CreateSegment(meta *mem.Segment)
	AttachSegment(meta *mem.Segment)
	DestroySegment(id int32)
	ReleaseSegment(id int32)
	Attached(id int32) bool
	CheckAccess(seg, page int32, write bool) mmu.FaultType
	Frame(seg, page int32) []byte
	Fault(seg, page int32, write bool, pid int32, wake func())
	// FaultError takes (returns and clears) the pending degraded-grant
	// error for a page: non-nil means a fault on the page was failed
	// back instead of served, and the woken access should surface the
	// error. Engines without a failure model always return nil.
	FaultError(seg, page int32) error
	// RecordOp emits a per-access op event (offset, length, content
	// digest) for the coherence checker; a no-op pointer test when
	// tracing is off.
	RecordOp(seg, page int32, off int, write bool, b []byte)
	MappedPages() int
	Deliver(payload any)
}

// Errors returned by segment accessors.
var (
	ErrDetached = errors.New("ipc: segment detached")
	ErrBounds   = errors.New("ipc: access outside segment")
	ErrReadOnly = errors.New("ipc: write to read-only attach")
)

// Config parameterizes a cluster. Zero values take paper defaults.
type Config struct {
	PageSize int           // default vaxmodel.PageSize
	Delta    time.Duration // default Δ for new segments
	MaxBytes int           // max segment size; default vaxmodel.MaxSegmentBytes
	Sched    sched.Config  // per-site scheduler parameters
	Engine   core.Options  // protocol options (policy, tracer, tuner)

	// Chaos, when set, injects the fault plan into the simulated
	// network. Pair it with Engine.Reliability — without the
	// reliability layer the engines assume lossless FIFO delivery.
	Chaos *chaos.Plan

	// NewDSM, when set, replaces the Mirage engine at every site (used
	// to run the IVY baseline on the identical substrate). Sites built
	// this way have a nil Eng field.
	NewDSM func(env core.Env) DSM
}

// Cluster is a simulated Mirage network.
type Cluster struct {
	K        *sim.Kernel
	Net      *netsim.Network
	Registry *mem.Registry
	Chaos    *chaos.Injector // non-nil when Config.Chaos was set
	sites    []*Site
	nextPid  int32

	// System V semaphore sets (see sem.go).
	sems      map[SemID]*semSet
	semsByKey map[mem.Key]*semSet
	nextSem   SemID

	// FaultLatency records, for every access that faulted, the time in
	// nanoseconds from the first fault to the access completing
	// (§9.0-style observability; printed by cmd/miragesim). With
	// Config.Engine.Obs metrics on it is the registry's
	// fault_latency_ns histogram.
	FaultLatency *obs.Hist
}

// Site is one machine.
type Site struct {
	c   *Cluster
	id  int
	CPU *sched.CPU
	Eng *core.Engine // the Mirage engine, nil when a custom DSM is used
	DSM DSM

	attaches map[mem.SegID]int // local attach counts
}

// env adapts a Site to core.Env.
type env struct{ s *Site }

func (e env) Site() int          { return e.s.id }
func (e env) Now() time.Duration { return e.s.c.K.Now().Duration() }

func (e env) After(d time.Duration, fn func()) func() {
	t := e.s.c.K.After(d, fn)
	return func() { t.Cancel() }
}

func (e env) Send(to int, m core.NetMsg) {
	e.s.c.Net.Send(netsim.Message{
		From:    netsim.SiteID(e.s.id),
		To:      netsim.SiteID(to),
		Size:    m.Size(),
		Payload: any(m),
	})
}

func (e env) Exec(cost time.Duration, fn func()) {
	e.s.CPU.KernelWork(cost, fn)
}

// NewCluster builds an n-site cluster.
func NewCluster(n int, cfg Config) *Cluster {
	if cfg.PageSize == 0 {
		cfg.PageSize = vaxmodel.PageSize
	}
	if cfg.Delta < 0 {
		cfg.Delta = 0 // a negative window is meaningless; clamp to "no window"
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = vaxmodel.MaxSegmentBytes
	}
	cfg.Engine.Sites = n
	c := &Cluster{
		K:            sim.NewKernel(),
		Registry:     mem.NewRegistry(cfg.PageSize, cfg.Delta, cfg.MaxBytes),
		nextPid:      1,
		sems:         make(map[SemID]*semSet),
		semsByKey:    make(map[mem.Key]*semSet),
		nextSem:      1,
		FaultLatency: obs.NewHist(int64(time.Millisecond)),
	}
	if o := cfg.Engine.Obs; o != nil && o.Metrics != nil {
		c.FaultLatency = o.Metrics.Hist(obs.HFaultLatency)
	}
	c.Net = netsim.New(c.K, n)
	c.Net.Obs = cfg.Engine.Obs
	if cfg.Chaos != nil {
		c.Chaos = chaos.New(*cfg.Chaos)
		c.Chaos.SetObs(cfg.Engine.Obs)
		chaos.WrapNetwork(c.Net, c.Chaos, func() time.Duration { return c.K.Now().Duration() })
	}
	for i := 0; i < n; i++ {
		s := &Site{
			c:        c,
			id:       i,
			CPU:      sched.New(c.K, fmt.Sprintf("site%d", i), cfg.Sched),
			attaches: make(map[mem.SegID]int),
		}
		if cfg.NewDSM != nil {
			s.DSM = cfg.NewDSM(env{s})
		} else {
			s.Eng = core.New(env{s}, cfg.Engine)
			s.DSM = s.Eng
		}
		c.sites = append(c.sites, s)
		site := s
		c.Net.Bind(netsim.SiteID(i), func(m netsim.Message) {
			site.DSM.Deliver(m.Payload)
		})
	}
	return c
}

// Sites returns the number of sites.
func (c *Cluster) Sites() int { return len(c.sites) }

// Site returns site i.
func (c *Cluster) Site(i int) *Site { return c.sites[i] }

// Run drains the simulation (until no process is runnable and no event
// pending).
func (c *Cluster) Run() { c.K.Run() }

// RunFor advances virtual time by d.
func (c *Cluster) RunFor(d time.Duration) { c.K.RunFor(d) }

// Proc is a simulated user process.
type Proc struct {
	site *Site
	task *sched.Task
	pid  int32
	uid  int

	attached map[mem.SegID]*Shm
}

// Spawn starts a process at the site running fn. uid 0 is a
// reasonable default for single-user experiments.
func (s *Site) Spawn(name string, uid int, fn func(p *Proc)) *Proc {
	p := &Proc{site: s, pid: s.c.nextPid, uid: uid, attached: make(map[mem.SegID]*Shm)}
	s.c.nextPid++
	p.task = s.CPU.Spawn(name, func(t *sched.Task) {
		fn(p)
		// Detach anything still attached on exit, as UNIX does — in
		// segment-id order, not map order: exit cleanup sends release
		// traffic, and a schedule-deterministic simulation must not
		// let Go's map iteration pick its sequence.
		ids := make([]mem.SegID, 0, len(p.attached))
		for id := range p.attached {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if h := p.attached[id]; !h.detached {
				p.shmdt(h)
			}
		}
	})
	p.task.RemapPages = func() int {
		n := 0
		for _, h := range p.attached {
			if !h.detached {
				n += h.seg.Pages
			}
		}
		return n
	}
	return p
}

// Pid returns the process id.
func (p *Proc) Pid() int32 { return p.pid }

// Site returns the process's site id.
func (p *Proc) Site() int { return p.site.id }

// Task exposes the scheduler task (for Compute/Yield/Sleep in
// workloads).
func (p *Proc) Task() *sched.Task { return p.task }

// Compute consumes CPU time (workload work).
func (p *Proc) Compute(d time.Duration) { p.task.Compute(d) }

// Yield relinquishes the CPU — the paper's yield() system call (§7.2).
func (p *Proc) Yield() { p.task.Yield() }

// Sleep blocks the process for d.
func (p *Proc) Sleep(d time.Duration) { p.task.Sleep(d) }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.site.c.K.Now().Duration() }

// Shmget locates or creates a segment (System V shmget).
func (p *Proc) Shmget(key mem.Key, size int, flags, mode int) (mem.SegID, error) {
	seg, err := p.site.c.Registry.GetSegment(key, size, flags, mode, p.uid, p.site.id)
	if err != nil {
		return 0, err
	}
	if seg.Library == p.site.id && !p.site.DSM.Attached(int32(seg.ID)) {
		p.site.DSM.CreateSegment(seg)
	}
	return seg.ID, nil
}

// Shmat attaches a segment into the process (System V shmat). readonly
// attaches reject writes at the interface, as SHM_RDONLY does.
func (p *Proc) Shmat(id mem.SegID, readonly bool) (*Shm, error) {
	seg, err := p.site.c.Registry.Attach(id, p.uid, !readonly)
	if err != nil {
		return nil, err
	}
	p.site.DSM.AttachSegment(seg)
	p.site.attaches[id]++
	h := &Shm{proc: p, seg: seg, readonly: readonly}
	p.attached[id] = h
	return h, nil
}

// Shmdt detaches (System V shmdt). The cluster-wide last detach
// destroys the segment (§2.2).
func (p *Proc) Shmdt(h *Shm) error {
	if h.detached {
		return ErrDetached
	}
	return p.shmdt(h)
}

func (p *Proc) shmdt(h *Shm) error {
	h.detached = true
	delete(p.attached, h.seg.ID)
	s := p.site
	s.attaches[h.seg.ID]--
	lastLocal := s.attaches[h.seg.ID] == 0
	destroyed, err := s.c.Registry.Detach(h.seg.ID)
	if err != nil {
		return err
	}
	if destroyed {
		for _, site := range s.c.sites {
			site.DSM.DestroySegment(int32(h.seg.ID))
		}
		return nil
	}
	if lastLocal {
		s.DSM.ReleaseSegment(int32(h.seg.ID))
	}
	return nil
}

// Shmctl-style removal (IPC_RMID).
func (p *Proc) ShmRemove(id mem.SegID) error {
	return p.site.c.Registry.Remove(id, p.uid)
}

// Shm is an attached segment: the process's window onto shared memory.
type Shm struct {
	proc     *Proc
	seg      *mem.Segment
	readonly bool
	detached bool
}

// Seg returns the segment metadata.
func (h *Shm) Seg() *mem.Segment { return h.seg }

// access runs fn over each page-aligned chunk of [off, off+n) once the
// page is accessible, faulting and sleeping as needed.
func (h *Shm) access(off, n int, write bool, fn func(frame []byte, frameOff, bufOff, k int)) error {
	if h.detached {
		return ErrDetached
	}
	if write && h.readonly {
		return ErrReadOnly
	}
	if off < 0 || n < 0 || off+n > h.seg.Size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBounds, off, off+n, h.seg.Size)
	}
	eng := h.proc.site.DSM
	segID := int32(h.seg.ID)
	ps := h.seg.PageSize
	bufOff := 0
	for n > 0 {
		page := off / ps
		fo := off % ps
		k := ps - fo
		if k > n {
			k = n
		}
		faultStart := time.Duration(-1)
		for {
			if h.seg.Removed() {
				return ErrDetached
			}
			if eng.CheckAccess(segID, int32(page), write) == mmu.NoFault {
				break
			}
			if faultStart < 0 {
				faultStart = h.proc.Now()
			}
			// Fault: ask the protocol for the page and sleep until the
			// local state changes, then recheck (the hardware retries
			// the faulting instruction).
			eng.Fault(segID, int32(page), write, h.proc.pid, h.proc.task.Wakeup)
			h.proc.task.Block()
			if err := eng.FaultError(segID, int32(page)); err != nil {
				return err
			}
		}
		if faultStart >= 0 {
			lat := h.proc.Now() - faultStart
			h.proc.site.c.FaultLatency.Observe(int64(lat))
		}
		frame := eng.Frame(segID, int32(page))
		fn(frame, fo, bufOff, k)
		// Op record for the coherence checker; a pointer test when
		// tracing is off.
		eng.RecordOp(segID, int32(page), fo, write, frame[fo:fo+k])
		off += k
		bufOff += k
		n -= k
	}
	return nil
}

// ReadAt copies len(b) bytes from the segment at off into b.
func (h *Shm) ReadAt(b []byte, off int) error {
	return h.access(off, len(b), false, func(frame []byte, fo, bo, k int) {
		copy(b[bo:bo+k], frame[fo:fo+k])
	})
}

// WriteAt copies b into the segment at off.
func (h *Shm) WriteAt(b []byte, off int) error {
	return h.access(off, len(b), true, func(frame []byte, fo, bo, k int) {
		copy(frame[fo:fo+k], b[bo:bo+k])
	})
}

// Uint32 reads a 32-bit little-endian word (the VAX byte order).
func (h *Shm) Uint32(off int) (uint32, error) {
	var v uint32
	err := h.access(off, 4, false, func(frame []byte, fo, bo, k int) {
		for i := 0; i < k; i++ {
			v |= uint32(frame[fo+i]) << (8 * uint(bo+i))
		}
	})
	return v, err
}

// SetUint32 writes a 32-bit little-endian word.
func (h *Shm) SetUint32(off int, v uint32) error {
	return h.access(off, 4, true, func(frame []byte, fo, bo, k int) {
		for i := 0; i < k; i++ {
			frame[fo+i] = byte(v >> (8 * uint(bo+i)))
		}
	})
}

// AddUint32 adds delta to the 32-bit word at off under write access —
// a read-modify-write like the VAX decrement instruction, whose
// faulting access is a write fault. It returns the new value.
func (h *Shm) AddUint32(off int, delta uint32) error {
	return h.access(off, 4, true, func(frame []byte, fo, bo, k int) {
		if k != 4 {
			// Word split across pages: fall back to byte-serial RMW
			// within this access (both pages are writable here only if
			// the span fit one page; reject instead).
			panic("ipc: AddUint32 across a page boundary")
		}
		v := uint32(frame[fo]) | uint32(frame[fo+1])<<8 | uint32(frame[fo+2])<<16 | uint32(frame[fo+3])<<24
		v += delta
		frame[fo] = byte(v)
		frame[fo+1] = byte(v >> 8)
		frame[fo+2] = byte(v >> 16)
		frame[fo+3] = byte(v >> 24)
	})
}

// TestAndSet performs the VAX interlocked test-and-set on one byte:
// it obtains write access, sets the byte to 1, and returns the old
// value. §7.2 measures (and recommends against) spinlocks built on it.
func (h *Shm) TestAndSet(off int) (old byte, err error) {
	err = h.access(off, 1, true, func(frame []byte, fo, bo, k int) {
		old = frame[fo]
		frame[fo] = 1
	})
	return old, err
}

// Clear sets one byte to zero with write access (spinlock release).
func (h *Shm) Clear(off int) error {
	return h.access(off, 1, true, func(frame []byte, fo, bo, k int) {
		frame[fo] = 0
	})
}
