package main

import (
	"bytes"
	"fmt"
	"time"

	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/transport"
	"mirage/internal/wire"
)

// Isolated layer probes, run by every traced run: the protocol engine
// without goroutines or transport, the wire codec alone, and one TCP
// round trip alone.

const (
	probeBatches   = 5
	handoffsPerRun = 20_000
	codecPerRun    = 200_000
	tcpRoundTrips  = 3_000
)

func runProbes(cfg config, r *report) error {
	if err := probeEngine(cfg, r); err != nil {
		return err
	}
	probeCodec(r)
	return probeTCP(r)
}

// syncNet wires two core.Engines through one FIFO of pending work, run
// on the calling goroutine: Send queues a delivery, Exec queues the
// function, After keeps a timer in virtual time that fires only when
// the FIFO is empty. No goroutines, no transport, no costs.
type syncNet struct {
	eng    [2]*core.Engine
	q      []syncItem
	now    time.Duration
	timers []*syncTimer
}

type syncItem struct {
	to int
	m  core.NetMsg
	fn func()
}

type syncTimer struct {
	at time.Duration
	fn func()
}

type syncEnv struct {
	n    *syncNet
	site int
}

func (e syncEnv) Site() int          { return e.site }
func (e syncEnv) Now() time.Duration { return e.n.now }

func (e syncEnv) After(d time.Duration, fn func()) func() {
	t := &syncTimer{at: e.n.now + d, fn: fn}
	e.n.timers = append(e.n.timers, t)
	return func() { t.fn = nil }
}

func (e syncEnv) Send(to int, m core.NetMsg)         { e.n.q = append(e.n.q, syncItem{to: to, m: m}) }
func (e syncEnv) Exec(cost time.Duration, fn func()) { e.n.q = append(e.n.q, syncItem{fn: fn}) }

// runUntil drains the FIFO, firing the earliest timer whenever it runs
// dry, until done reports true.
func (n *syncNet) runUntil(done func() bool) error {
	for !done() {
		if len(n.q) == 0 {
			if !n.fireTimer() {
				return fmt.Errorf("engine replay stalled: no work and no timers")
			}
			continue
		}
		for i := 0; i < len(n.q); i++ {
			it := n.q[i]
			n.q[i] = syncItem{}
			if it.fn != nil {
				it.fn()
			} else {
				n.eng[it.to].Deliver(it.m)
			}
		}
		n.q = n.q[:0]
	}
	return nil
}

func (n *syncNet) fireTimer() bool {
	best := -1
	for i, t := range n.timers {
		if t.fn != nil && (best < 0 || t.at < n.timers[best].at) {
			best = i
		}
	}
	if best < 0 {
		n.timers = n.timers[:0]
		return false
	}
	t := n.timers[best]
	n.timers = append(n.timers[:best], n.timers[best+1:]...)
	if t.at > n.now {
		n.now = t.at
	}
	fn := t.fn
	t.fn = nil
	fn()
	return true
}

// probeEngine replays the pingpong-inproc op sequence through two
// engines on a syncNet: each handoff is one write fault at the site not
// holding the page, then an increment of the shared word that must see
// the previous value.
func probeEngine(cfg config, r *report) error {
	n := &syncNet{}
	opts := core.Options{Costs: &core.Costs{}}
	for i := range n.eng {
		n.eng[i] = core.New(syncEnv{n, i}, opts)
	}
	meta := &mem.Segment{ID: 1, Key: 1, Size: pageBytes, PageSize: pageBytes, Pages: 1, Library: 0, Mode: 0o600}
	n.eng[0].CreateSegment(meta)
	n.eng[1].AttachSegment(meta)
	off := 4 * int(uint64(cfg.seed)%(pageBytes/4))
	var want uint32
	handoff := func(k int) error {
		e := n.eng[(k+1)&1]
		for e.CheckAccess(1, 0, true) != mmu.NoFault {
			woke := false
			e.Fault(1, 0, true, int32(100+k&1), func() { woke = true })
			if err := n.runUntil(func() bool { return woke }); err != nil {
				return err
			}
		}
		f := e.Frame(1, 0)
		got := uint32(f[off]) | uint32(f[off+1])<<8 | uint32(f[off+2])<<16 | uint32(f[off+3])<<24
		if got != want {
			return fmt.Errorf("engine replay: handoff %d read %d, want %d", k, got, want)
		}
		want++
		f[off], f[off+1], f[off+2], f[off+3] = byte(want), byte(want>>8), byte(want>>16), byte(want>>24)
		return nil
	}
	for k := 0; k < 1000; k++ { // warm-up
		if err := handoff(k); err != nil {
			return err
		}
	}
	var ns []time.Duration
	var allocs uint64
	k := 1000
	for b := 0; b < probeBatches; b++ {
		m0 := mallocs()
		t0 := time.Now()
		for i := 0; i < handoffsPerRun; i++ {
			if err := handoff(k); err != nil {
				r.problem("%v", err)
				return nil
			}
			k++
		}
		ns = append(ns, time.Since(t0)/handoffsPerRun)
		allocs += mallocs() - m0
	}
	r.set("core.handoff_ns", medianSeconds(ns)*1e9, "ns")
	r.set("core.allocs_per_handoff", float64(allocs)/float64(probeBatches*handoffsPerRun), "count")
	return nil
}

// codecSink keeps the decoded messages live so the loops are not
// optimized away.
var codecSink wire.Msg

// probeCodec times wire.Encode of a page-carrying message and
// wire.Decode of it and of a 3-reader KInval, checking each round trip.
func probeCodec(r *report) {
	data := make([]byte, pageBytes)
	for i := range data {
		data[i] = byte(i)
	}
	page := wire.Msg{Kind: wire.KPageSend, Mode: wire.Read, Seg: 1, Page: 2, Delta: time.Second, Data: data}
	inval := wire.Msg{Kind: wire.KInval, Mode: wire.Write, Seg: 3, Page: 17, From: 1, Req: 2,
		Readers: mmu.CopysetOf(0, 1, 3), Delta: 33 * time.Millisecond, Seq: 42}
	encPage := wire.Encode(nil, &page)
	encInval := wire.Encode(nil, &inval)
	if m, _, err := wire.Decode(encPage); err != nil || !bytes.Equal(m.Data, data) || m.Kind != page.Kind || m.Page != page.Page {
		r.problem("wire: page round trip: %v %v", err, m.String())
	}
	if m, _, err := wire.Decode(encInval); err != nil || !m.Readers.Equal(inval.Readers) || m.Req != inval.Req || m.Seq != inval.Seq {
		r.problem("wire: 3-reader KInval round trip: %v %v", err, m.String())
	}
	buf := make([]byte, 0, 2*len(encPage))
	encode := func() { buf = wire.Encode(buf[:0], &page) }
	decode := func(b []byte) func() {
		return func() {
			m, _, _ := wire.Decode(b)
			codecSink = m
		}
	}
	perOp := func(fn func()) (float64, float64) {
		var ns []time.Duration
		var allocs uint64
		for b := 0; b < probeBatches; b++ {
			m0 := mallocs()
			t0 := time.Now()
			for i := 0; i < codecPerRun; i++ {
				fn()
			}
			ns = append(ns, time.Since(t0))
			allocs += mallocs() - m0
		}
		return medianSeconds(ns) * 1e9 / codecPerRun, float64(allocs) / float64(probeBatches*codecPerRun)
	}
	enc, _ := perOp(encode)
	decPage, _ := perOp(decode(encPage))
	decInval, allocs := perOp(decode(encInval))
	r.set("wire.encode_page_ns", enc, "ns")
	r.set("wire.decode_page_ns", decPage, "ns")
	r.set("wire.decode_inval3_ns", decInval, "ns")
	r.set("wire.decode_allocs", allocs, "count")
}

// probeTCP times single round trips between two TCP transport sites:
// site 0 sends a control message, site 1 replies.
func probeTCP(r *report) error {
	done := make(chan struct{}, 1)
	m0, err := transport.NewTCPSite(0, "127.0.0.1:0", func(*wire.Msg) { done <- struct{}{} })
	if err != nil {
		return err
	}
	defer m0.Close()
	var m1 *transport.TCPMesh
	m1, err = transport.NewTCPSite(1, "127.0.0.1:0", func(m *wire.Msg) {
		_ = m1.Send(0, &wire.Msg{Kind: wire.KInstalled, Seg: m.Seg}) // a lost reply shows as a timeout below
	})
	if err != nil {
		return err
	}
	defer m1.Close()
	addrs := []string{m0.Addr(), m1.Addr()}
	m0.SetPeers(addrs)
	m1.SetPeers(addrs)
	req := &wire.Msg{Kind: wire.KReadReq, Seg: 7}
	rtts := make([]int64, 0, tcpRoundTrips)
	timeout := time.NewTimer(time.Minute)
	defer timeout.Stop()
	for i := 0; i < tcpRoundTrips+100; i++ {
		t0 := time.Now()
		if err := m0.Send(1, req); err != nil {
			return err
		}
		select {
		case <-done:
		case <-timeout.C:
			return fmt.Errorf("tcp probe: round trip %d timed out", i)
		}
		if i >= 100 { // the first round trips dial the circuits
			rtts = append(rtts, int64(time.Since(t0)))
		}
	}
	sortInt64(rtts)
	r.set("transport.tcp_rtt_us", float64(quantile(rtts, 0.5))/1e3, "us")
	return nil
}
