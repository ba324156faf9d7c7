package main

// The traced run's machinery: the observability sink and its counters,
// the coherence check, and the benchmark's own spans around every client
// op and Segment call.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mirage"
	"mirage/internal/obs"
)

// traceCap bounds the traced phase's event buffer. The phase stops
// once traceStop events are buffered, so the buffer never drops an
// event and VerifyTrace always sees the whole history.
const (
	traceCap  = 1 << 21
	traceStop = 1 << 20
)

// hopEvery spaces the actor-hop probes: one Site.Stats round trip per
// hopEvery client ops, a low rate next to the ops themselves.
const hopEvery = 512

// tracedObs returns an observability sink whose trace buffer holds a
// whole traced phase without dropping events.
func tracedObs() *mirage.Obs {
	return &obs.Obs{Metrics: obs.NewRegistry(), Tracer: obs.NewBufferCap(traceCap)}
}

// traceFull reports when the traced phase must end to keep the buffer
// from dropping events.
func traceFull(o *mirage.Obs) func() bool {
	return func() bool { return o.Buffer().Len() >= traceStop }
}

// counterSnap is the cluster-wide total of every obs counter.
type counterSnap map[obs.Counter]int64

func snapCounters(o *mirage.Obs) counterSnap {
	s := counterSnap{}
	for _, c := range obs.Counters() {
		s[c] = o.Metrics.Total(c)
	}
	return s
}

// sub returns the counts accumulated since before.
func (s counterSnap) sub(before counterSnap) counterSnap {
	out := counterSnap{}
	for c, v := range s {
		out[c] = v - before[c]
	}
	return out
}

// busyReplies sums the sites' KBusy counters.
func busyReplies(c *mirage.Cluster) int {
	n := 0
	for i := 0; i < c.Sites(); i++ {
		n += c.Site(i).Stats().BusyReplies
	}
	return n
}

// setProtocolLayers reports the per-layer ratios that come from the
// program's own counters over a traced window of ops client ops and
// calls Segment calls.
func (r *report) setProtocolLayers(d counterSnap, busy int, ops, calls int64) {
	faults := float64(d[obs.CReadFault] + d[obs.CWriteFault])
	fops := float64(ops)
	r.set("access.calls_per_op", ratio(float64(calls), fops), "count")
	r.set("access.faults_per_op", ratio(faults, fops), "count")
	hit := 1 - ratio(faults, float64(calls))
	if hit < 0 {
		hit = 0
	}
	r.set("access.hit_ratio", hit, "ratio")
	r.set("core.msgs_per_fault", ratio(float64(d[obs.CMsgSent]), faults), "count")
	r.set("core.invals_per_fault", ratio(float64(d[obs.CInvalSent]), faults), "count")
	r.set("core.grant_cycles_per_fault", ratio(float64(d[obs.CGrantCycle]), faults), "count")
	r.set("core.busy_replies_per_fault", ratio(float64(busy), faults), "count")
	r.set("wire.bytes_per_op", ratio(float64(d[obs.CWireByte]), fops), "B")
	r.set("transport.frames_per_flush", ratio(float64(d[obs.CFlushFrame]), float64(d[obs.CFlushBatch])), "count")
	r.set("transport.flushes_per_op", ratio(float64(d[obs.CFlushBatch]), fops), "count")
	r.set("transport.bytes_per_op", ratio(float64(d[obs.CFlushByte]), fops), "B")
}

// verify runs the coherence checker over the cluster's whole trace and
// reports the check layer; any violation or dropped event fails the
// run.
func (r *report) verify(c *mirage.Cluster, o *mirage.Obs) {
	dropped := o.Buffer().Dropped()
	t0 := time.Now()
	vs, err := c.VerifyTrace()
	r.set("check.verify_s", time.Since(t0).Seconds(), "s")
	r.set("check.violations", float64(len(vs)), "count")
	r.set("check.dropped_events", float64(dropped), "count")
	r.set("check.events", float64(o.Buffer().Len()), "count")
	if err != nil {
		r.problem("trace verification: %v", err)
	}
	for i, v := range vs {
		if i == 3 {
			break
		}
		r.problem("coherence violation: %v", v)
	}
}

// Span names. A client op's span carries one of the op names; the
// Segment calls it makes carry the seg names and the op's id.
const (
	spRead uint8 = iota
	spWrite
	spAdd
	spGet
	spPut
	spCAS
	spDelete
	spSegRead
	spSegWrite
	spSegTAS
	spSegClear
	spanKinds
)

var spanNames = [spanKinds]string{
	"op.read", "op.write", "op.add", "op.get", "op.put", "op.cas", "op.delete",
	"seg.read", "seg.write", "seg.tas", "seg.clear",
}

// span is one timed interval of the traced phase, in ns since the
// recorder's base.
type span struct {
	op         int64
	kind       uint8
	start, end int64
}

// spans records one client goroutine's spans; it is not shared.
type spans struct {
	base time.Time
	op   int64 // id of the op in progress; its Segment calls inherit it
	buf  []span
	hops []int64 // actor-hop probe round trips, ns
}

func newSpans(base time.Time, capacity int) *spans {
	return &spans{base: base, buf: make([]span, 0, capacity)}
}

func (s *spans) now() int64 { return int64(time.Since(s.base)) }

// full reports that the preallocated span storage is used up.
func (s *spans) full() bool { return len(s.buf) >= cap(s.buf)-16 }

func (s *spans) add(kind uint8, start int64) int64 {
	end := s.now()
	s.buf = append(s.buf, span{op: s.op, kind: kind, start: start, end: end})
	return end - start
}

// opDurations returns the durations (ns) of op spans of the given
// kinds, all op kinds when none are given.
func opDurations(recs []*spans, kinds ...uint8) []int64 {
	var out []int64
	for _, s := range recs {
		for _, sp := range s.buf {
			if sp.kind >= spSegRead {
				continue
			}
			if len(kinds) == 0 || containsKind(kinds, sp.kind) {
				out = append(out, sp.end-sp.start)
			}
		}
	}
	return out
}

func containsKind(kinds []uint8, k uint8) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// childDurations returns the Segment-call span durations and, per op,
// the op span's self time: its duration minus its children's, which
// run sequentially inside it on the same goroutine.
func childDurations(recs []*spans) (calls, self []int64) {
	for _, s := range recs {
		var covered int64
		for _, sp := range s.buf {
			d := sp.end - sp.start
			if sp.kind >= spSegRead {
				calls = append(calls, d)
				covered += d
				continue
			}
			self = append(self, d-covered)
			covered = 0
		}
	}
	return calls, self
}

// writeSpans writes every recorded span as TSV under dir, one line
// per span: op id, span name, start and duration in ns. Spans of one
// op share its id; the op.* span is the parent of the seg.* spans.
func writeSpans(dir, name string, recs []*spans) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".tsv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tspan\tstart_ns\tdur_ns")
	for _, s := range recs {
		base := int64(s.base.Sub(recs[0].base))
		for _, sp := range s.buf {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\n", sp.op, spanNames[sp.kind], base+sp.start, sp.end-sp.start)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setHops reports the actor-hop probe quantiles.
func (r *report) setHops(recs []*spans) {
	var hops []int64
	for _, s := range recs {
		hops = append(hops, s.hops...)
	}
	sortInt64(hops)
	r.set("actor.hop_p50_ns", float64(quantile(hops, 0.50)), "ns")
	r.set("actor.hop_p99_ns", float64(quantile(hops, 0.99)), "ns")
	r.set("actor.hop_samples", float64(len(hops)), "count")
}

// hop times one Site.Stats round trip through the site's actor loop.
func (s *spans) hop(site *mirage.Site) {
	t0 := time.Now()
	site.Stats()
	s.hops = append(s.hops, int64(time.Since(t0)))
}

// setAccessCalls reports the access-layer call quantiles.
func (r *report) setAccessCalls(calls []int64) {
	sortInt64(calls)
	r.set("access.call_p50_ns", float64(quantile(calls, 0.50)), "ns")
	r.set("access.call_p99_ns", float64(quantile(calls, 0.99)), "ns")
}

// setOverhead reports how much slower the median op ran traced.
func (r *report) setOverhead(untracedP50, tracedP50 float64) {
	r.set("obs.trace_overhead_frac", ratio(tracedP50, untracedP50)-1, "frac")
}
