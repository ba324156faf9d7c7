package exp

import (
	"bytes"
	"errors"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/check"
	"mirage/internal/core"
	"mirage/internal/ipc"
	"mirage/internal/mem"
	"mirage/internal/obs"
)

// ---------------------------------------------------------------------------
// E22 — beyond the paper: consensus-replicated library records
// (Failover.Replicas, DESIGN.md §15). E18 priced reactive takeover:
// the successor interrogates every surviving holder and rebuilds the
// page records from their reports, an outage bounded below by a network
// round trip to the slowest survivor. This experiment prices the
// proactive alternative — every record mutation is mirrored to a
// follower quorum before it is acknowledged, so the elected follower
// installs from its own log tail with no interrogation at all — and
// measures what the standby costs while nothing is failing.
//
// The sweep crosses replication factor {off, 2, 4} with a clean run and
// a leader fail-stop, then adds the two non-leader failure modes at
// R=2: a follower crash (the group degrades but the leader keeps
// granting) and a quorum loss (leader and one of two followers die
// together, forcing the election to fall back to E18's holder rebuild).
// Every point's trace re-verifies through the coherence checker,
// including the two replication invariants (log-prefix,
// acked-append-lost).

// ReplicationPoint is one cell of the E22 grid: a failure scenario at a
// replication factor, measured over a contended counter workload.
type ReplicationPoint struct {
	Name     string // clean | leader-crash | follower-crash | quorum-loss
	Replicas int    // replication factor R (0 = KRecover baseline)

	Completed  bool          // workload finished with the exact expected total
	Final      uint32        // final counter value observed
	Want       uint32        // incrementers × increments
	Elapsed    time.Duration // virtual time to completion
	Throughput float64       // increments per virtual second

	Failovers  int // takeover triggers across all sites
	Recoveries int // completed takeovers (either path)
	Elections  int // takeovers completed from the replicated log
	Appends    int // log entries appended by leaders
	Commits    int // entries acknowledged by a follower quorum
	Degraded   int // gated mutations released without quorum

	// RecoverLatency is, per takeover, the virtual time from the first
	// failover trigger to the successor resuming grants (trace
	// EvFailover → EvRecover).
	RecoverLatency []time.Duration
	// UnavailMs is the longest single accessor operation in the run,
	// ms: the user-visible unavailable-request window around a crash.
	UnavailMs float64

	Events     int // trace events verified
	Violations int // coherence violations (must be 0)
	// TraceJSONL is the run's full schema-v1 trace, replayable through
	// miragetrace (timeline/check).
	TraceJSONL []byte
}

// ReplicationSweepResult is the whole E22 run.
type ReplicationSweepResult struct {
	Points []ReplicationPoint
	// ReplayMatches reports the determinism check: the leader-crash R=2
	// point run twice produced identical timings and counters.
	ReplayMatches bool
}

// replSites is the E22 cluster size: large enough for an R=4 group
// (leader + 4 followers) plus two never-crashed incrementer sites.
const replSites = 7

// runReplicationWorkload drives the contended counter workload at the
// given replication factor with the listed sites fail-stopped at 400ms.
func runReplicationWorkload(name string, replicas, perSite int, crash []int) ReplicationPoint {
	plan := &chaos.Plan{Seed: 42}
	for _, s := range crash {
		plan.Crashes = append(plan.Crashes, chaos.Crash{Site: s, From: 400 * time.Millisecond})
	}
	o := obs.New()
	engOpts := core.Options{
		Reliability: failoverRel(),
		Failover:    &core.Failover{Replicas: replicas},
		Obs:         o,
	}
	c := ipc.NewCluster(replSites, ipc.Config{Chaos: plan, Engine: engOpts})

	pt := ReplicationPoint{Name: name, Replicas: replicas, Want: uint32(2 * perSite)}
	var doneAt time.Duration
	var maxStall time.Duration
	// Site 0 creates the segment (initial library and log leader),
	// writes the seed value, and idles into its crash window.
	c.Site(0).Spawn("lib", 0, func(p *ipc.Proc) {
		id, err := p.Shmget(0x4522, 512, mem.Create, rwMode)
		if err != nil {
			return
		}
		h, err := p.Shmat(id, false)
		if err != nil {
			return
		}
		h.SetUint32(0, 0)
		p.Sleep(10 * time.Minute)
	})
	// Sites 1..4 attach without accessing: silent members covering the
	// largest replication group. An unattached site refuses the log
	// stream (it has no segment state to mirror into) and gets benched,
	// so the standbys are what make them real followers — and, on a
	// leader crash, takeover candidates with populated logs.
	for i := 1; i < replSites-2; i++ {
		c.Site(i).Spawn("standby", 0, func(p *ipc.Proc) {
			var id mem.SegID
			for {
				var err error
				id, err = p.Shmget(0x4522, 512, 0, 0)
				if err == nil {
					break
				}
				p.Sleep(time.Millisecond)
			}
			if _, err := p.Shmat(id, false); err != nil {
				return
			}
			p.Sleep(10 * time.Minute)
		})
	}
	// Sites 5 and 6 — outside every replication group and never
	// crashed — do the increments, paced so the workload straddles the
	// crash window. Each op's duration is tracked: the longest one is
	// the user-visible unavailability.
	for i := replSites - 2; i < replSites; i++ {
		site := c.Site(i)
		last := i == replSites-1
		marker := 4 * (i - (replSites - 3)) // per-site done-marker word
		site.Spawn("inc", 0, func(p *ipc.Proc) {
			var id mem.SegID
			for {
				var err error
				id, err = p.Shmget(0x4522, 512, 0, 0)
				if err == nil {
					break
				}
				p.Sleep(time.Millisecond)
			}
			h, err := p.Shmat(id, false)
			if err != nil {
				return
			}
			add := func(off int) {
				start := p.Now()
				for {
					if err := h.AddUint32(off, 1); err == nil {
						break
					} else if !errors.Is(err, core.ErrUnreachable) {
						return
					}
					p.Sleep(50 * time.Millisecond)
				}
				if d := p.Now() - start; d > maxStall {
					maxStall = d
				}
			}
			for k := 0; k < perSite; k++ {
				add(0)
				p.Sleep(100 * time.Millisecond)
			}
			add(marker)
			if last {
				for {
					a, erra := h.Uint32(4)
					b, errb := h.Uint32(8)
					if erra == nil && errb == nil && a == 1 && b == 1 {
						break
					}
					p.Sleep(20 * time.Millisecond)
				}
				v, _ := h.Uint32(0)
				pt.Final = v
				doneAt = p.Now()
			}
			p.Sleep(10 * time.Minute) // hold the attach past the run
		})
	}
	c.RunFor(5 * time.Minute)
	pt.Completed = pt.Final == pt.Want
	pt.Elapsed = doneAt
	if doneAt > 0 {
		pt.Throughput = float64(pt.Want) / doneAt.Seconds()
	}
	pt.UnavailMs = float64(maxStall.Microseconds()) / 1e3
	for i := 0; i < replSites; i++ {
		st := c.Site(i).Eng.Stats()
		pt.Failovers += st.Failovers
		pt.Recoveries += st.Recoveries
		pt.Elections += st.Elections
		pt.Appends += st.Appends
		pt.Commits += st.ReplCommits
		pt.Degraded += st.ReplDegraded
	}
	events := o.Buffer().Events()
	trigger := time.Duration(-1)
	for _, ev := range events {
		switch ev.Type {
		case obs.EvFailover:
			if trigger < 0 {
				trigger = ev.T
			}
		case obs.EvRecover:
			if trigger >= 0 {
				pt.RecoverLatency = append(pt.RecoverLatency, ev.T-trigger)
				trigger = -1
			}
		}
	}
	pt.Events = len(events)
	pt.Violations = len(check.Verify(check.Config{Sites: replSites, Reliable: true}, events))
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, obs.NewHeader(obs.ClockVirtual, replSites), events); err == nil {
		pt.TraceJSONL = buf.Bytes()
	}
	return pt
}

// replicationGrid is the E22 scenario set. The crash lists name sites
// by their group role: 0 is the leader, 1..R its followers.
func replicationGrid() []struct {
	name     string
	replicas int
	crash    []int
} {
	return []struct {
		name     string
		replicas int
		crash    []int
	}{
		{"clean", 0, nil},
		{"clean", 2, nil},
		{"clean", 4, nil},
		{"leader-crash", 0, []int{0}},
		{"leader-crash", 2, []int{0}},
		{"leader-crash", 4, []int{0}},
		// The correlated crash fells the library together with a
		// bystander holder (site 4, outside the R=2 group): the holder
		// rebuild must wait out the dead bystander's ARQ give-up before
		// committing, while the log election never consults it.
		{"correlated-crash", 0, []int{0, 4}},
		{"correlated-crash", 2, []int{0, 4}},
		{"follower-crash", 2, []int{1}},
		{"quorum-loss", 2, []int{0, 2}},
	}
}

// ReplicationSweep runs the E22 grid plus a determinism double-run of
// the leader-crash R=2 point. Every scenario is an independent
// deterministic cluster, so the set fans out across the worker pool.
func ReplicationSweep(perSite int) ReplicationSweepResult {
	grid := replicationGrid()
	var r ReplicationSweepResult
	r.Points = make([]ReplicationPoint, len(grid))
	n := len(grid)
	replay := make([]ReplicationPoint, 2)
	sweepTasks(n+2, func(i int) {
		if i < n {
			g := grid[i]
			r.Points[i] = runReplicationWorkload(g.name, g.replicas, perSite, g.crash)
			return
		}
		replay[i-n] = runReplicationWorkload("leader-crash", 2, perSite, []int{0})
	})
	r.ReplayMatches = replay[0].Elapsed == replay[1].Elapsed &&
		replay[0].Recoveries == replay[1].Recoveries &&
		replay[0].Appends == replay[1].Appends &&
		replay[0].UnavailMs == replay[1].UnavailMs &&
		bytes.Equal(replay[0].TraceJSONL, replay[1].TraceJSONL)
	return r
}
