package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"dvsim/internal/fault"
	"dvsim/internal/sweep"
)

// Warm-state Monte Carlo forking.
//
// A Snapshot pins one experiment's deterministic state at a quiescent
// frame boundary — the warm point — and forks many futures from it:
// each fork replays the identical history up to the warm point, then
// diverges under a per-fork fault seed. Capturing goroutine stacks is
// not an option in Go, so the snapshot is replay-based: what it stores
// is the physical state the simulation provably passes through (battery
// charge, frames delivered, wire accounting), and every fork re-derives
// that state byte-for-byte before its future begins. Fork verifies the
// passage on each run, so a snapshot that drifted from the code or
// parameters that produced it fails loudly instead of silently
// diverging.
//
// The "warm" in warm-state is the process, not the snapshot: the
// snapshot run leaves the process-wide pools (rendezvous offers, frame
// jobs, record slabs) charged with the experiment's working set, so the forks that follow allocate almost nothing. A
// thousand-seed Monte Carlo study runs at the cost of the simulated
// events alone.

// NodeState is one node's captured physical state at the warm point.
type NodeState struct {
	Name string
	// Dead reports a spent battery; FramesProcessed and ResultsSent are
	// the node's workload counters.
	Dead            bool
	FramesProcessed int
	ResultsSent     int
	// SoC and DeliveredMAh pin the battery's exact charge state.
	SoC          float64
	DeliveredMAh float64
}

// Snapshot is an experiment's captured state at the warm point,
// produced by TakeSnapshot. It is immutable; its Fork and MonteCarlo
// methods are safe to call concurrently.
type Snapshot struct {
	// ID and Params identify the run the snapshot was taken from.
	ID     ID
	Params Params
	// WarmS is the capture instant in simulated seconds, quantized to a
	// frame boundary by TakeSnapshot.
	WarmS float64
	// Frames is the number of results the host had received by WarmS.
	Frames int
	// Nodes and Ports are the captured per-node and per-port state, in
	// deterministic (index, name) order.
	Nodes []NodeState
	Ports []PortStat
}

// TakeSnapshot simulates an experiment to the warm point and captures
// its state. warmS is quantized to the nearest frame boundary (at least
// one frame): frame boundaries are the pipeline's quiescent instants,
// where no transfer is mid-wire by construction. Experiments 0A/0B have
// no I/O and cannot be snapshotted, matching RunTelemetry.
func TakeSnapshot(id ID, p Params, warmS float64) (*Snapshot, error) {
	if warmS <= 0 {
		return nil, fmt.Errorf("core: non-positive warm point %v", warmS)
	}
	frames := math.Round(warmS / p.FrameDelayS)
	if frames < 1 {
		frames = 1
	}
	w := frames * p.FrameDelayS
	snap := &Snapshot{ID: id, Params: p, WarmS: w}
	take := &capture{atS: w, fn: func(e *engine) error {
		snap.capture(e)
		return nil
	}}
	if _, err := exec(context.Background(), snapshotJob(id, p, w, nil), take); err != nil {
		return nil, err
	}
	return snap, nil
}

// snapshotJob is the instrumented run a snapshot is taken from and its
// forks replay with a telemetry log. The recorder's observers are pure
// reads, so a fork passes through exactly the state TakeSnapshot
// captured at the warm point.
func snapshotJob(id ID, p Params, untilS float64, log io.Writer) Job {
	return Job{Exp: id, Params: p, UntilS: untilS, Log: log, Options: Options{Instrument: true}}
}

// capture reads the engine's physical state into the snapshot.
func (s *Snapshot) capture(e *engine) {
	s.Frames = e.delivered
	s.Nodes = s.Nodes[:0]
	for _, n := range e.nodes {
		bat := n.Power().Battery()
		s.Nodes = append(s.Nodes, NodeState{
			Name:            n.Name,
			Dead:            n.Dead(),
			FramesProcessed: n.FramesProcessed,
			ResultsSent:     n.ResultsSent,
			SoC:             bat.StateOfCharge(),
			DeliveredMAh:    bat.DeliveredMAh(),
		})
	}
	s.Ports = portStatsOf(e.net)
}

// verify compares the engine's state at the warm point against the
// snapshot, field-exact: the simulation is deterministic, so any
// difference — down to the last bit of battery charge — means the fork
// is not replaying the snapshot's history (changed code, changed
// parameters) and its divergence would not be attributable to its seed.
func (s *Snapshot) verify(e *engine) error {
	var got Snapshot
	got.capture(e)
	if got.Frames != s.Frames {
		return fmt.Errorf("core: fork diverged from snapshot at %gs: %d frames delivered, snapshot has %d", s.WarmS, got.Frames, s.Frames)
	}
	if len(got.Nodes) != len(s.Nodes) || len(got.Ports) != len(s.Ports) {
		return fmt.Errorf("core: fork diverged from snapshot at %gs: %d nodes / %d ports vs snapshot's %d / %d",
			s.WarmS, len(got.Nodes), len(got.Ports), len(s.Nodes), len(s.Ports))
	}
	for i, n := range got.Nodes {
		if n != s.Nodes[i] {
			return fmt.Errorf("core: fork diverged from snapshot at %gs: %s state %+v, snapshot has %+v",
				s.WarmS, n.Name, n, s.Nodes[i])
		}
	}
	for i, pt := range got.Ports {
		if pt != s.Ports[i] {
			return fmt.Errorf("core: fork diverged from snapshot at %gs: port %s stats %+v, snapshot has %+v",
				s.WarmS, pt.Port, pt.PortStats, s.Ports[i].PortStats)
		}
	}
	return nil
}

// forkScenario derives a fork's fault scenario: the snapshot run's
// scenario (explicit Params.Faults, or 2D's built-in load, or none)
// with the link-fault stream reseeded at the warm point. The shared
// Seed reproduces the snapshot's history exactly; the per-fork seed
// takes over from WarmS on.
func (s *Snapshot) forkScenario(seed uint64) *fault.Scenario {
	var sc fault.Scenario
	switch {
	case s.Params.Faults != nil:
		sc = *s.Params.Faults
	case s.ID == Exp2D:
		sc = *DefaultFaultScenario()
	}
	sc.ReseedAtS = s.WarmS
	sc.ReseedSeed = seed
	return &sc
}

// Fork replays the snapshot's history and runs one divergent future: a
// full telemetry run (RunTelemetry's format, ordering and bytes) whose
// fault stream switches to the given seed at the warm point. At the
// warm point the replay's state is verified against the snapshot,
// field-exact; verification only reads, so the output stays
// byte-identical to a cold RunTelemetry under the same reseeded
// scenario — the property TestForkMatchesColdRun gates. untilS must
// reach past the warm point. It returns the number of records that
// fully reached w; ctx cancels the fork as it cancels Exec.
func (s *Snapshot) Fork(ctx context.Context, seed uint64, untilS float64, w io.Writer) (int, error) {
	if untilS <= s.WarmS {
		return 0, fmt.Errorf("core: fork horizon %v not past the warm point %v", untilS, s.WarmS)
	}
	p := s.Params
	p.Faults = s.forkScenario(seed)
	c := &recordCounter{w: w}
	_, err := exec(ctx, snapshotJob(s.ID, p, untilS, c), &capture{atS: s.WarmS, fn: s.verify})
	return c.n, err
}

// ForkResult is one Monte Carlo fork's outcome digest.
type ForkResult struct {
	// Seed is the fork's fault seed from the warm point on.
	Seed uint64
	// Records is the fork's telemetry record count; Sum64 is the FNV-1a
	// digest of its telemetry bytes. Equal digests mean byte-identical
	// futures (seeds whose divergence never materialized); the digest
	// spread is the study's headline answer.
	Records int
	Sum64   uint64
	// Err is the fork's failure, nil on success. A verification failure
	// (snapshot drift) surfaces here.
	Err error
}

// MonteCarlo forks one future per seed and digests each fork's
// telemetry, running up to `workers` forks in parallel (≤ 0 selects
// GOMAXPROCS). Results are in seed order. Every fork shares the
// snapshot's history up to WarmS and diverges only by its seed; the
// forks recycle one another's working set through the process-wide
// pools, so a thousand-seed study allocates like a single run.
func (s *Snapshot) MonteCarlo(seeds []uint64, untilS float64, workers int) []ForkResult {
	return sweep.Run(seeds, workers, func(seed uint64) ForkResult {
		h := fnv.New64a()
		n, err := s.Fork(context.Background(), seed, untilS, h)
		return ForkResult{Seed: seed, Records: n, Sum64: h.Sum64(), Err: err}
	})
}
