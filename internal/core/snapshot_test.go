package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

// TestSnapshotQuantizesWarmPoint pins the frame-boundary contract: the
// capture instant lands on a multiple of D, never between frames.
func TestSnapshotQuantizesWarmPoint(t *testing.T) {
	p := DefaultParams()
	for _, warm := range []float64{1, 45, 46.7, 100.1} {
		snap, err := TakeSnapshot(Exp2, p, warm)
		if err != nil {
			t.Fatalf("TakeSnapshot(%v): %v", warm, err)
		}
		frames := snap.WarmS / p.FrameDelayS
		if math.Abs(frames-math.Round(frames)) > 1e-9 || snap.WarmS <= 0 {
			t.Errorf("warm %v: WarmS %v is not a positive frame boundary (D=%v)", warm, snap.WarmS, p.FrameDelayS)
		}
		if math.Abs(snap.WarmS-warm) > p.FrameDelayS {
			t.Errorf("warm %v quantized to %v, more than one frame away", warm, snap.WarmS)
		}
	}
}

func TestSnapshotRejectsBadInput(t *testing.T) {
	p := DefaultParams()
	if _, err := TakeSnapshot(Exp2, p, 0); err == nil {
		t.Error("TakeSnapshot with zero warm point succeeded")
	}
	if _, err := TakeSnapshot(Exp0A, p, 60); err == nil {
		t.Error("TakeSnapshot of a no-I/O experiment succeeded")
	}
	snap, err := TakeSnapshot(Exp2D, p, 60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Fork(context.Background(), 1, snap.WarmS, new(bytes.Buffer)); err == nil {
		t.Error("Fork with horizon at the warm point succeeded")
	}
}

// TestSnapshotCapturesState sanity-checks the captured fields: by 60 s
// the two-node pipeline has delivered frames and drawn charge.
func TestSnapshotCapturesState(t *testing.T) {
	snap, err := TakeSnapshot(Exp2D, DefaultParams(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Frames == 0 {
		t.Error("no frames delivered by the warm point")
	}
	if len(snap.Nodes) != 2 {
		t.Fatalf("captured %d nodes, want 2", len(snap.Nodes))
	}
	for _, n := range snap.Nodes {
		if n.Dead {
			t.Errorf("%s dead at the warm point", n.Name)
		}
		if n.SoC >= 1 || n.SoC <= 0 || n.DeliveredMAh <= 0 {
			t.Errorf("%s: implausible battery state SoC=%v delivered=%v", n.Name, n.SoC, n.DeliveredMAh)
		}
	}
	if len(snap.Ports) == 0 {
		t.Error("no port stats captured")
	}
}

// TestForkMatchesColdRun is the tentpole gate: a fork — replayed
// history, warm-point verification, reseeded future — must be
// byte-identical to a cold RunTelemetry under the same reseeded
// scenario. This is what makes a Monte Carlo study's forks honest
// samples of the cold-run distribution.
func TestForkMatchesColdRun(t *testing.T) {
	p := DefaultParams()
	const until = 200.0
	snap, err := TakeSnapshot(Exp2D, p, 46)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 99} {
		var forked bytes.Buffer
		nf, err := snap.Fork(context.Background(), seed, until, &forked)
		if err != nil {
			t.Fatalf("Fork(%d): %v", seed, err)
		}
		pc := p
		pc.Faults = snap.forkScenario(seed)
		var cold bytes.Buffer
		nc, err := RunTelemetry(Exp2D, pc, until, &cold)
		if err != nil {
			t.Fatalf("cold run (seed %d): %v", seed, err)
		}
		if nf != nc {
			t.Errorf("seed %d: fork wrote %d records, cold run %d", seed, nf, nc)
		}
		if !bytes.Equal(forked.Bytes(), cold.Bytes()) {
			t.Errorf("seed %d: fork output differs from cold run (%d vs %d bytes)",
				seed, forked.Len(), cold.Len())
		}
	}
}

// TestForkVerifiesWarmState pins the drift guard: a snapshot that no
// longer matches the replayed history must fail the fork, not silently
// attribute code or parameter drift to the fork's seed.
func TestForkVerifiesWarmState(t *testing.T) {
	snap, err := TakeSnapshot(Exp2D, DefaultParams(), 46)
	if err != nil {
		t.Fatal(err)
	}
	snap.Nodes[0].DeliveredMAh += 1e-9
	_, err = snap.Fork(context.Background(), 1, 120, new(bytes.Buffer))
	if err == nil {
		t.Fatal("fork from a drifted snapshot succeeded")
	}
	if !strings.Contains(err.Error(), "diverged from snapshot") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestMonteCarloForks runs a small seed sweep: results come back in
// seed order, every fork succeeds, repeated seeds digest identically
// (determinism), and distinct seeds actually diverge under 2D's fault
// load.
func TestMonteCarloForks(t *testing.T) {
	snap, err := TakeSnapshot(Exp2D, DefaultParams(), 46)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{3, 7, 11, 3}
	res := snap.MonteCarlo(seeds, 200, 2)
	if len(res) != len(seeds) {
		t.Fatalf("%d results for %d seeds", len(res), len(seeds))
	}
	digests := make(map[uint64]bool)
	for i, r := range res {
		if r.Seed != seeds[i] {
			t.Errorf("result %d: seed %d, want %d", i, r.Seed, seeds[i])
		}
		if r.Err != nil {
			t.Errorf("seed %d: %v", r.Seed, r.Err)
		}
		if r.Records == 0 {
			t.Errorf("seed %d: no records", r.Seed)
		}
		digests[r.Sum64] = true
	}
	if res[0].Sum64 != res[3].Sum64 || res[0].Records != res[3].Records {
		t.Errorf("seed 3 forked twice gave different digests: %x vs %x", res[0].Sum64, res[3].Sum64)
	}
	if len(digests) < 2 {
		t.Errorf("all %d seeds produced one digest %x; fault futures did not diverge", len(seeds), res[0].Sum64)
	}
}
