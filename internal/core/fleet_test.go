package core

import (
	"reflect"
	"testing"

	"dvsim/internal/assert"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
	"dvsim/internal/topology"
)

// TestFleetChainRoutesThroughPipeline: a serial topology graph must be
// exactly the pipeline engine under another entry point — same frames,
// same node accounting — so manifests expressing the paper's shapes
// inherit all of its behavior (rotation, recovery, telemetry).
func TestFleetChainRoutesThroughPipeline(t *testing.T) {
	p := DefaultParams()
	g := topology.Serial(3, topology.Config{})
	opts := Options{MaxFrames: 40}
	got := RunTopology("serial/3", p, g, opts)

	stages := make([]StageConfig, len(g.Nodes))
	for i, ns := range g.Nodes {
		stages[i] = StageConfig{Compute: ns.Compute, Comm: ns.Comm, Idle: ns.Idle, RefS: ns.RefS, OutKB: ns.OutKB}
	}
	want := RunCustom("serial/3", p, stages, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chain topology diverged from RunCustom:\n got %+v\nwant %+v", got, want)
	}
	if got.Frames != 40 {
		t.Fatalf("bounded chain delivered %d frames, want 40", got.Frames)
	}
}

// TestFleetTreeDelivers: a bounded aggregation tree delivers exactly one
// aggregate per round, with every vertex doing work.
func TestFleetTreeDelivers(t *testing.T) {
	p := DefaultParams()
	g := topology.Tree(2, 2, topology.Config{})
	out := RunTopology("tree/2x2", p, g, Options{MaxFrames: 20})
	if out.Nodes != 7 {
		t.Fatalf("tree has %d nodes, want 7", out.Nodes)
	}
	if out.Frames != 20 {
		t.Fatalf("tree delivered %d aggregates, want 20", out.Frames)
	}
	for _, ns := range out.NodeStats {
		if ns.FramesProcessed == 0 {
			t.Fatalf("node %s processed nothing", ns.Name)
		}
	}
	// Determinism: an identical run is byte-identical in outcome.
	again := RunTopology("tree/2x2", p, g, Options{MaxFrames: 20})
	if !reflect.DeepEqual(out, again) {
		t.Fatal("tree run is not deterministic")
	}
}

// TestFleetOnResult: the graph engine reports every result reaching the
// host collector to Options.OnResult, as the pipeline engine does.
func TestFleetOnResult(t *testing.T) {
	var frames []int
	out := RunTopology("tree/2x2", DefaultParams(), topology.Tree(2, 2, topology.Config{}), Options{
		MaxFrames: 20,
		OnResult:  func(frame int, _ any) { frames = append(frames, frame) },
	})
	if out.Frames != 20 || len(frames) != out.Frames {
		t.Fatalf("OnResult saw %d results of %d delivered, want 20", len(frames), out.Frames)
	}
	for i, f := range frames {
		if f != i {
			t.Fatalf("result %d is frame %d", i, f)
		}
	}
}

// TestFleetWideRoundRobin: a wide pipeline splits frames across stage
// replicas; every frame still arrives exactly once.
func TestFleetWideRoundRobin(t *testing.T) {
	p := DefaultParams()
	g := topology.Wide(2, 2, topology.Config{})
	out := RunTopology("wide/2x2", p, g, Options{MaxFrames: 40})
	if out.Frames != 40 {
		t.Fatalf("wide pipeline delivered %d frames, want 40", out.Frames)
	}
	// Each stage-1 replica sees every second frame.
	for _, name := range []string{"node1", "node2"} {
		for _, ns := range out.NodeStats {
			if ns.Name == name && ns.FramesProcessed != 20 {
				t.Fatalf("%s processed %d frames, want 20", name, ns.FramesProcessed)
			}
		}
	}
}

// TestFleetMeshUnderFaults: seeded link faults on a mesh inject
// deterministically and the fleet keeps producing.
func TestFleetMeshUnderFaults(t *testing.T) {
	p := DefaultParams()
	p.Faults = &fault.Scenario{
		Seed:  7,
		Links: []fault.LinkFault{{DropRate: 0.05, GarbleRate: 0.02}},
	}
	g := topology.Mesh(4, 2, topology.Config{})
	out := RunTopology("mesh/4x2", p, g, Options{MaxFrames: 60})
	if out.FaultStats.Drops+out.FaultStats.Garbles == 0 {
		t.Fatal("scenario injected nothing")
	}
	if out.Frames == 0 {
		t.Fatal("mesh delivered nothing under a 5% drop rate")
	}
	again := RunTopology("mesh/4x2", p, g, Options{MaxFrames: 60})
	if !reflect.DeepEqual(out, again) {
		t.Fatal("faulted mesh run is not deterministic")
	}
}

// TestFleetGoverned: the per-round governor control loop runs on the
// worker engine and its accounting lands in NodeStats.
func TestFleetGoverned(t *testing.T) {
	p := DefaultParams()
	g := topology.Tree(2, 2, topology.Config{})
	out := RunTopology("tree/governed", p, g, Options{
		MaxFrames: 30,
		Governor:  governor.Spec{Name: "interval"},
	})
	if out.Governor == "" {
		t.Fatal("outcome does not name the governor")
	}
	decisions := 0
	for _, ns := range out.NodeStats {
		decisions += ns.GovDecisions
	}
	if decisions == 0 {
		t.Fatal("no governor decisions on a governed fleet")
	}
}

// TestFleetAssertions: the runtime-verification layer works over fleet
// telemetry: a satisfiable invariant checks clean, an unsatisfiable one
// is caught.
func TestFleetAssertions(t *testing.T) {
	min, max := 0.0, 1.0
	clean := &assert.Spec{
		Name: "fleet-sanity",
		Assertions: []assert.Assertion{
			{
				Name:   "soc-in-range",
				Type:   "bound",
				Select: assert.Select{Event: "sample", Metric: "battery_soc"},
				Min:    &min, Max: &max,
			},
			{
				Name:      "soc-monotone",
				Type:      "monotone",
				Select:    assert.Select{Event: "sample", Metric: "battery_soc"},
				Direction: "nonincreasing",
				Tol:       1e-9,
			},
		},
	}
	p := DefaultParams()
	g := topology.Mesh(3, 1, topology.Config{})
	out := RunTopology("mesh/checked", p, g, Options{MaxFrames: 20, Assertions: clean})
	if out.AssertionsRun != 2 {
		t.Fatalf("ran %d assertions, want 2", out.AssertionsRun)
	}
	if out.ViolationTotal != 0 {
		t.Fatalf("clean spec reported %d violations: %+v", out.ViolationTotal, out.Violations)
	}

	impossible := -1.0
	broken := &assert.Spec{
		Name: "fleet-broken",
		Assertions: []assert.Assertion{{
			Name:   "soc-negative",
			Type:   "bound",
			Select: assert.Select{Event: "sample", Metric: "battery_soc"},
			Max:    &impossible,
		}},
	}
	out = RunTopology("mesh/broken", p, g, Options{MaxFrames: 20, Assertions: broken})
	if out.ViolationTotal == 0 {
		t.Fatal("unsatisfiable spec reported no violations")
	}
}

// TestRunExperimentBound: the bounded entry point caps pipeline
// experiments and leaves unbounded ones identical to Run.
func TestRunExperimentBound(t *testing.T) {
	p := DefaultParams()
	out := RunExperiment(Exp2, p, 50)
	if out.Frames != 50 {
		t.Fatalf("bounded run delivered %d frames, want 50", out.Frames)
	}
	full := RunExperiment(Exp1, p, 0)
	direct := Run(Exp1, p)
	if !reflect.DeepEqual(full, direct) {
		t.Fatal("unbounded RunExperiment diverged from Run")
	}
}

// TestRunGovernorPolicyMatchesStudy: the single-policy entry point is
// one point of RunGovernorStudy, byte for byte.
func TestRunGovernorPolicyMatchesStudy(t *testing.T) {
	p := DefaultParams()
	study := RunGovernorStudy(p, 0, 120)
	specs := GovernorStudySpecs()
	for i, s := range specs {
		got := RunGovernorPolicy(p, s, 120)
		if !reflect.DeepEqual(got, study[i]) {
			t.Fatalf("policy %s diverged from the study run", s.String())
		}
	}
}
