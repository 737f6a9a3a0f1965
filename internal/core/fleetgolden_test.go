package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dvsim/internal/assert"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
	"dvsim/internal/topology"
)

var updateFleetGolden = flag.Bool("update", false, "rewrite the fleet golden file")

// fleetGoldenRuns are the worker-engine runs TestFleetGolden pins: a
// governed, faulted, instrumented mesh whose source and aggregator both
// crash and restart; a tree whose root (the sink) does; and the mesh
// again under an unsatisfiable catalog, so the assertion record path —
// mode traces, deaths, samples, results, faults, retries, governs — is
// pinned through Violations.
func fleetGoldenRuns() []Outcome {
	p := DefaultParams()
	meshFaults := &fault.Scenario{
		Seed:  7,
		Links: []fault.LinkFault{{DropRate: 0.05, GarbleRate: 0.02}},
		Crashes: []fault.Crash{
			{Node: "node1", AtS: 20, RestartAfterS: 15},
			{Node: "node5", AtS: 40, RestartAfterS: 10},
		},
	}
	mesh := Options{
		MaxFrames:  60,
		Instrument: true,
		Governor:   governor.Spec{Name: "interval"},
		Faults:     meshFaults,
	}
	tree := Options{
		MaxFrames:  40,
		Instrument: true,
		Faults: &fault.Scenario{
			Seed:    3,
			Crashes: []fault.Crash{{Node: "node1", AtS: 20, RestartAfterS: 15}},
		},
	}
	impossible := -1.0
	broken := mesh
	broken.Assertions = &assert.Spec{
		Name: "fleet-broken",
		Assertions: []assert.Assertion{{
			Name:   "soc-negative",
			Type:   "bound",
			Select: assert.Select{Event: "sample", Metric: "battery_soc"},
			Max:    &impossible,
		}},
	}
	return []Outcome{
		RunTopology("mesh/4x2", p, topology.Mesh(4, 2, topology.Config{}), mesh),
		RunTopology("tree/2x2", p, topology.Tree(2, 2, topology.Config{}), tree),
		RunTopology("mesh/broken", p, topology.Mesh(4, 2, topology.Config{}), broken),
	}
}

// TestFleetGolden pins the graph worker engine byte for byte: the
// JSON-encoded outcomes of fleetGoldenRuns, one per line, against a
// committed golden. Regenerate deliberately with
//
//	go test ./internal/core -run TestFleetGolden -update
func TestFleetGolden(t *testing.T) {
	var got bytes.Buffer
	for _, out := range fleetGoldenRuns() {
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(b)
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "fleet.golden")
	if *updateFleetGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range gl {
			if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("fleet run %d drifted from golden (%d vs %d bytes)", i, len(gl[i]), len(wl[min(i, len(wl)-1)]))
			}
		}
		t.Fatalf("fleet golden has %d lines, got %d", len(wl), len(gl))
	}
}
