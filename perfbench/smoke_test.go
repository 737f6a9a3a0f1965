package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestWorkloadsSmoke runs every workload once on a tiny window and
// checks that it passes its own output checks and fills every
// end-to-end metric.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper suite and the telemetry streams once each")
	}
	state := t.TempDir()
	bin := filepath.Join(state, "dvsimd")
	if out, err := exec.Command("go", "build", "-o", bin, "dvsim/cmd/dvsimd").CombinedOutput(); err != nil {
		t.Fatalf("building dvsimd: %v\n%s", err, out)
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			c := &config{workload: name, seed: 5, seconds: 1, root: "..", state: state, dvsimd: bin, setups: 1}
			rep, err := run(c)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", rep.failed, rep.attempted, rep.failures)
			}
			for _, d := range endToEnd {
				if v := rep.e2e[d.Name]; !(v > 0) {
					t.Errorf("%s = %v", d.Name, v)
				}
			}
			if len(rep.counters) == 0 {
				t.Error("no exact counters")
			}
		})
	}
}
