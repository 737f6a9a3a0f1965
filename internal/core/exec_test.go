package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"dvsim/internal/atr"
	"dvsim/internal/cpu"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
	"dvsim/internal/node"
	"dvsim/internal/topology"
)

// execOK runs a job that must succeed.
func execOK(t testing.TB, j Job) Outcome {
	t.Helper()
	out, err := Exec(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTraceHonoursFaults checks that a trace sink sees the same run as
// the telemetry log of the same job: under a 30% drop scenario, each
// node's mode spans must equal the log's "mode" records one for one.
// The scenario must reach traced runs too (it once did not).
func TestTraceHonoursFaults(t *testing.T) {
	p := DefaultParams()
	p.Faults = &fault.Scenario{Seed: 5, Links: []fault.LinkFault{{DropRate: 0.3}}}
	var trace, clean [][]node.ModeSpan
	var log bytes.Buffer
	out := execOK(t, Job{Exp: Exp2B, Params: p, UntilS: 600, Log: &log, Trace: &trace,
		Options: Options{Instrument: true}})
	if out.FaultStats.Drops == 0 {
		t.Fatal("the scenario injected no drops")
	}
	want := make([][]LogRecord, len(trace))
	sc := bufio.NewScanner(&log)
	for sc.Scan() {
		var r LogRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Event != "mode" {
			continue
		}
		i := map[string]int{"node1": 0, "node2": 1}[r.Node]
		want[i] = append(want[i], r)
	}
	if len(trace) != 2 {
		t.Fatalf("trace has %d nodes, want 2", len(trace))
	}
	for i := range trace {
		if len(trace[i]) != len(want[i]) {
			t.Fatalf("node %d: %d traced spans, %d mode records", i+1, len(trace[i]), len(want[i]))
		}
		for k, sp := range trace[i] {
			r := want[i][k]
			if float64(sp.Start) != r.T || float64(sp.End) != r.End || sp.Mode.String() != r.Mode || sp.Op.FreqMHz != r.MHz {
				t.Fatalf("node %d span %d: traced %+v, logged %+v", i+1, k, sp, r)
			}
		}
	}
	p.Faults = nil
	execOK(t, Job{Exp: Exp2B, Params: p, UntilS: 600, Trace: &clean})
	if reflect.DeepEqual(trace, clean) {
		t.Fatal("the fault scenario left the trace unchanged")
	}
}

// TestExecCancelsInFlight cancels each kind of job from its own OnResult
// callback at frame 10: the run must stop mid-flight and return
// context.Canceled.
func TestExecCancelsInFlight(t *testing.T) {
	p := DefaultParams()
	best, err := p.BestTwoNodeScheme()
	if err != nil {
		t.Fatal(err)
	}
	jobs := map[string]Job{
		"exp":    {Exp: Exp2},
		"stages": {Stages: StagesFromPartition(best, true), Label: "stages"},
		"graph":  {Graph: topology.Tree(2, 2, topology.Config{}), Label: "tree"},
	}
	for name, j := range jobs {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			frames := 0
			j.Params = p
			j.OnResult = func(frame int, _ any) {
				if frames++; frames == 10 {
					cancel()
				}
			}
			_, err := Exec(ctx, j)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if frames >= 1000 {
				t.Fatalf("%d results after cancellation at 10: the run was not stopped", frames)
			}
		})
	}
}

// TestExecCancelPollInvisible: an uncancelled, cancellable context
// installs the poll but changes nothing: the Outcome is identical, JSON
// byte for byte, to a Background run.
func TestExecCancelPollInvisible(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, j := range []Job{
		{Exp: Exp2D, Options: Options{MaxFrames: 300, Instrument: true}},
		{Graph: topology.Mesh(4, 2, topology.Config{}), Label: "mesh", Options: Options{MaxFrames: 60}},
	} {
		j.Params = DefaultParams()
		plain := execOK(t, j)
		polled, err := Exec(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(plain)
		b, _ := json.Marshal(polled)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: polled outcome differs from the Background run", plain.ID)
		}
	}
}

// TestExecRejectsBadJobs pins the job validation: each of these returns
// an error instead of running.
func TestExecRejectsBadJobs(t *testing.T) {
	p := DefaultParams()
	stages := []StageConfig{{Span: atr.FullSpan, Compute: cpu.MaxPoint, Comm: cpu.MinPoint}}
	for name, j := range map[string]Job{
		"nothing":         {},
		"two targets":     {Exp: Exp1, Stages: stages},
		"unknown":         {Exp: "9Z"},
		"exp with ack":    {Exp: Exp2, Options: Options{Ack: true}},
		"ack on one node": {Stages: stages, Options: Options{Ack: true}},
		"3A ungoverned":   {Exp: Exp3A},
		"log no window":   {Exp: Exp1, Log: new(bytes.Buffer)},
		"no-I/O window":   {Exp: Exp0A, UntilS: 10},
		"rotating mesh":   {Graph: topology.Mesh(4, 2, topology.Config{}), Options: Options{RotationPeriod: 5}},
		"bad governor":    {Exp: Exp3A, Params: Params{Governor: governor.Spec{Name: "interval", Tuning: map[string]float64{"alpha": 2}}}},
	} {
		gov := j.Params.Governor
		j.Params = p
		j.Params.Governor = gov
		if _, err := Exec(context.Background(), j); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
