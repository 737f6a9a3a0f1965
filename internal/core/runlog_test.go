package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestRunLoggedEmitsOrderedEvents(t *testing.T) {
	p := DefaultParams()
	var buf bytes.Buffer
	n, err := runLogged(Exp2, p, 5*p.FrameDelayS, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n < 20 {
		t.Fatalf("only %d records", n)
	}
	var prev float64 = -1
	counts := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r LogRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad record %q: %v", sc.Text(), err)
		}
		if r.T < prev {
			t.Fatalf("records out of order at t=%v", r.T)
		}
		prev = r.T
		counts[r.Event]++
		if r.Event == "mode" {
			if r.End < r.T || r.Node == "" || r.Mode == "" {
				t.Fatalf("bad mode record: %+v", r)
			}
		}
	}
	if counts["mode"] == 0 {
		t.Fatal("no mode records")
	}
	if counts["result"] < 3 {
		t.Fatalf("%d results in 5 frame periods", counts["result"])
	}
	if counts["death"] != 0 {
		t.Fatal("nobody should die in 11.5 s")
	}
}

func TestRunLoggedModesCoverBothNodes(t *testing.T) {
	p := DefaultParams()
	var buf bytes.Buffer
	if _, err := runLogged(Exp2, p, 4*p.FrameDelayS, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"node":"node1"`, `"node":"node2"`, `"mode":"communication"`, `"mode":"computation"`} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %s", want)
		}
	}
}

func TestRunLoggedRejectsBadWindow(t *testing.T) {
	var buf bytes.Buffer
	if _, err := runLogged(Exp1, DefaultParams(), 0, &buf); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestRunTelemetryContextCancellation(t *testing.T) {
	p := DefaultParams()
	job := Job{Exp: Exp1, Params: p, UntilS: 120, Options: Options{Instrument: true}}
	// An already-expired context abandons the run before it starts and
	// writes nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	job.Log = &buf
	if _, err := Exec(ctx, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err=%v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("cancelled run wrote %d bytes, want 0", buf.Len())
	}
	// An uncancelled run under a cancellable context polls it and stays
	// byte-identical to RunTelemetry: the poll must not perturb the
	// simulation.
	live, stop := context.WithCancel(context.Background())
	defer stop()
	var plain, polled bytes.Buffer
	if _, err := RunTelemetry(Exp1, p, 120, &plain); err != nil {
		t.Fatal(err)
	}
	job.Log = &polled
	if _, err := Exec(live, job); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), polled.Bytes()) {
		t.Fatal("context-aware run diverged from RunTelemetry output")
	}
}

// runLogged writes the plain event log of an experiment's first until
// seconds to w and returns the record count.
func runLogged(id ID, p Params, until float64, w io.Writer) (int, error) {
	c := &recordCounter{w: w}
	_, err := Exec(context.Background(), Job{Exp: id, Params: p, UntilS: until, Log: c})
	return c.n, err
}
