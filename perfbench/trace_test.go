package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "pass", Start: 0, End: 100, Parent: -1},
		{Name: "run", Start: 10, End: 40, Parent: 0},
		{Name: "write", Start: 15, End: 20, Parent: 1},
		{Name: "write", Start: 30, End: 35, Parent: 1},
		{Name: "run", Start: 50, End: 90, Parent: 0},
		// Parallel workers: overlapping children are counted once.
		{Name: "line", Start: 55, End: 70, Parent: 4},
		{Name: "line", Start: 60, End: 80, Parent: 4},
		// A child that outlives its parent only covers the overlap.
		{Name: "late", Start: 85, End: 120, Parent: 4},
	}
	want := []int64{100 - 30 - 40, 30 - 10, 5, 5, 40 - 25 - 5, 15, 20, 35}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var none *tracer
	if id := none.begin("x", -1, 0); id != -1 {
		t.Fatal("nil tracer must not record")
	}
	none.end(-1)

	tr := newTracer()
	outer := tr.begin("outer", -1, 7)
	inner := tr.begin("inner", outer, 7)
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[outer].End < tr.spans[inner].End {
		t.Fatalf("spans not nested: %+v", tr.spans)
	}
	self := selfTimes(tr.spans)
	if want := tr.spans[outer].dur() - tr.spans[inner].dur(); self[outer] != want {
		t.Errorf("outer self %d, want duration minus child %d", self[outer], want)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != 2 || !strings.Contains(string(b), `"parent":0`) {
		t.Errorf("written spans:\n%s", b)
	}
}
