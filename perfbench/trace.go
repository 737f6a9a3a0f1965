package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into the program. Parent
// is the index of the enclosing span (-1 at the root); Req groups the
// spans of one request or pass.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid no-op, so untraced code paths pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
}

// record adds an already-timed span (for spans measured on another
// goroutine's clock readings, such as a sweep worker's lines).
func (t *tracer) record(name string, start, end time.Time, parent int, req int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Req: req})
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Overlapping children
// (spans recorded from parallel workers) are merged first, so covered
// time is never counted twice and self time is never negative.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, iv := range ivs {
			switch {
			case !open:
				curLo, curHi, open = iv[0], iv[1], true
			case iv[0] <= curHi:
				curHi = max(curHi, iv[1])
			default:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// write dumps the spans as JSON Lines, one span per line, with the
// index each Parent refers to.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			ID int `json:"id"`
			span
		}{i, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
