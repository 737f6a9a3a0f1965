package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestProcRunsAndWaits(t *testing.T) {
	k := NewKernel()
	var marks []Time
	k.Spawn("worker", func(p *Proc) {
		marks = append(marks, p.Now())
		if err := p.Wait(2); err != nil {
			t.Errorf("Wait: %v", err)
		}
		marks = append(marks, p.Now())
		if err := p.Wait(3); err != nil {
			t.Errorf("Wait: %v", err)
		}
		marks = append(marks, p.Now())
	})
	k.Run()
	want := []Time{0, 2, 5}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestSpawnAtDelaysStart(t *testing.T) {
	k := NewKernel()
	var started Time = -1
	k.SpawnAt(4, "late", func(p *Proc) { started = p.Now() })
	k.Run()
	if started != 4 {
		t.Fatalf("started at %v, want 4", started)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	k := NewKernel()
	var order []string
	mk := func(name string, d Duration) {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				if p.Wait(d) != nil {
					return
				}
				order = append(order, name)
			}
		})
	}
	mk("a", 1)
	mk("b", 1)
	k.Run()
	// Same wait durations, a spawned first, so a always precedes b at each
	// instant.
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestInterruptWakesWaiter(t *testing.T) {
	k := NewKernel()
	var gotErr error
	var gotAt Time
	p := k.Spawn("sleeper", func(p *Proc) {
		gotErr = p.Wait(100)
		gotAt = p.Now()
	})
	k.At(5, func() { p.Interrupt("poke") })
	k.Run()
	if !errors.Is(gotErr, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", gotErr)
	}
	if gotAt != 5 {
		t.Fatalf("woke at %v, want 5", gotAt)
	}
}

func TestInterruptAfterDoneIsNoop(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("quick", func(p *Proc) {})
	k.At(1, func() { p.Interrupt("late") })
	k.Run()
	if !p.Done() {
		t.Fatal("proc not done")
	}
}

func TestProcDoneFlag(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("w", func(p *Proc) { p.Wait(1) })
	if p.Done() {
		t.Fatal("done before run")
	}
	k.Run()
	if !p.Done() {
		t.Fatal("not done after run")
	}
}

func TestShutdownUnblocksStrandedProc(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "never")
	var sawShutdown bool
	k.Spawn("stranded", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				if kd, ok := r.(killed); ok && errors.Is(kd.err, ErrShutdown) {
					sawShutdown = true
				}
				panic(r)
			}
		}()
		c.Recv(p) // blocks forever; kernel shutdown must unwind it
		t.Error("Recv returned without shutdown")
	})
	k.At(1, func() {})
	k.Run()
	_ = sawShutdown // unwinding is internal; observable effect is Run returning
	if len(k.procs) != 0 {
		t.Fatalf("%d procs leaked after shutdown", len(k.procs))
	}
}

func TestWaitZeroYieldsToSameTimeEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("p", func(p *Proc) {
		order = append(order, "p1")
		p.Wait(0)
		order = append(order, "p2")
	})
	k.At(0, func() { order = append(order, "event") })
	k.Run()
	// The proc starts (its start event precedes the bare event), runs to
	// Wait(0), parks; the bare event fires; then the proc resumes.
	want := []string{"p1", "event", "p2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestWaitUntilPastReturnsPromptly(t *testing.T) {
	k := NewKernel()
	done := false
	k.Spawn("p", func(p *Proc) {
		p.Wait(5)
		if err := p.WaitUntil(1); err != nil { // already past
			t.Errorf("WaitUntil past: %v", err)
		}
		if p.Now() != 5 {
			t.Errorf("WaitUntil past advanced clock to %v", p.Now())
		}
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("proc did not finish")
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	k := NewKernel()
	var recovered bool
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
				// Swallow: the proc finishes normally after recovery.
			}
		}()
		p.Wait(-1)
	})
	k.Run()
	if !recovered {
		t.Fatal("negative Wait did not panic")
	}
}

func TestProcNamesAndKernelAccessors(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("alpha", func(p *Proc) {
		if p.Name() != "alpha" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Kernel() != k {
			t.Error("Kernel() mismatch")
		}
	})
	k.Run()
	if p.Err() != nil {
		t.Fatalf("Err = %v", p.Err())
	}
}

func TestManyProcsAllComplete(t *testing.T) {
	k := NewKernel()
	const n = 100
	doneCount := 0
	for i := 0; i < n; i++ {
		d := Duration(i) / 10
		k.Spawn("w", func(p *Proc) {
			if p.Wait(d) == nil {
				doneCount++
			}
		})
	}
	k.Run()
	if doneCount != n {
		t.Fatalf("%d of %d procs completed", doneCount, n)
	}
}

func TestTracerSeesLifecycle(t *testing.T) {
	k := NewKernel()
	rec := &Recorder{}
	k.SetTracer(rec)
	k.Spawn("traced", func(p *Proc) { p.Wait(1) })
	k.Run()
	var states []ProcState
	for _, r := range rec.Records {
		if r.Proc == "traced" {
			states = append(states, r.State)
		}
	}
	// created, running(start), blocked(wait), running(resume), done
	want := []ProcState{StateCreated, StateRunning, StateBlocked, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("states = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("states = %v, want %v", states, want)
		}
	}
}

func TestRecorderFilter(t *testing.T) {
	k := NewKernel()
	rec := &Recorder{Filter: func(name string) bool { return name == "keep" }}
	k.SetTracer(rec)
	k.Spawn("keep", func(p *Proc) {})
	k.Spawn("drop", func(p *Proc) {})
	k.Run()
	for _, r := range rec.Records {
		if r.Proc != "keep" {
			t.Fatalf("filter leaked record for %q", r.Proc)
		}
	}
	if len(rec.Records) == 0 {
		t.Fatal("no records for kept proc")
	}
}

func TestRecorderNilFilterKeepsAll(t *testing.T) {
	k := NewKernel()
	rec := &Recorder{}
	k.SetTracer(rec)
	k.Spawn("a", func(p *Proc) {})
	k.Spawn("b", func(p *Proc) {})
	k.Run()
	seen := map[string]bool{}
	for _, r := range rec.Records {
		seen[r.Proc] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("nil filter dropped records: saw %v", seen)
	}
}

func TestKernelStats(t *testing.T) {
	k := NewKernel()
	if k.Scheduled() != 0 || k.Fired() != 0 || k.QueueLen() != 0 || k.MaxQueueLen() != 0 {
		t.Fatal("fresh kernel has non-zero stats")
	}
	for i := 0; i < 3; i++ {
		k.At(Time(i+1), func() {})
	}
	if k.Scheduled() != 3 {
		t.Fatalf("Scheduled = %d, want 3", k.Scheduled())
	}
	if k.QueueLen() != 3 {
		t.Fatalf("QueueLen = %d, want 3", k.QueueLen())
	}
	k.Run()
	if k.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", k.Fired())
	}
	if k.QueueLen() != 0 {
		t.Fatalf("QueueLen after run = %d, want 0", k.QueueLen())
	}
	if k.MaxQueueLen() < 3 {
		t.Fatalf("MaxQueueLen = %d, want >= 3", k.MaxQueueLen())
	}
}

func TestProcStateString(t *testing.T) {
	cases := map[ProcState]string{
		StateCreated: "created",
		StateRunning: "running",
		StateBlocked: "blocked",
		StateDone:    "done",
		ProcState(9): "ProcState(9)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestJoinWaitsForCompletion(t *testing.T) {
	k := NewKernel()
	worker := k.Spawn("worker", func(p *Proc) { p.Wait(5) })
	var joinedAt Time = -1
	k.Spawn("waiter", func(p *Proc) {
		if err := p.Join(worker); err != nil {
			t.Errorf("Join: %v", err)
		}
		joinedAt = p.Now()
	})
	k.Run()
	if joinedAt != 5 {
		t.Fatalf("joined at %v, want 5", joinedAt)
	}
}

func TestJoinFinishedProcReturnsImmediately(t *testing.T) {
	k := NewKernel()
	worker := k.Spawn("worker", func(p *Proc) {})
	var joinedAt Time = -1
	k.SpawnAt(3, "waiter", func(p *Proc) {
		if err := p.Join(worker); err != nil {
			t.Errorf("Join: %v", err)
		}
		joinedAt = p.Now()
	})
	k.Run()
	if joinedAt != 3 {
		t.Fatalf("joined at %v, want 3", joinedAt)
	}
}

func TestJoinInterruptible(t *testing.T) {
	k := NewKernel()
	worker := k.Spawn("worker", func(p *Proc) { p.Wait(100) })
	var err error
	waiter := k.Spawn("waiter", func(p *Proc) { err = p.Join(worker) })
	k.At(2, func() { waiter.Interrupt("enough") })
	k.Run()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
}

func TestJoinManyWaiters(t *testing.T) {
	k := NewKernel()
	worker := k.Spawn("worker", func(p *Proc) { p.Wait(7) })
	done := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *Proc) {
			if p.Join(worker) == nil && p.Now() == 7 {
				done++
			}
		})
	}
	k.Run()
	if done != 5 {
		t.Fatalf("%d joiners woke correctly, want 5", done)
	}
}

// runRecovered runs fn and returns the value it panicked with, if any.
func runRecovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

func TestProcPanicSurfacesInRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(k *Kernel)
	}{
		{"Run", func(k *Kernel) { k.Run() }},
		{"RunUntil", func(k *Kernel) { k.RunUntil(10) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			bad := k.Spawn("bad", func(p *Proc) {
				p.Wait(1)
				panic("boom")
			})
			r := runRecovered(func() { tc.run(k) })
			if r != "boom" {
				t.Fatalf("%s recovered %v, want the process's panic value", tc.name, r)
			}
			if !bad.Done() {
				t.Fatal("panicking process not marked done")
			}
			if err := bad.Err(); err == nil || !strings.Contains(err.Error(), `"bad"`) || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("Err() = %v, want it to name the process and the panic", err)
			}
			if k.Now() != 1 {
				t.Fatalf("clock at %v, want 1 (the panicking event)", k.Now())
			}
		})
	}
}

func TestInterruptUnstartedFromRunningProc(t *testing.T) {
	k := NewKernel()
	rec := &Recorder{}
	k.SetTracer(rec)
	ran := false
	late := k.SpawnAt(5, "late", func(p *Proc) { ran = true })
	k.Spawn("early", func(p *Proc) {
		p.Wait(1)
		// late has not started: the interrupt resumes it directly, from
		// inside this process, and it finishes before Interrupt returns.
		late.Interrupt("cancel")
		if !late.Done() {
			t.Error("unstarted process not finished when Interrupt returned")
		}
		p.Wait(1)
	})
	k.Run()
	if ran {
		t.Fatal("interrupted process ran its body")
	}
	if !errors.Is(late.Err(), ErrInterrupted) {
		t.Fatalf("late.Err() = %v, want ErrInterrupted", late.Err())
	}
	if k.Now() != 2 {
		t.Fatalf("clock at %v, want 2: the canceled start event at 5 must not fire", k.Now())
	}
	var got []string
	for _, r := range rec.Records {
		if r.State == StateDone || r.State == StateBlocked {
			got = append(got, fmt.Sprintf("%v %s %v", r.T, r.Proc, r.State))
		}
	}
	want := []string{"0 early blocked", "1 late done", "1 early blocked", "2 early done"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

// settledGoroutines waits briefly for exiting goroutines to be reaped and
// returns the count once it is at most want (or the last count seen).
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestShutdownReleasesCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	never := NewChan[int](k, "never")
	for i := 0; i < 8; i++ {
		k.Spawn("blocked", func(p *Proc) { never.Recv(p) })
		k.Spawn("sleeper", func(p *Proc) { p.Wait(100) })
		k.Spawn("quick", func(p *Proc) { p.Wait(1) })
		k.SpawnAt(50, "unstarted", func(p *Proc) { t.Error("unstarted process ran") })
		k.SpawnDetached("detached", func(p *Proc) { p.Wait(1) })
		k.SpawnDetached("detached-blocked", func(p *Proc) { never.Recv(p) })
	}
	// A second wave reuses some of the finished detached processes and
	// leaves the rest idle on the free list.
	k.At(2, func() {
		for i := 0; i < 3; i++ {
			k.SpawnDetached("reused", func(p *Proc) { never.Recv(p) })
		}
	})
	k.RunUntil(10)
	if k.freeProc == nil {
		t.Fatal("no idle detached process on the free list; the test does not cover it")
	}
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("%d goroutines with processes parked, baseline %d: coroutines not counted", n, base)
	}
	k.Shutdown()
	if k.LiveProcs() != 0 || k.freeProc != nil {
		t.Fatalf("after Shutdown: %d live procs, free list empty %v", k.LiveProcs(), k.freeProc == nil)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Shutdown, baseline %d: process coroutines leaked", n, base)
	}
}

// TestShutdownAfterStopMidInstant stops a run between a wake and its
// posted resume (as a tripped cancel check does): Run keeps the
// processes, and Shutdown then ends every coroutine, the woken one
// included, instead of refusing to kill it.
func TestShutdownAfterStopMidInstant(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ch := NewChan[int](k, "ch")
	got := -1
	k.Spawn("receiver", func(p *Proc) {
		v, err := ch.Recv(p)
		if err == nil {
			got = v
		}
	})
	k.At(1, func() {
		ch.Send(7) // posts the receiver's resume at t=1
		k.Stop()
	})
	k.Run()
	if k.LiveProcs() != 1 {
		t.Fatalf("%d live processes after a stopped Run, want the woken receiver", k.LiveProcs())
	}
	k.Shutdown()
	if k.LiveProcs() != 0 || got != -1 {
		t.Fatalf("after Shutdown: %d live procs, received %d", k.LiveProcs(), got)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Shutdown, baseline %d", n, base)
	}
}
