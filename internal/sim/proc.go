package sim

import (
	"errors"
	"fmt"
	"iter"
)

// Errors returned from blocking process operations.
var (
	// ErrInterrupted is returned when another process interrupts a wait.
	ErrInterrupted = errors.New("sim: interrupted")
	// ErrShutdown is returned from blocking calls when the kernel shuts
	// the process down (queue drained or explicit Kill).
	ErrShutdown = errors.New("sim: shutdown")
	// ErrTimeout is returned by timed operations that expire.
	ErrTimeout = errors.New("sim: timeout")
	// ErrClosed is returned by operations on a closed channel.
	ErrClosed = errors.New("sim: channel closed")
)

// killed is the panic payload used to unwind a process being shut down.
type killed struct{ err error }

// killedShutdown is the pre-boxed shutdown payload. Shutdown unwinds
// every live process, so boxing a fresh value per panic would cost one
// allocation per parked process at every rig teardown.
var killedShutdown any = &killed{err: ErrShutdown}

// wakeMsg carries the reason a parked process is resumed.
type wakeMsg struct {
	err    error // nil for a normal wake
	reason any   // payload: interrupt reason or received value
}

// waiterRef identifies one blocking episode of a process: the block
// epoch seq only matches while the process is still parked in the block
// that registered the reference, so stale refs are harmless.
type waiterRef struct {
	p   *Proc
	seq uint64
}

// ProcState describes what a process is doing, for traces.
type ProcState int

// Process states reported to tracers.
const (
	StateCreated ProcState = iota
	StateRunning
	StateBlocked
	StateDone
)

func (s ProcState) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// Proc is a simulation process: sequential code running as a coroutine
// (iter.Pull) that the kernel resumes and the process suspends by
// explicit switches, never through the Go scheduler. At any instant at
// most one process (or event callback) executes; all others are parked
// inside their coroutines.
//
// Process bodies receive the Proc and use its blocking operations (Wait,
// WaitUntil, and the channel/resource operations in this package). Blocking
// operations return an error when the process is interrupted or the kernel
// shuts down; bodies should propagate such errors and return.
//
// A Proc allocates nothing per blocking operation: wakeups are delivered
// through hoisted callbacks guarded by a block-epoch counter, and timed
// waits reuse one embedded timer Event per process.
type Proc struct {
	k    *Kernel
	id   uint64
	name string

	// next switches into the process's coroutine and returns when the
	// process parks or finishes; yield, captured by the coroutine when it
	// first runs, switches back. stop retires an idle detached process.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// blockSeq numbers blocking episodes; armed is true from blockBegin
	// until the episode's wake is claimed. Together they make every
	// registered wake path one-shot: deliverAt(seq, …) is a no-op unless
	// seq names the current episode.
	blockSeq uint64
	armed    bool
	// starting marks the episode between Spawn and the start event.
	starting bool
	// timedOut records that the current episode's wake was claimed by
	// the deadline timer (a waiter that gave up, for Chan bookkeeping).
	timedOut bool
	// pending is the wake message the process reads when it is resumed.
	pending wakeMsg

	// blockedOp/blockedObj name the blocking call (e.g. "Recv", "data0")
	// for deadlock diagnostics, without building the combined string on
	// the hot path.
	blockedOp  string
	blockedObj string

	done    bool
	killErr error
	state   ProcState

	// joiners are woken when the process finishes.
	joiners []waiterRef

	// timer is the process's reusable deadline event: a process runs one
	// blocking operation at a time, so one handle serves every timed wait
	// (and doubles as the spawn start event). timerSeq/timerErr are the
	// episode and error the armed timer will deliver.
	timer    Event
	timerSeq uint64
	timerErr error

	// Hoisted callbacks, bound once per process so the hot wake/timer
	// paths never allocate closures.
	resumeFn func()
	timerFn  func()
	startFn  func()

	// body is the function the next activation runs. A detached process
	// serves one body per SpawnDetached and idles on the kernel free
	// list (linked by freeNext) between them.
	body     func(p *Proc)
	detached bool
	freeNext *Proc
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Err returns the error the process was terminated with, if any.
func (p *Proc) Err() error { return p.killErr }

// newProc builds a process and its coroutine, which serves Spawn and
// SpawnDetached alike: it runs bodies until one ends the process, idling
// between the bodies of a detached process until SpawnDetached reuses it
// or the kernel retires it with stop.
func newProc(k *Kernel, name string, fn func(p *Proc), detached bool) *Proc {
	p := &Proc{
		k:        k,
		name:     name,
		state:    StateCreated,
		body:     fn,
		detached: detached,
	}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		for p.run() && yield(struct{}{}) {
		}
	})
	p.resumeFn = func() { p.next() }
	p.timerFn = func() {
		if p.deliverAt(p.timerSeq, wakeMsg{err: p.timerErr}) {
			p.timedOut = true
		}
	}
	p.startFn = func() { p.start() }
	return p
}

// Spawn starts a new process at the current simulated time. The body fn
// begins executing when the kernel reaches the start event; Spawn itself
// returns immediately.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt starts a new process at absolute time t ≥ Now.
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := newProc(k, name, fn, false)
	k.procs[p] = struct{}{}
	p.beginStart(t)
	k.trace(p, StateCreated, "spawn")
	return p
}

// SpawnDetached starts a fire-and-forget process at the current time.
// The caller must not retain or share any reference to the process:
// finished detached processes (coroutine, embedded timer) are recycled
// through a kernel free-list, so a held pointer could alias a later,
// unrelated process. Use Spawn when the process must be observed
// (Join, Interrupt, Done) after spawning.
func (k *Kernel) SpawnDetached(name string, fn func(p *Proc)) {
	p := k.freeProc
	if p != nil {
		k.freeProc = p.freeNext
		p.freeNext = nil
		p.name = name
		p.done = false
		p.killErr = nil
		p.state = StateCreated
		p.body = fn
	} else {
		p = newProc(k, name, fn, true)
	}
	k.procs[p] = struct{}{}
	p.beginStart(k.now)
	k.trace(p, StateCreated, "spawn")
}

// beginStart queues the start event for a (re)spawned process. The
// embedded timer handle carries it; p.id is the start sequence number,
// preserving spawn-order determinism.
func (p *Proc) beginStart(t Time) {
	p.blockSeq++
	p.armed = true
	p.starting = true
	p.timedOut = false
	p.timer.fn = p.startFn
	p.k.Reschedule(&p.timer, t)
	p.id = p.timer.seq
}

// start fires from the start event and hands the process its first slice.
func (p *Proc) start() {
	if !p.armed || !p.starting {
		return
	}
	p.armed = false
	p.starting = false
	p.resume(wakeMsg{})
}

// run executes the pending body under the kill/panic protocol and
// reports whether the process goes on to idle on the detached free list.
// A panic other than a kill is recorded and re-raised; the coroutine
// carries it to the caller of next, so it surfaces in Run.
func (p *Proc) run() (again bool) {
	if err := p.pending.err; err != nil {
		// Killed before it ever ran.
		p.killErr = err
		p.finish(false)
		return false
	}
	defer func() {
		r := recover()
		kd, isKill := r.(*killed)
		switch {
		case isKill:
			p.killErr = kd.err
		case r != nil:
			p.killErr = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
		}
		again = r == nil && p.detached
		p.finish(again)
		if r != nil && !isKill {
			panic(r)
		}
	}()
	p.setState(StateRunning, "start")
	p.body(p)
	return
}

// finish marks the process done, wakes joiners and optionally releases
// it to the detached free-list. Control returns to the kernel when the
// coroutine next yields or returns.
func (p *Proc) finish(release bool) {
	p.done = true
	p.armed = false
	p.body = nil
	p.setState(StateDone, "done")
	delete(p.k.procs, p)
	for _, j := range p.joiners {
		j.p.deliverAt(j.seq, wakeMsg{})
	}
	p.joiners = p.joiners[:0]
	if release {
		p.freeNext = p.k.freeProc
		p.k.freeProc = p
	}
}

// resume hands control to the process with msg and returns when it parks
// again or finishes. Must be called from kernel context (an event
// callback), or from a running process for a process that has not
// started.
func (p *Proc) resume(msg wakeMsg) {
	p.pending = msg
	p.next()
}

// deliverAt wakes the process out of block episode seq with msg. Exactly
// one delivery per episode wins; the rest are no-ops. It reports whether
// the wake was consumed: false means the target had already given up
// (stale episode, or a same-instant timeout), so the caller may pass the
// wake to another waiter.
func (p *Proc) deliverAt(seq uint64, msg wakeMsg) bool {
	if p.blockSeq != seq {
		return false
	}
	if !p.armed {
		// Already woken this episode. A timeout means the waiter gave up
		// (skip it); any other wake is consumed — the resuming waiter is
		// responsible for passing the signal on.
		return !p.timedOut
	}
	p.armed = false
	p.timedOut = false
	if p.starting {
		// Unwinding a process that never started: drop the pending start
		// event and resume directly (pre-start interrupts and shutdown
		// may run when no further events are allowed to fire).
		p.starting = false
		p.k.Cancel(&p.timer)
		p.resume(msg)
		return true
	}
	p.pending = msg
	// Route the wake through the event queue so wake ordering is
	// determined by schedule order, never by the order of wake calls.
	p.k.post(p.resumeFn)
	return true
}

// blockBegin opens a new blocking episode and returns its epoch, which
// wake sources pass back through deliverAt.
func (p *Proc) blockBegin(op, obj string) uint64 {
	p.blockSeq++
	p.armed = true
	p.timedOut = false
	p.blockedOp, p.blockedObj = op, obj
	return p.blockSeq
}

// armTimer schedules the episode's deadline on the process's reusable
// timer event. On expiry the current episode (and only it) is woken with
// err.
func (p *Proc) armTimer(seq uint64, t Time, err error) {
	p.timerSeq = seq
	p.timerErr = err
	p.timer.fn = p.timerFn
	p.k.Reschedule(&p.timer, t)
}

// park suspends the process until the current episode's wake arrives.
// Shutdown unwinds the process via panic(killed{...}).
func (p *Proc) park() wakeMsg {
	p.state = StateBlocked
	if p.k.tracer != nil {
		p.k.tracer.ProcState(p.k.now, p, StateBlocked, p.blockedWhy())
	}
	p.yield(struct{}{})
	msg := p.pending
	p.blockedOp, p.blockedObj = "", ""
	if msg.err != nil && errors.Is(msg.err, ErrShutdown) {
		panic(killedShutdown)
	}
	p.setState(StateRunning, "resume")
	return msg
}

// blockedWhy renders the blocking call for diagnostics ("Recv data0").
func (p *Proc) blockedWhy() string {
	if p.blockedObj == "" {
		return p.blockedOp
	}
	return p.blockedOp + " " + p.blockedObj
}

// Wait suspends the process for d seconds of simulated time. It returns
// nil on normal expiry, or ErrInterrupted if Interrupt was called.
func (p *Proc) Wait(d Duration) error {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative wait %v", d))
	}
	return p.WaitUntil(p.k.now + d)
}

// WaitUntil suspends the process until absolute time t. If t ≤ Now the
// process still yields to the kernel for one instant, so pending same-time
// events run in schedule order.
func (p *Proc) WaitUntil(t Time) error {
	if t < p.k.now {
		t = p.k.now
	}
	seq := p.blockBegin("Wait", "")
	p.armTimer(seq, t, nil)
	msg := p.park()
	if msg.err != nil {
		p.k.Cancel(&p.timer)
		return msg.err
	}
	return nil
}

// Join blocks until other finishes (returning immediately if it already
// has). It returns ErrInterrupted if this process is interrupted first.
func (p *Proc) Join(other *Proc) error {
	if other.Done() {
		return p.Wait(0) // yield once for deterministic ordering
	}
	seq := p.blockBegin("Join", other.name)
	other.joiners = append(other.joiners, waiterRef{p: p, seq: seq})
	msg := p.park()
	if msg.err != nil {
		return msg.err
	}
	return nil
}

// Interrupt wakes the process out of its current blocking call with
// ErrInterrupted carrying reason. If the process is running, the interrupt
// is delivered at its next blocking call within the same instant; if it is
// already done, Interrupt is a no-op.
func (p *Proc) Interrupt(reason any) {
	if p.done {
		return
	}
	if p.armed {
		p.deliverAt(p.blockSeq, wakeMsg{err: ErrInterrupted, reason: reason})
		return
	}
	// Running: arm a one-shot that fires when it next blocks.
	p.k.At(p.k.now, func() {
		if p.done || !p.armed {
			return
		}
		p.deliverAt(p.blockSeq, wakeMsg{err: ErrInterrupted, reason: reason})
	})
}

// kill terminates a process with err (normally ErrShutdown). The wake
// is delivered directly rather than via the queue: shutdown runs when no
// more events will fire. A process that is not armed was woken with its
// resume posted but not yet fired (the run stopped inside the instant,
// by Stop or a tripped cancel check); the kill replaces that wake.
func (p *Proc) kill(err error) {
	if p.done {
		delete(p.k.procs, p)
		return
	}
	if p.armed {
		p.armed = false
		if p.starting {
			p.starting = false
			p.k.Cancel(&p.timer)
		}
	}
	p.killErr = err
	p.resume(wakeMsg{err: err})
}

func (p *Proc) setState(s ProcState, why string) {
	p.state = s
	p.k.trace(p, s, why)
}

func (k *Kernel) trace(p *Proc, s ProcState, why string) {
	if k.tracer != nil {
		k.tracer.ProcState(k.now, p, s, why)
	}
}
