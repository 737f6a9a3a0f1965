package node

import (
	"errors"

	"dvsim/internal/cpu"
	"dvsim/internal/governor"
	"dvsim/internal/metrics"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
)

// phaseBuckets are the histogram bounds for per-frame phase latencies,
// in seconds, spanning sub-transaction times up to several frame delays.
var phaseBuckets = []float64{0.05, 0.1, 0.2, 0.5, 1, 1.5, 2, 3, 5, 10}

// instruments are a node's labeled telemetry handles; with metrics
// disabled every field is a nil no-op.
type instruments struct {
	recvS, procS, sendS                    *metrics.Histogram
	frames, results, rotations, migrations *metrics.Counter
	crashes, restarts, abandoned           *metrics.Counter
	govDecisions, govSwitches, misses      *metrics.Counter
}

// Base is the per-node machinery every Itsy runs however its frames
// flow: power metering across compute, communication and idle, DVS
// during I/O, crash and recovery, and the online governor hook. Node
// (the pipeline ring) and Worker (the fleet graph) embed it by value and
// add only their frame loops.
type Base struct {
	Name string

	k     *sim.Kernel
	port  *serial.Port
	power *Power
	proc  *sim.Proc
	// loop is the node kind's frame loop, spawned by Start and Restart.
	loop func(*sim.Proc)
	met  instruments

	// The static operating points: computeAt for PROC unless a governor
	// overrides it, commAt for RECV/SEND, idleAt while blocked with
	// nothing to do. Node re-points them on every role change.
	computeAt, commAt, idleAt cpu.OperatingPoint

	// Hoisted serial callbacks: method values allocate a closure per
	// evaluation, so the frame loops' Recv/Send options reference these
	// fields, bound once at construction, instead of building them per
	// frame.
	commStartFn func()
	idleFn      func()

	// Online DVS governor state: gov is the policy instance (nil when
	// ungoverned), govPoint the governed compute point overriding
	// computeAt (zero = none).
	gov      governor.Governor
	govPoint cpu.OperatingPoint
	onGovern func(node string, ev governor.Event)

	crashed bool // injected-crash outage in progress

	// Stats.
	FramesProcessed int // PROC executions completed
	ResultsSent     int // final results delivered to the host
	Crashes         int // injected crashes applied
	Restarts        int // recoveries from injected crashes
	FramesAbandoned int // frames given up after a spent retransmit budget
	// Governor stats (all zero when ungoverned).
	GovernorDecisions  int      // frame-boundary decisions taken
	GovernorSwitches   int      // decisions that changed the operating point
	DeadlineMisses     int      // frames whose busy time exceeded the budget
	GovernorFreqSumMHz float64  // sum of decided clocks, for mean-frequency reporting
	DeadAt             sim.Time // battery exhaustion time; 0 if alive
}

// init sets the base up in place, at its final address inside the
// embedding node: metering and instruments labeled by name, the
// governor instantiated from spec, the hoisted callbacks bound.
func (b *Base) init(k *sim.Kernel, port *serial.Port, pw *Power, name string, reg *metrics.Registry,
	spec governor.Spec, onGovern func(string, governor.Event), loop func(*sim.Proc)) {
	pw.SetMetrics(reg, name)
	b.met = instruments{
		recvS:     reg.Histogram("node_recv_s", name, phaseBuckets),
		procS:     reg.Histogram("node_proc_s", name, phaseBuckets),
		sendS:     reg.Histogram("node_send_s", name, phaseBuckets),
		frames:    reg.Counter("node_frames_processed", name),
		results:   reg.Counter("node_results_sent", name),
		crashes:   reg.Counter("node_crashes", name),
		restarts:  reg.Counter("node_restarts", name),
		abandoned: reg.Counter("node_frames_abandoned", name),
	}
	if spec.Enabled() {
		b.met.govDecisions = reg.Counter("node_governor_decisions", name)
		b.met.govSwitches = reg.Counter("node_governor_switches", name)
		b.met.misses = reg.Counter("node_deadline_misses", name)
	}
	b.Name, b.k, b.port, b.power, b.loop = name, k, port, pw, loop
	// A bad spec reaching here is a programming error: core validates
	// governor configuration at load/flag-parse time.
	b.gov = governor.MustNew(spec)
	b.onGovern = onGovern
	b.commStartFn = b.commStart
	b.idleFn = b.idle
}

// Shared returns the node's shared base, for code that treats both node
// kinds alike (run assembly, statistics, telemetry collection).
func (b *Base) Shared() *Base { return b }

// setPoints re-points the static operating points. A zero idle point
// falls back to comm (the paper's workloads have no idle time, so the
// distinction only matters for low-duty-cycle studies).
func (b *Base) setPoints(compute, comm, idle cpu.OperatingPoint) {
	if idle == (cpu.OperatingPoint{}) {
		idle = comm
	}
	b.computeAt, b.commAt, b.idleAt = compute, comm, idle
}

// Port returns the node's serial port.
func (b *Base) Port() *serial.Port { return b.port }

// Power returns the node's power meter.
func (b *Base) Power() *Power { return b.power }

// Proc returns the node's simulation process (nil before Start).
func (b *Base) Proc() *sim.Proc { return b.proc }

// Dead reports whether the node's battery is exhausted.
func (b *Base) Dead() bool { return b.power.Dead() }

// Crashed reports whether an injected crash outage is in progress.
func (b *Base) Crashed() bool { return b.crashed }

// Available reports whether the node is running: neither dead nor in a
// crash outage. Peers use it to distinguish a genuinely failed neighbor
// from one that is merely slow (retransmitting).
func (b *Base) Available() bool { return !b.Dead() && !b.crashed }

// Crash applies an injected outage (fault.CrashTarget): the node's
// process is interrupted, and its battery rests at zero draw until
// Restart. It reports whether it applied — a dead or already-crashed
// node cannot crash.
func (b *Base) Crash() bool {
	if b.crashed || b.Dead() {
		return false
	}
	b.crashed = true
	b.Crashes++
	b.met.crashes.Inc()
	b.power.Suspend()
	if b.proc != nil && !b.proc.Done() {
		b.proc.Interrupt("crash")
	}
	return true
}

// resume is the shared half of Restart: it ends the outage, resumes
// metering and clears the governor, reporting whether it applied — only
// a crashed, non-dead node can restart. The caller then resets its
// kind's frame-loop state and spawns a fresh process.
func (b *Base) resume() bool {
	if !b.crashed || b.Dead() {
		return false
	}
	b.crashed = false
	b.Restarts++
	b.met.restarts.Inc()
	b.power.Resume()
	b.governReset()
	return true
}

// spawn starts a fresh process running the frame loop.
func (b *Base) spawn() *sim.Proc {
	b.proc = b.k.Spawn(b.Name, b.loop)
	return b.proc
}

// Start spawns the node's process. Battery death interrupts it at the
// exact exhaustion instant.
func (b *Base) Start() *sim.Proc {
	b.power.OnDeath = func() {
		b.DeadAt = b.k.Now()
		if b.proc != nil && !b.proc.Done() {
			b.proc.Interrupt("battery exhausted")
		}
	}
	return b.spawn()
}

// processed counts one completed PROC execution.
func (b *Base) processed() {
	b.FramesProcessed++
	b.met.frames.Inc()
}

// delivered counts one final result delivered to the host.
func (b *Base) delivered() {
	b.ResultsSent++
	b.met.results.Inc()
}

// abandon writes off the in-flight frame and always reports true, so
// callers can fold it into their handled result.
func (b *Base) abandon() bool {
	b.FramesAbandoned++
	b.met.abandoned.Inc()
	return true
}

// lostOnWire reports a transfer the wire ate past its retransmit budget
// (a fault or spent retries), as opposed to success or interruption.
func lostOnWire(err error) bool {
	return err != nil && (serial.IsFault(err) || errors.Is(err, serial.ErrRetriesExhausted))
}

// compute runs refS seconds of reference work (at the maximum point)
// scaled to the given operating point, then drops to idle. ok is false
// on interruption (death, crash).
func (b *Base) compute(p *sim.Proc, at cpu.OperatingPoint, refS float64) bool {
	t0 := p.Now()
	b.power.Transition(cpu.Compute, at)
	if err := p.Wait(sim.Duration(cpu.ScaledTime(refS, at))); err != nil {
		return false
	}
	b.met.procS.Observe(float64(p.Now() - t0))
	b.idle()
	return true
}

// computePoint is the operating point PROC runs at: the governed point
// when a governor has decided one, the static assignment otherwise.
func (b *Base) computePoint() cpu.OperatingPoint {
	if b.govPoint != (cpu.OperatingPoint{}) {
		return b.govPoint
	}
	return b.computeAt
}

// modeClocks are the frame-budget measurement anchors for the governor,
// read at an iteration's start: busy time is metered as mode-clock
// deltas across the whole iteration (receive, compute and send, acks
// and retransmissions included), which the power meter keeps settled at
// every transition. Both are zero when ungoverned.
func (b *Base) modeClocks() (proc0, comm0 float64) {
	if b.gov == nil {
		return 0, 0
	}
	return b.power.ModeSeconds(cpu.Compute), b.power.ModeSeconds(cpu.Comm)
}

// deadlineMissEps absorbs float drift when comparing busy time against
// the frame budget.
const deadlineMissEps = 1e-9

// govern runs the frame-boundary control loop: assemble the observation
// from sim-clock measurements, ask the policy for the next compute
// point, and account the decision. proc0/comm0 are the iteration's
// modeClocks; budgetS is the per-frame deadline and downWaitS how long
// the frame's outbound transfer waited for the downstream port.
func (b *Base) govern(p *sim.Proc, frame int, proc0, comm0, budgetS, downWaitS float64) {
	if b.gov == nil {
		return
	}
	procS := b.power.ModeSeconds(cpu.Compute) - proc0
	commS := b.power.ModeSeconds(cpu.Comm) - comm0
	cur := b.computePoint()
	obs := governor.Observation{
		Frame:       frame,
		NowS:        float64(p.Now()),
		DeadlineS:   budgetS,
		ProcS:       procS,
		CommS:       commS,
		SlackS:      budgetS - procS - commS,
		RefS:        procS * cur.FreqMHz / cpu.MaxPoint.FreqMHz,
		QueueIn:     b.port.Pending(),
		DownWaitS:   downWaitS,
		SoC:         b.power.Battery().StateOfCharge(),
		Point:       cur,
		RoleCompute: b.computeAt,
	}
	if obs.SlackS < -deadlineMissEps {
		b.DeadlineMisses++
		b.met.misses.Inc()
	}
	next := b.gov.Decide(obs)
	b.GovernorDecisions++
	b.GovernorFreqSumMHz += next.FreqMHz
	b.met.govDecisions.Inc()
	if next != cur {
		b.GovernorSwitches++
		b.met.govSwitches.Inc()
	}
	b.govPoint = next
	if b.onGovern != nil {
		b.onGovern(b.Name, governor.Event{
			Frame: frame, From: cur, To: next, Obs: obs, Terms: b.gov.Terms(),
		})
	}
}

// governReset clears the governor after a change of work — rotation,
// migration, crash restart — because measurements from the old work do
// not transfer to the new one. The next frame runs at the static point
// until the controller re-primes.
func (b *Base) governReset() {
	if b.gov == nil {
		return
	}
	b.gov.Reset()
	b.govPoint = cpu.OperatingPoint{}
}

// commStart switches to communication mode at the comm point; the serial
// layer invokes it at the instant a transfer actually begins.
func (b *Base) commStart() {
	b.power.Transition(cpu.Comm, b.commAt)
}

// idle switches to idle mode at the idle point.
func (b *Base) idle() {
	b.power.Transition(cpu.Idle, b.idleAt)
}
