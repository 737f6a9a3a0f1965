package core

import (
	"fmt"

	"dvsim/internal/assert"
	"dvsim/internal/atr"
	"dvsim/internal/battery"
	"dvsim/internal/cpu"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
	"dvsim/internal/host"
	"dvsim/internal/metrics"
	"dvsim/internal/node"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
	"dvsim/internal/sweep"
)

// ID names one of the paper's experiments (§6).
type ID string

// The experiment suite of §6.
const (
	Exp0A ID = "0A" // single node, no I/O, full speed
	Exp0B ID = "0B" // single node, no I/O, half speed
	Exp1  ID = "1"  // baseline: single node with host I/O
	Exp1A ID = "1A" // DVS during I/O
	Exp2  ID = "2"  // distributed DVS by partitioning
	Exp2A ID = "2A" // distributed DVS during I/O
	Exp2B ID = "2B" // distributed DVS with power-failure recovery
	Exp2C ID = "2C" // distributed DVS with node rotation
	// Exp2D extends the suite beyond the paper: the 2B recovery
	// configuration under injected link faults (internal/fault), with
	// bounded retransmission recovering dropped and garbled transfers.
	Exp2D ID = "2D"
)

// AllExperiments lists the suite in the paper's order, with the
// fault-recovery extension 2D last.
var AllExperiments = []ID{Exp0A, Exp0B, Exp1, Exp1A, Exp2, Exp2A, Exp2B, Exp2C, Exp2D}

// Fig10Experiments lists the experiments the paper's Fig 10 charts
// (0A/0B are excluded: without I/O or a performance constraint they are
// "not to be compared with other experiments", §6.1).
var Fig10Experiments = []ID{Exp1, Exp1A, Exp2, Exp2A, Exp2B, Exp2C}

// Label returns the paper's caption for an experiment.
func Label(id ID) string {
	switch id {
	case Exp0A:
		return "No I/O, full speed"
	case Exp0B:
		return "No I/O, half speed"
	case Exp1:
		return "Baseline"
	case Exp1A:
		return "DVS during I/O"
	case Exp2:
		return "Distributed DVS with partitioning"
	case Exp2A:
		return "Distributed DVS during I/O"
	case Exp2B:
		return "Distributed DVS with power failure recovery"
	case Exp2C:
		return "Distributed DVS with node rotation"
	case Exp2D:
		return "Distributed DVS recovery under link faults"
	default:
		return string(id)
	}
}

// PaperHours returns the battery life the paper reports, for comparison
// tables (§6).
func PaperHours(id ID) float64 {
	switch id {
	case Exp0A:
		return 3.4
	case Exp0B:
		return 12.9
	case Exp1:
		return 6.13
	case Exp1A:
		return 7.6
	case Exp2:
		return 14.1
	case Exp2A:
		return 14.44
	case Exp2B:
		return 15.72
	case Exp2C:
		return 17.82
	default:
		return 0
	}
}

// PaperFrames returns the completed workload the paper reports.
func PaperFrames(id ID) int {
	switch id {
	case Exp0A:
		return 11500
	case Exp0B:
		return 22500
	case Exp1:
		return 9600
	case Exp1A:
		return 11900
	case Exp2:
		return 22100
	case Exp2A:
		return 22600
	case Exp2B:
		return 24500
	case Exp2C:
		return 27900
	default:
		return 0
	}
}

// NodeStat summarizes one node after a run.
type NodeStat struct {
	Name            string
	DiedAtH         float64 // 0 when the battery survived the run
	FramesProcessed int
	ResultsSent     int
	Rotations       int
	Migrations      int
	Crashes         int // injected crash outages
	Restarts        int // recoveries from injected crashes
	FramesAbandoned int // frames written off after a spent retransmit budget
	// Governor accounting (all zero on ungoverned runs).
	GovDecisions   int     // frame-boundary governor decisions taken
	GovSwitches    int     // decisions that changed the operating point
	DeadlineMisses int     // frames whose busy time exceeded the budget D
	GovMeanMHz     float64 // mean decided compute clock
	DeliveredMAh   float64
	FinalSoC       float64
	// Per-mode seconds.
	IdleS, CommS, ComputeS float64
	// Per-mode charge, mAh (§4.4's energy split).
	IdleMAh, CommMAh, ComputeMAh float64
}

// Outcome is the result of one experiment run.
type Outcome struct {
	ID    ID
	Label string
	// Governor names the online DVS policy the run was governed by
	// (governor.Spec.String()); empty on ungoverned runs.
	Governor string
	Nodes    int
	// Frames is F(N): results delivered to the host (or frames computed,
	// for the no-I/O experiments).
	Frames int
	// BatteryLifeH is T(N) = F(N)·D (§4.5) for I/O experiments, or the
	// actual run time for the no-I/O ones.
	BatteryLifeH float64
	// WallH is the simulated time at which the system stopped producing.
	WallH float64
	// TnormH and Rnorm are filled by RunSuite (Rnorm needs T(1)).
	TnormH float64
	Rnorm  float64
	// FramesDropped counts source frames no node accepted in time.
	FramesDropped int
	// Events is the number of kernel events the run fired — the
	// denominator of the benchmark harness's events/sec throughput.
	Events uint64
	// FaultStats counts the faults an active scenario injected; zero
	// when the run had no fault injection.
	FaultStats fault.Stats
	NodeStats  []NodeStat
	// PortStats is the per-port transfer accounting of the run's serial
	// network, sorted by port name.
	PortStats []PortStat
	// Metrics is the run's instrumentation snapshot; empty unless the
	// run was instrumented (RunInstrumented, Options.Instrument) —
	// assertion-checked runs are instrumented implicitly.
	Metrics metrics.Snapshot
	// Violations are the assertion-catalog failures of a checked run in
	// canonical order, capped per assertion (see internal/assert); nil
	// when no catalog was configured. AssertionsRun counts the
	// invariants evaluated and ViolationTotal every violation detected,
	// truncated ones included — a checked, clean run has
	// AssertionsRun > 0 and ViolationTotal == 0.
	Violations     []assert.Violation
	AssertionsRun  int
	ViolationTotal int
}

// PortStat is one serial port's transfer accounting after a run.
type PortStat struct {
	Port string
	serial.PortStats
}

// stageSetup is the per-node configuration an experiment derives.
// refS/outKB, when positive, override the profile-driven work model
// (see node.Role); the paper's experiments leave them zero.
type stageSetup struct {
	span    atr.Span
	compute cpu.OperatingPoint
	comm    cpu.OperatingPoint
	idle    cpu.OperatingPoint
	refS    float64
	outKB   float64
}

// Run executes one experiment and returns its outcome. Runs are
// deterministic.
func Run(id ID, p Params) Outcome { return run(id, p, false) }

// RunInstrumented is Run with the telemetry subsystem attached: the
// kernel, serial network, nodes, batteries and host all record into a
// metrics registry (see internal/metrics), periodic samplers track
// battery state and queue depths on the simulation clock, and the
// resulting snapshot is returned in Outcome.Metrics. Plain Run leaves
// instrumentation disabled — the no-op instruments cost one nil check
// each, keeping the benchmarks honest.
func RunInstrumented(id ID, p Params) Outcome { return run(id, p, true) }

func run(id ID, p Params, instrument bool) Outcome {
	switch id {
	case Exp0A:
		return runNoIO(id, p, cpu.MaxPoint, instrument)
	case Exp0B:
		return runNoIO(id, p, cpu.PointAt(103.2), instrument)
	default:
		stages, opts := stagesFor(id, p)
		opts.instrument = instrument
		if p.Faults != nil {
			opts.faults = p.Faults
		}
		return runPipeline(id, p, stages, opts)
	}
}

// DefaultFaultScenario is experiment 2D's built-in link-fault load: a
// seeded 2% drop / 1% garble rate on every link, which the default
// retransmit budget absorbs almost entirely. Override it with
// Params.Faults (dvsim -faults).
func DefaultFaultScenario() *fault.Scenario {
	return &fault.Scenario{
		Seed:  42,
		Links: []fault.LinkFault{{DropRate: 0.02, GarbleRate: 0.01}},
	}
}

// DefaultSamplePeriodS is the telemetry sampling cadence when the
// caller does not choose one: fine enough to draw the paper's ~15 h
// discharge curves (§6), coarse enough to stay out of the event-queue
// hot path.
const DefaultSamplePeriodS = 60.0

// stagesFor derives the per-node configuration of a pipeline experiment.
func stagesFor(id ID, p Params) ([]stageSetup, pipelineOpts) {
	switch id {
	case Exp1:
		return []stageSetup{
			{span: atr.FullSpan, compute: cpu.MaxPoint, comm: cpu.MaxPoint},
		}, pipelineOpts{}
	case Exp1A:
		return []stageSetup{
			{span: atr.FullSpan, compute: cpu.MaxPoint, comm: cpu.MinPoint},
		}, pipelineOpts{}
	case Exp2:
		s := mustBest(p)
		return []stageSetup{
			{span: s.Stages[0].Span, compute: s.Stages[0].Compute, comm: s.Stages[0].Compute},
			{span: s.Stages[1].Span, compute: s.Stages[1].Compute, comm: s.Stages[1].Compute},
		}, pipelineOpts{}
	case Exp2A:
		s := mustBest(p)
		return []stageSetup{
			{span: s.Stages[0].Span, compute: s.Stages[0].Compute, comm: cpu.MinPoint},
			{span: s.Stages[1].Span, compute: s.Stages[1].Compute, comm: cpu.MinPoint},
		}, pipelineOpts{}
	case Exp2B:
		// §6.6: with the recovery protocol's extra transactions both
		// nodes run faster — the paper operates them at 73.7 and 118 MHz
		// — and DVS during I/O stays on.
		return []stageSetup{
			{span: mustSpan(p, 0), compute: cpu.PointAt(73.7), comm: cpu.MinPoint},
			{span: mustSpan(p, 1), compute: cpu.PointAt(118.0), comm: cpu.MinPoint},
		}, pipelineOpts{ack: true}
	case Exp2C:
		s := mustBest(p)
		return []stageSetup{
			{span: s.Stages[0].Span, compute: s.Stages[0].Compute, comm: cpu.MinPoint},
			{span: s.Stages[1].Span, compute: s.Stages[1].Compute, comm: cpu.MinPoint},
		}, pipelineOpts{rotation: p.RotationPeriod}
	case Exp2D:
		// The 2B recovery configuration with the wire made hostile:
		// seeded link faults, recovered by bounded retransmission.
		return []stageSetup{
			{span: mustSpan(p, 0), compute: cpu.PointAt(73.7), comm: cpu.MinPoint},
			{span: mustSpan(p, 1), compute: cpu.PointAt(118.0), comm: cpu.MinPoint},
		}, pipelineOpts{ack: true, faults: DefaultFaultScenario()}
	default:
		panic(fmt.Sprintf("core: unknown experiment %q", id))
	}
}

func mustBest(p Params) Partition {
	s, err := p.BestTwoNodeScheme()
	if err != nil {
		panic(err)
	}
	return s
}

func mustSpan(p Params, i int) atr.Span {
	return mustBest(p).Stages[i].Span
}

// runNoIO is experiments 0A/0B: one node computing frames from local
// storage until its battery dies.
func runNoIO(id ID, p Params, at cpu.OperatingPoint, instrument bool) Outcome {
	s := newRunSetup(p, pipelineOpts{instrument: instrument})
	k, reg, net := s.k, s.reg, s.net
	c := cpu.New(p.Power, at)
	c.SetMode(cpu.Compute)
	pw := node.NewPower(k, c, p.Battery())
	cfg := node.Config{Prof: p.Profile, D: p.FrameDelayS, NoIO: true, Metrics: reg}
	roles := []node.Role{{Index: 1, Span: atr.FullSpan, Compute: at, Comm: at}}
	n := node.New(k, net, pw, cfg, roles, 0)
	ring := []*node.Node{n}
	n.Wire(ring, net.Port("unused-sink"))
	n.Start()
	if reg != nil {
		registerSamplers(reg, k, ring, DefaultSamplePeriodS)
		// The lone battery's death ends the run; stop the samplers there
		// so they do not keep the event queue alive forever.
		prev := pw.OnDeath
		pw.OnDeath = func() {
			prev()
			reg.StopSamplers()
		}
	}
	k.Run()

	wallH := float64(k.Now()) / 3600
	return Outcome{
		ID:           id,
		Label:        Label(id),
		Nodes:        1,
		Frames:       n.FramesProcessed,
		BatteryLifeH: wallH,
		WallH:        wallH,
		Events:       k.Fired(),
		NodeStats:    []NodeStat{statOf(&n.Base)},
		PortStats:    portStatsOf(net),
		Metrics:      reg.Snapshot(),
	}
}

// nodeKind is any node runtime (a pipeline node.Node or a fleet
// node.Worker) seen through the node.Base it embeds. The run-assembly
// and collection helpers below are written once over it.
type nodeKind interface {
	fault.CrashTarget
	Shared() *node.Base
}

// runSetup is the substrate both engines assemble a run on: kernel,
// metrics registry (nil when uninstrumented), serial network, fault
// scenario and injector (nil without one), and the retry and governor
// policies after precedence.
type runSetup struct {
	k      *sim.Kernel
	reg    *metrics.Registry
	net    *serial.Network
	faults *fault.Scenario
	inj    *fault.Injector
	retry  serial.RetryPolicy
	gov    governor.Spec
}

// newRunSetup builds a run's substrate from the options' instrument,
// faults, governor and observer fields. A scenario's retry policy wins
// over Params.Retry, and an explicit per-run governor over
// Params.Governor (the same precedence as fault scenarios).
func newRunSetup(p Params, opts pipelineOpts) runSetup {
	s := runSetup{k: sim.NewKernel(), faults: opts.faults, retry: p.Retry, gov: opts.governor}
	if opts.instrument {
		s.reg = metrics.New(s.k)
	}
	s.net = serial.NewNetwork(s.k, p.Link)
	s.net.SetMetrics(s.reg)
	s.net.OnTransfer = opts.onTransfer
	s.net.OnRetry = opts.onRetry
	if opts.faults != nil {
		// MustInjector: a scenario that reaches here was validated at
		// load time, so a failure is a programming error.
		s.inj = fault.MustInjector(*opts.faults)
		s.inj.OnFault = opts.onFault
		s.net.Fault = s.inj
		if rpo := opts.faults.Retry; rpo != nil {
			s.retry = *rpo
		}
	}
	if !s.gov.Enabled() {
		s.gov = p.Governor
	}
	return s
}

// power builds one node's meter: a CPU starting at the comm point, and
// the platform battery with the scenario's capacity variance for name
// applied before metering starts, so the death prediction sees the
// scaled pack. trace enables mode tracing.
func (s *runSetup) power(p Params, name string, comm cpu.OperatingPoint, trace bool) *node.Power {
	c := cpu.New(p.Power, comm)
	bat := p.Battery()
	battery.ScaleCapacity(bat, s.faults.CapacityScale(name))
	pw := node.NewPower(s.k, c, bat)
	if trace {
		pw.EnableTrace()
	}
	return pw
}

// checker compiles a run's assertion catalog; an explicit per-run spec
// wins over Params.Assertions. Specs reaching a run were validated at
// load time (assert.Load, Options plumbing), so a compile failure is a
// programming error — the same contract as fault.MustInjector.
func checker(spec *assert.Spec, p Params) *assert.Engine {
	if spec == nil {
		spec = p.Assertions
	}
	return assert.MustNew(spec)
}

// check evaluates the catalog over a checked run's record stream into
// the outcome.
func (o *Outcome) check(eng *assert.Engine, records []LogRecord) {
	o.Violations = evalAssertions(eng, records)
	o.AssertionsRun = eng.Evaluated()
	o.ViolationTotal = eng.Total()
}

// armCrashes hands the nodes to the injector's crash schedule by name.
func armCrashes[N nodeKind](inj *fault.Injector, k *sim.Kernel, nodes []N) {
	if inj == nil {
		return
	}
	targets := make(map[string]fault.CrashTarget, len(nodes))
	for _, n := range nodes {
		targets[n.Shared().Name] = n
	}
	inj.Arm(k, targets)
}

// interruptLive ends the run for every node still holding charge: its
// process is interrupted at the current instant, so stranded nodes stop
// and their remaining charge is reported.
func interruptLive[N nodeKind](k *sim.Kernel, nodes []N) {
	for _, n := range nodes {
		if b := n.Shared(); !b.Dead() {
			k.At(k.Now(), func() {
				if pr := b.Proc(); pr != nil && !pr.Done() {
					pr.Interrupt("experiment ended")
				}
			})
		}
	}
}

// registerSamplers tracks every node's battery dynamics and inbound
// backlog as sim-time series, then the kernel's event-queue depth and
// cumulative events fired (the events-processed rate is its discrete
// derivative).
func registerSamplers[N nodeKind](reg *metrics.Registry, k *sim.Kernel, nodes []N, period float64) {
	for _, n := range nodes {
		b := n.Shared()
		pw, port := b.Power(), b.Port()
		reg.Sample("battery_soc", b.Name, sim.Duration(period), func() float64 {
			return pw.Battery().StateOfCharge()
		})
		reg.Sample("battery_available", b.Name, sim.Duration(period), func() float64 {
			return battery.Available(pw.Battery())
		})
		reg.Sample("port_pending", b.Name, sim.Duration(period), func() float64 {
			return float64(port.Pending())
		})
	}
	reg.Sample("sim_queue_depth", "", sim.Duration(period), func() float64 {
		return float64(k.QueueLen())
	})
	reg.Sample("sim_events_fired", "", sim.Duration(period), func() float64 {
		return float64(k.Fired())
	})
}

// portStatsOf exports the network's per-port accounting.
func portStatsOf(net *serial.Network) []PortStat {
	ports := net.Ports()
	out := make([]PortStat, 0, len(ports))
	for _, pt := range ports {
		out = append(out, PortStat{Port: pt.Name(), PortStats: pt.Stats()})
	}
	return out
}

type pipelineOpts struct {
	ack       bool
	rotation  int
	trace     bool
	native    *Native
	maxFrames int
	onResult  func(frame int, payload any)
	// instrument attaches a metrics registry to the rig.
	instrument bool
	// samplePeriodS overrides the sampler cadence (≤ 0 selects
	// DefaultSamplePeriodS).
	samplePeriodS float64
	// onTransfer observes every completed serial transaction, onRetry
	// every scheduled retransmission and onFault every injected fault.
	onTransfer func(serial.TransferEvent)
	onRetry    func(serial.RetryEvent)
	onFault    func(fault.Event)
	// faults, when non-nil, injects the scenario into the run.
	faults *fault.Scenario
	// governor, when enabled, attaches the online DVS policy to every
	// node; Params.Governor fills it when the caller leaves it zero.
	governor governor.Spec
	// onGovern observes every governor decision.
	onGovern func(node string, ev governor.Event)
	// assertions, when non-nil, checks the invariant catalog over the
	// run's telemetry stream; Params.Assertions fills it when the
	// caller leaves it nil.
	assertions *assert.Spec
}

// Native carries the real-workload hooks for native pipeline execution:
// the scene generating input frames and the ATR pipeline computing each
// stage. Payloads then genuinely flow node to node; timing and energy
// still follow the calibrated profile.
type Native struct {
	Scene *atr.Scene
	Pipe  *atr.Pipeline
}

// Rig is an assembled pipeline simulation: kernel, host and nodes. Use
// Run in this package for the paper experiments, or Build + custom
// driving for timelines and bespoke studies.
type Rig struct {
	K     *sim.Kernel
	Net   *serial.Network
	Host  *host.Host
	Nodes []*node.Node
	// Metrics is the rig's instrumentation registry; nil when the run is
	// uninstrumented.
	Metrics *metrics.Registry
	// Injector is the run's fault engine; nil when no scenario is
	// active.
	Injector *fault.Injector
	// GovernorSpec is the online DVS policy the rig's nodes run under;
	// the zero spec on ungoverned rigs.
	GovernorSpec governor.Spec

	lastResult sim.Time
}

// buildPipeline assembles host + N nodes with the experiment's stop
// conditions armed: every battery dead, or a death followed by a long
// silence at the sink (the pipeline stalled with charge remaining, the
// failure mode of §6.4).
func buildPipeline(p Params, stages []stageSetup, opts pipelineOpts) *Rig {
	s := newRunSetup(p, opts)
	k, reg, net := s.k, s.reg, s.net
	h := host.New(k, net)
	h.D = p.FrameDelayS
	h.FrameKB = p.Profile.InputKB
	h.RotationPeriod = opts.rotation
	h.Metrics = reg
	h.Retry = s.retry

	cfg := node.Config{
		Prof:           p.Profile,
		D:              p.FrameDelayS,
		RotationPeriod: opts.rotation,
		Ack:            opts.ack,
		AckTimeoutS:    p.AckTimeoutS,
		Retry:          s.retry,
		Metrics:        reg,
		Governor:       s.gov,
		OnGovern:       opts.onGovern,
	}
	h.MaxFrames = opts.maxFrames
	if opts.native != nil {
		nat := opts.native
		h.MakeFrame = func(int) any {
			frame, _ := nat.Scene.Frame(1)
			return frame
		}
		cfg.Exec = nat.Pipe.ApplySpan
	}
	roles := make([]node.Role, len(stages))
	for i, st := range stages {
		roles[i] = node.Role{Index: i + 1, Span: st.span, Compute: st.compute, Comm: st.comm, Idle: st.idle,
			RefS: st.refS, OutKB: st.outKB}
	}
	nodes := make([]*node.Node, len(stages))
	for i := range stages {
		pw := s.power(p, fmt.Sprintf("node%d", i+1), roles[i].Comm, opts.trace)
		nodes[i] = node.New(k, net, pw, cfg, roles, i)
	}
	for _, n := range nodes {
		n.Wire(nodes, h.SinkPort())
	}
	for _, n := range nodes {
		h.Targets = append(h.Targets, n.Port())
		n := n
		h.Alive = append(h.Alive, n.Available)
	}
	armCrashes(s.inj, k, nodes)

	rig := &Rig{K: k, Net: net, Host: h, Nodes: nodes, Metrics: reg, Injector: s.inj, GovernorSpec: s.gov}
	if reg != nil {
		period := opts.samplePeriodS
		if period <= 0 {
			period = DefaultSamplePeriodS
		}
		registerSamplers(reg, k, nodes, period)
	}
	onResult := opts.onResult
	h.OnResult = func(r host.Result) {
		rig.lastResult = k.Now()
		if onResult != nil {
			onResult(r.Frame, r.Payload)
		}
	}
	stallWindow := sim.Time(50 * p.FrameDelayS)
	// The watchdog re-arms through one reusable Event (Bind+Reschedule)
	// so a long run costs no allocation per tick.
	var watchEv sim.Event
	watch := func() {
		allDead := true
		anyDead := false
		for _, n := range nodes {
			// A crash outage counts toward stall detection (a
			// permanently crashed node never produces again) but not
			// toward allDead: its battery still holds charge.
			if !n.Available() {
				anyDead = true
			}
			if !n.Dead() {
				allDead = false
			}
		}
		if allDead || ((anyDead || h.Stopped()) && k.Now()-rig.lastResult > stallWindow) {
			rig.Finish()
			return
		}
		k.Reschedule(&watchEv, k.Now()+sim.Time(10*p.FrameDelayS))
	}
	watchEv.Bind(watch)
	k.Reschedule(&watchEv, k.Now()+sim.Time(10*p.FrameDelayS))
	return rig
}

// Start launches every node and the host.
func (r *Rig) Start() {
	for _, n := range r.Nodes {
		n.Start()
	}
	r.Host.Start()
}

// Finish stops the source and interrupts nodes stranded with live
// batteries so the run can end; their remaining charge is reported.
func (r *Rig) Finish() {
	r.Host.Stop()
	r.Metrics.StopSamplers()
	interruptLive(r.K, r.Nodes)
}

// Release tears the rig down: its process coroutines exit, and its
// recyclable simulation state — rendezvous offers, frame-job carriers —
// returns to the process-wide pools, so the next run warm-starts instead
// of re-allocating its working set. Call it exactly once, after every
// outcome, record or trace has been extracted; the rig is unusable
// afterwards. Long-lived callers that run many experiments in one
// process (sweeps, the service layer, Monte Carlo forks) depend on this
// for steady-state zero-allocation behavior.
func (r *Rig) Release() {
	r.K.Shutdown()
	r.Net.Release()
	r.Host.Release()
}

// outcome extracts the paper's metrics after the run.
func (r *Rig) outcome(id ID, p Params) Outcome {
	frames := len(r.Host.Results)
	var govName string
	if r.GovernorSpec.Enabled() {
		govName = r.GovernorSpec.String()
	}
	out := Outcome{
		ID:            id,
		Label:         Label(id),
		Governor:      govName,
		Nodes:         len(r.Nodes),
		Frames:        frames,
		BatteryLifeH:  float64(frames) * p.FrameDelayS / 3600,
		WallH:         float64(r.lastResult) / 3600,
		FramesDropped: r.Host.FramesDropped,
		Events:        r.K.Fired(),
		FaultStats:    r.Injector.Stats(),
		PortStats:     portStatsOf(r.Net),
		Metrics:       r.Metrics.Snapshot(),
	}
	for _, n := range r.Nodes {
		st := statOf(&n.Base)
		st.Rotations, st.Migrations = n.Rotations, n.Migrations
		out.NodeStats = append(out.NodeStats, st)
	}
	return out
}

// runPipeline assembles the rig and runs to system exhaustion. With an
// assertion catalog active (opts.assertions, else Params.Assertions)
// the run is forced traced + instrumented, its full telemetry record
// stream is gathered exactly as RunTelemetry would, and the compiled
// monitors' verdicts land in Outcome.Violations. A nil catalog — the
// default — takes the plain path: no recorder, no extra allocations.
func runPipeline(id ID, p Params, stages []stageSetup, opts pipelineOpts) Outcome {
	eng := checker(opts.assertions, p)
	if eng == nil {
		rig := buildPipeline(p, stages, opts)
		rig.Start()
		rig.K.Run()
		out := rig.outcome(id, p)
		rig.Release()
		return out
	}
	opts.trace = true
	opts.instrument = true
	rc := newRecorder(true, estimateRecords(p, len(stages), 0, true))
	rc.hooks(&opts)
	rig := buildPipeline(p, stages, opts)
	rc.attach(rig)
	rig.Start()
	rig.K.Run()
	records := collect(rc, rig.Nodes, rig.Metrics)
	out := rig.outcome(id, p)
	rig.Release()
	out.check(eng, records)
	rc.release()
	return out
}

// StageConfig describes one stage of a custom pipeline: its block span
// and the operating points for computation, communication and (optional,
// defaulting to Comm) idle. RefS and OutKB, when positive, override the
// profile-driven work model with synthetic per-stage reference seconds
// and output size — the hook internal/topology uses to build serial
// chains longer than the ATR profile's four blocks.
type StageConfig struct {
	Span    atr.Span
	Compute cpu.OperatingPoint
	Comm    cpu.OperatingPoint
	Idle    cpu.OperatingPoint
	RefS    float64
	OutKB   float64
}

// Options selects the distributed techniques for a custom pipeline run.
type Options struct {
	// Ack enables the power-failure recovery protocol (two-node
	// pipelines only, as in the paper).
	Ack bool
	// RotationPeriod > 1 enables node rotation every that many frames.
	RotationPeriod int
	// Native runs the real ATR computation through the pipeline.
	Native *Native
	// MaxFrames bounds the run; 0 runs to battery exhaustion.
	MaxFrames int
	// OnResult, when set, observes each result as it reaches the host
	// (frame number and, for native runs, the decoded payload).
	OnResult func(frame int, payload any)
	// Instrument attaches the telemetry subsystem (see RunInstrumented);
	// the snapshot lands in Outcome.Metrics.
	Instrument bool
	// Faults, when non-nil, injects the scenario into the run (see
	// internal/fault); it takes precedence over Params.Faults.
	Faults *fault.Scenario
	// Governor attaches an online DVS policy to every node (see
	// internal/governor); it takes precedence over Params.Governor.
	Governor governor.Spec
	// OnGovern, when set, observes every governor decision.
	OnGovern func(node string, ev governor.Event)
	// Assertions, when non-nil, evaluates the invariant catalog over
	// the run's telemetry stream (see internal/assert); it takes
	// precedence over Params.Assertions.
	Assertions *assert.Spec
}

// RunCustom simulates a custom pipeline to system exhaustion: one node
// per stage, frames paced every Params.FrameDelayS, each node on its own
// battery. It is the library entry point for configurations beyond the
// paper's experiment suite (different partitions, N > 2 pipelines,
// alternative rotation periods).
func RunCustom(label string, p Params, stages []StageConfig, opts Options) Outcome {
	if len(stages) == 0 {
		panic("core: no stages")
	}
	if opts.Ack && len(stages) != 2 {
		panic("core: recovery protocol is defined for two-node pipelines")
	}
	ss := make([]stageSetup, len(stages))
	for i, s := range stages {
		ss[i] = stageSetup{span: s.Span, compute: s.Compute, comm: s.Comm, idle: s.Idle,
			refS: s.RefS, outKB: s.OutKB}
	}
	out := runPipeline(ID(label), p, ss, opts.internal(p))
	out.Label = label
	return out
}

// internal converts the public options to the run layers' form; the
// scenario falls back to Params.Faults.
func (o Options) internal(p Params) pipelineOpts {
	faults := o.Faults
	if faults == nil {
		faults = p.Faults
	}
	return pipelineOpts{
		ack:        o.Ack,
		rotation:   o.RotationPeriod,
		native:     o.Native,
		maxFrames:  o.MaxFrames,
		onResult:   o.OnResult,
		instrument: o.Instrument,
		faults:     faults,
		governor:   o.Governor,
		onGovern:   o.OnGovern,
		assertions: o.Assertions,
	}
}

// StagesFromPartition converts a feasible Partition into stage configs,
// optionally dropping the communication clock to the minimum point (DVS
// during I/O).
func StagesFromPartition(pt Partition, dvsDuringIO bool) []StageConfig {
	out := make([]StageConfig, len(pt.Stages))
	for i, s := range pt.Stages {
		if !s.Feasible {
			panic(fmt.Sprintf("core: stage %d infeasible (%v needs %.0f MHz)", i+1, s.Span, s.RequiredMHz))
		}
		comm := s.Compute
		if dvsDuringIO {
			comm = cpu.MinPoint
		}
		out[i] = StageConfig{Span: s.Span, Compute: s.Compute, Comm: comm}
	}
	return out
}

// RunTraced runs the first `until` seconds of an experiment with mode
// tracing enabled and returns each node's constant-power spans — the
// material of the paper's timing diagrams (Figs 2, 3 and 9). Only the
// pipeline experiments (1…2C) can be traced; 0A/0B have no I/O structure
// worth drawing.
func RunTraced(id ID, p Params, until float64) [][]node.ModeSpan {
	stages, opts := stagesFor(id, p)
	opts.trace = true
	rig := buildPipeline(p, stages, opts)
	rig.Start()
	rig.K.RunUntil(sim.Time(until))
	out := make([][]node.ModeSpan, len(rig.Nodes))
	for i, n := range rig.Nodes {
		n.Power().Finish()
		out[i] = n.Power().Trace()
	}
	rig.K.Stop()
	rig.Release()
	return out
}

// statOf summarizes the state both node kinds share; pipeline callers
// add the ring-only Rotations and Migrations.
func statOf(n *node.Base) NodeStat {
	pw := n.Power()
	stat := NodeStat{
		Name:            n.Name,
		DiedAtH:         float64(n.DeadAt) / 3600,
		FramesProcessed: n.FramesProcessed,
		ResultsSent:     n.ResultsSent,
		Crashes:         n.Crashes,
		Restarts:        n.Restarts,
		FramesAbandoned: n.FramesAbandoned,
		GovDecisions:    n.GovernorDecisions,
		GovSwitches:     n.GovernorSwitches,
		DeadlineMisses:  n.DeadlineMisses,
		DeliveredMAh:    pw.Battery().DeliveredMAh(),
		FinalSoC:        pw.Battery().StateOfCharge(),
		IdleS:           pw.ModeSeconds(cpu.Idle),
		CommS:           pw.ModeSeconds(cpu.Comm),
		ComputeS:        pw.ModeSeconds(cpu.Compute),
		IdleMAh:         pw.ModeMAh(cpu.Idle),
		CommMAh:         pw.ModeMAh(cpu.Comm),
		ComputeMAh:      pw.ModeMAh(cpu.Compute),
	}
	if n.GovernorDecisions > 0 {
		stat.GovMeanMHz = n.GovernorFreqSumMHz / float64(n.GovernorDecisions)
	}
	return stat
}

// RunSuite executes the given experiments and fills the normalized
// metrics (§4.5): Tnorm(N) = T(N)/N and Rnorm(N) = Tnorm(N)/T(1). The
// baseline is run if not already in the list. Experiments run on all
// cores; each is an independent deterministic simulation and results
// are returned in input order, so the output is identical to a serial
// evaluation (see RunSuiteParallel for an explicit worker count).
func RunSuite(ids []ID, p Params) []Outcome {
	return RunSuiteParallel(ids, p, 0)
}

// RunSuiteParallel is RunSuite with the experiments evaluated
// concurrently on up to workers goroutines — each experiment is an
// independent deterministic simulation, so the suite parallelizes
// perfectly. workers ≤ 0 selects GOMAXPROCS.
func RunSuiteParallel(ids []ID, p Params, workers int) []Outcome {
	outs := sweep.Run(ids, workers, func(id ID) Outcome { return Run(id, p) })
	var t1 float64
	for _, o := range outs {
		if o.ID == Exp1 {
			t1 = o.BatteryLifeH
		}
	}
	if t1 == 0 {
		// The implicit baseline exists purely to anchor Rnorm; it runs
		// fault-free and unchecked so a scenario or catalog aimed at the
		// pipeline under test does not distort (or slow) the reference
		// lifetime.
		pb := p
		pb.Faults = nil
		pb.Assertions = nil
		t1 = Run(Exp1, pb).BatteryLifeH
	}
	for i := range outs {
		outs[i].TnormH = outs[i].BatteryLifeH / float64(outs[i].Nodes)
		outs[i].Rnorm = outs[i].TnormH / t1
	}
	return outs
}
