package core

import (
	"errors"
	"fmt"

	"dvsim/internal/assert"
	"dvsim/internal/atr"
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
	// run was instrumented (Options.Instrument); assertion-checked runs
	// are instrumented implicitly.
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

// stagesFor derives the per-node configuration of a pipeline experiment
// and sets its techniques in opts. The fault rule lives here, once: a
// scenario already in opts (Params.Faults) overrides experiment 2D's
// built-in one.
func stagesFor(id ID, p Params, opts *runOpts) ([]StageConfig, error) {
	switch id {
	case Exp1:
		return []StageConfig{{Span: atr.FullSpan, Compute: cpu.MaxPoint, Comm: cpu.MaxPoint}}, nil
	case Exp1A:
		return []StageConfig{{Span: atr.FullSpan, Compute: cpu.MaxPoint, Comm: cpu.MinPoint}}, nil
	case Exp2, Exp2A, Exp2B, Exp2C, Exp2D, Exp3A:
	default:
		return nil, fmt.Errorf("core: unknown experiment %q", id)
	}
	best, err := p.BestTwoNodeScheme()
	if err != nil {
		return nil, err
	}
	// The two-node experiments run the best partition with DVS during
	// I/O unless they say otherwise.
	st := best.Stages
	stages := []StageConfig{
		{Span: st[0].Span, Compute: st[0].Compute, Comm: cpu.MinPoint},
		{Span: st[1].Span, Compute: st[1].Compute, Comm: cpu.MinPoint},
	}
	switch id {
	case Exp2:
		stages[0].Comm, stages[1].Comm = st[0].Compute, st[1].Compute
	case Exp2B, Exp2D:
		// §6.6: with the recovery protocol's extra transactions both
		// nodes run faster — the paper operates them at 73.7 and 118 MHz.
		// 2D is 2B with the wire made hostile: seeded link faults,
		// recovered by bounded retransmission.
		stages[0].Compute, stages[1].Compute = cpu.PointAt(73.7), cpu.PointAt(118.0)
		opts.Ack = true
		if id == Exp2D && opts.faults == nil {
			opts.faults = DefaultFaultScenario()
		}
	case Exp2C:
		opts.RotationPeriod = p.RotationPeriod
	case Exp3A:
		if !p.Governor.Enabled() {
			return nil, errors.New("core: experiment 3A needs a governor (set Params.Governor)")
		}
		stages[0].Compute, stages[1].Compute = cpu.MaxPoint, cpu.MaxPoint
	}
	return stages, nil
}

// noIO is experiments 0A/0B: one node computing frames from local
// storage until its battery dies.
type noIO struct{ engine }

// buildNoIO assembles and starts the lone node. It runs ungoverned and
// fault-free: without I/O there is nothing to govern or to fault.
func buildNoIO(p Params, id ID, instrument bool) *noIO {
	at := cpu.MaxPoint
	if id == Exp0B {
		at = cpu.PointAt(103.2)
	}
	p.Governor = governor.Spec{}
	r := &noIO{engine: newEngine(p, runOpts{Options: Options{Instrument: instrument}})}
	k, reg, net := r.k, r.reg, r.net
	c := cpu.New(p.Power, at)
	c.SetMode(cpu.Compute)
	pw := node.NewPower(k, c, p.Battery())
	cfg := node.Config{Prof: p.Profile, D: p.FrameDelayS, NoIO: true, Metrics: reg}
	roles := []node.Role{{Index: 1, Span: atr.FullSpan, Compute: at, Comm: at}}
	n := node.New(k, net, pw, cfg, roles, 0)
	n.Wire([]*node.Node{n}, net.Port("unused-sink"))
	r.nodes = []*node.Base{&n.Base}
	n.Start()
	if reg != nil {
		r.registerSamplers()
		// The lone battery's death ends the run; stop the samplers there
		// so they do not keep the event queue alive forever.
		prev := pw.OnDeath
		pw.OnDeath = func() {
			prev()
			reg.StopSamplers()
		}
	}
	return r
}

// start is a no-op: the node started during assembly, before its
// samplers.
func (r *noIO) start() {}

// outcome reports the node's computed frames over the actual run time:
// without I/O there is no host and no frame budget.
func (r *noIO) outcome(id ID, label string) Outcome {
	o := r.engine.outcome(id, label)
	wallH := float64(r.k.Now()) / 3600
	o.Frames = r.nodes[0].FramesProcessed
	o.BatteryLifeH, o.WallH = wallH, wallH
	return o
}

// nodeKind is any node runtime (a pipeline node.Node or a fleet
// node.Worker) seen through the node.Base it embeds.
type nodeKind interface {
	fault.CrashTarget
	Shared() *node.Base
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

// portStatsOf exports the network's per-port accounting.
func portStatsOf(net *serial.Network) []PortStat {
	ports := net.Ports()
	out := make([]PortStat, 0, len(ports))
	for _, pt := range ports {
		out = append(out, PortStat{Port: pt.Name(), PortStats: pt.Stats()})
	}
	return out
}

// runOpts is a job's options as the engines take them: the public
// Options plus mode tracing, the fault scenario after precedence, and
// the observers the recorder chains in.
type runOpts struct {
	Options
	trace bool
	// faults, when non-nil, injects the scenario into the run.
	faults *fault.Scenario
	// onTransfer observes every completed serial transaction, onRetry
	// every scheduled retransmission and onFault every injected fault.
	onTransfer func(serial.TransferEvent)
	onRetry    func(serial.RetryEvent)
	onFault    func(fault.Event)
}

// Native carries the real-workload hooks for native pipeline execution:
// the scene generating input frames and the ATR pipeline computing each
// stage. Payloads then genuinely flow node to node; timing and energy
// still follow the calibrated profile.
type Native struct {
	Scene *atr.Scene
	Pipe  *atr.Pipeline
}

// Rig is an assembled pipeline simulation: the host paces frames into a
// ring of nodes. Exec builds and drives it.
type Rig struct {
	engine
	Host  *host.Host
	Nodes []*node.Node
}

// buildPipeline assembles host + N nodes with the experiment's stop
// conditions armed: every battery dead, or a death followed by a long
// silence at the sink (the pipeline stalled with charge remaining, the
// failure mode of §6.4).
func buildPipeline(p Params, stages []StageConfig, opts runOpts) *Rig {
	rig := &Rig{engine: newEngine(p, opts)}
	k, reg, net := rig.k, rig.reg, rig.net
	h := host.New(k, net)
	h.D = p.FrameDelayS
	h.FrameKB = p.Profile.InputKB
	h.RotationPeriod = opts.RotationPeriod
	h.Metrics = reg
	h.Retry = rig.retry

	cfg := node.Config{
		Prof:           p.Profile,
		D:              p.FrameDelayS,
		RotationPeriod: opts.RotationPeriod,
		Ack:            opts.Ack,
		AckTimeoutS:    p.AckTimeoutS,
		Retry:          rig.retry,
		Metrics:        reg,
		Governor:       rig.gov,
		OnGovern:       opts.OnGovern,
	}
	h.MaxFrames = opts.MaxFrames
	if opts.Native != nil {
		nat := opts.Native
		h.MakeFrame = func(int) any {
			frame, _ := nat.Scene.Frame(1)
			return frame
		}
		cfg.Exec = nat.Pipe.ApplySpan
	}
	roles := make([]node.Role, len(stages))
	for i, st := range stages {
		roles[i] = node.Role{Index: i + 1, Span: st.Span, Compute: st.Compute, Comm: st.Comm, Idle: st.Idle,
			RefS: st.RefS, OutKB: st.OutKB}
	}
	nodes := make([]*node.Node, len(stages))
	rig.nodes = make([]*node.Base, len(stages))
	for i := range stages {
		pw := rig.power(p, fmt.Sprintf("node%d", i+1), roles[i].Comm, opts.trace)
		nodes[i] = node.New(k, net, pw, cfg, roles, i)
		rig.nodes[i] = &nodes[i].Base
	}
	for _, n := range nodes {
		n.Wire(nodes, h.SinkPort())
	}
	for _, n := range nodes {
		h.Targets = append(h.Targets, n.Port())
		h.Alive = append(h.Alive, n.Available)
	}
	armCrashes(rig.inj, k, nodes)

	rig.Host, rig.Nodes = h, nodes
	rig.registerSamplers()
	h.OnResult = func(r host.Result) { rig.deliver(r.Frame, r.From, r.Payload) }
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
			h.Stop()
			rig.stop()
			return
		}
		k.Reschedule(&watchEv, k.Now()+sim.Time(10*p.FrameDelayS))
	}
	watchEv.Bind(watch)
	k.Reschedule(&watchEv, k.Now()+sim.Time(10*p.FrameDelayS))
	return rig
}

// start launches every node, then the host.
func (r *Rig) start() {
	r.engine.start()
	r.Host.Start()
}

// outcome adds the ring-only fields: frames no node accepted in time,
// and each node's rotations and migrations.
func (r *Rig) outcome(id ID, label string) Outcome {
	o := r.engine.outcome(id, label)
	o.FramesDropped = r.Host.FramesDropped
	for i, n := range r.Nodes {
		o.NodeStats[i].Rotations, o.NodeStats[i].Migrations = n.Rotations, n.Migrations
	}
	return o
}

// release tears the rig down: its process coroutines exit, and its
// recyclable simulation state — rendezvous offers, frame-job carriers —
// returns to the process-wide pools, so the next run warm-starts instead
// of re-allocating its working set. The driver calls it exactly once,
// after every outcome, record or trace has been extracted; the rig is
// unusable afterwards. Long-lived callers that run many experiments in
// one process (sweeps, the service layer, Monte Carlo forks) depend on
// this for steady-state zero-allocation behavior.
func (r *Rig) release() {
	r.engine.release()
	r.Host.Release()
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

// Options selects the distributed techniques and observers of a run (see
// Job).
type Options struct {
	// Ack enables the power-failure recovery protocol (two-node
	// pipelines only, as in the paper).
	Ack bool
	// RotationPeriod > 1 enables node rotation every that many frames.
	RotationPeriod int
	// Native runs the real ATR computation through the pipeline.
	Native *Native
	// MaxFrames bounds the run; 0 runs to battery exhaustion. The no-I/O
	// experiments 0A/0B have no frame source to bound.
	MaxFrames int
	// OnResult, when set, observes each result as it reaches the host
	// (frame number and, for native runs, the decoded payload).
	OnResult func(frame int, payload any)
	// Instrument attaches the telemetry subsystem: the kernel, serial
	// network, nodes, batteries and host all record into a metrics
	// registry (see internal/metrics), periodic samplers track battery
	// state and queue depths on the simulation clock, and the snapshot
	// lands in Outcome.Metrics. Uninstrumented runs leave the no-op
	// instruments at one nil check each. On a logged run it also selects
	// the telemetry record set.
	Instrument bool
	// OnGovern, when set, observes every governor decision.
	OnGovern func(node string, ev governor.Event)
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

// statOf summarizes the state both node kinds share; the Rig adds the
// ring-only Rotations and Migrations.
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

// RunSuite executes the given experiments on up to workers goroutines
// (≤ 0 selects GOMAXPROCS) and fills the normalized metrics (§4.5):
// Tnorm(N) = T(N)/N and Rnorm(N) = Tnorm(N)/T(1). The baseline is run if
// not already in the list. Each experiment is an independent
// deterministic simulation and results are returned in input order, so
// the output is identical to a serial evaluation.
func RunSuite(ids []ID, p Params, workers int) []Outcome {
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
