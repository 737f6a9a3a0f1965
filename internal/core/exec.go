package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"dvsim/internal/assert"
	"dvsim/internal/battery"
	"dvsim/internal/cpu"
	"dvsim/internal/fault"
	"dvsim/internal/governor"
	"dvsim/internal/metrics"
	"dvsim/internal/node"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
	"dvsim/internal/topology"
)

// Job is one simulation run, the single argument of Exec. Exactly one of
// Exp, Stages or Graph says what to simulate; the other fields say how
// and what to keep.
type Job struct {
	// Exp names an experiment of the suite, or Exp3A: one point of the
	// governor study, under Params.Governor. An experiment fixes its own
	// techniques, so Options.Ack and Options.RotationPeriod must be zero.
	Exp ID
	// Stages is a custom pipeline, one node per stage: frames paced every
	// Params.FrameDelayS, each node on its own battery. It is the entry
	// for configurations beyond the suite (other partitions, N > 2
	// pipelines, other rotation periods).
	Stages []StageConfig
	// Graph is a fleet topology (see internal/topology). Chain-shaped
	// graphs run on the pipeline engine with every option available.
	// Other shapes (wide pipelines, trees, meshes, hand-built DAGs) run on
	// the graph worker engine: sources pace themselves, interior vertices
	// gather fan-in, and sink results land at a host collector. There
	// Ack, RotationPeriod and Native are rejected (they are ring
	// protocols) and results carry no payload.
	Graph *topology.Graph
	// Label names the run in its Outcome; empty selects the experiment's
	// caption. Stages and Graph runs also take it as their Outcome.ID.
	Label string
	// Params is the platform. Its Faults, Governor and Assertions apply
	// to the run (see Params).
	Params Params
	Options
	// UntilS > 0 simulates only the first UntilS seconds, a bounded
	// window, instead of running to system exhaustion.
	UntilS float64
	// Log, when non-nil, receives every observable event of the run as
	// one JSON record per line, ordered by (time, event kind, labels); see
	// LogRecord. It needs a window (UntilS > 0). Options.Instrument
	// selects the telemetry record set on top of the mode, result, death
	// and govern events.
	Log io.Writer
	// Trace, when non-nil, receives each node's constant-power mode
	// spans in node order: the material of the paper's timing diagrams
	// (Figs 2, 3 and 9).
	Trace *[][]node.ModeSpan
}

// Exec simulates one job and returns its outcome. Runs are
// deterministic. The context is polled every few thousand kernel events
// (via sim.Kernel.SetCancelCheck, so the poll perturbs neither event
// ordering nor output bytes); a cancelled context abandons the run and
// returns the context's error with nothing written to Log. A context
// that can never be cancelled (Done() == nil) installs no poll.
//
// Experiments 0A and 0B have no I/O: they run to exhaustion, unlogged,
// untraced and unchecked.
func Exec(ctx context.Context, j Job) (Outcome, error) { return exec(ctx, j, nil) }

// Run executes one experiment to exhaustion. It is Exec for the
// simplest job, kept because perfbench pins it.
func Run(id ID, p Params) Outcome { return must(Exec(context.Background(), Job{Exp: id, Params: p})) }

// RunExperiment is Run with a frame bound (maxFrames ≤ 0 runs to
// exhaustion); experiment 3A runs the policy in Params.Governor. It is
// kept because perfbench pins it.
func RunExperiment(id ID, p Params, maxFrames int) Outcome {
	return must(Exec(context.Background(), Job{Exp: id, Params: p, Options: Options{MaxFrames: maxFrames}}))
}

// RunTelemetry writes the telemetry log of an experiment's first `until`
// seconds to w and returns the number of records that fully reached w.
// It is kept because perfbench pins it.
func RunTelemetry(id ID, p Params, until float64, w io.Writer) (int, error) {
	c := &recordCounter{w: w}
	_, err := Exec(context.Background(), Job{Exp: id, Params: p, UntilS: until, Log: c, Options: Options{Instrument: true}})
	return c.n, err
}

// must unwraps a run for the entry points that panic on a bad job.
func must(out Outcome, err error) Outcome {
	if err != nil {
		panic(err)
	}
	return out
}

// recordCounter counts the log records (lines) whose bytes fully reach
// w, so a caller knows how much of a log is intact after a write
// failure. Record strings are JSON-escaped, so every newline ends a
// record.
type recordCounter struct {
	w io.Writer
	n int
}

var newline = []byte{'\n'}

func (c *recordCounter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += bytes.Count(b[:n], newline)
	return n, err
}

// cancelPollEvents is how many kernel events run between context polls
// of a cancellable run: coarse enough to cost nothing on the hot path
// (one nil-check per event, one poll per few thousand), fine enough to
// abandon a run within milliseconds of cancellation.
const cancelPollEvents = 4096

// capture pauses a windowed run at atS (0 < atS ≤ UntilS): the kernel
// halts after every event with time ≤ atS has fired, fn reads the
// engine, and the run resumes to its horizon. Because fn only observes
// (it must schedule no events and mutate no simulation state), the split
// run is byte-identical to an uninterrupted one; a non-nil error from fn
// abandons the run. Snapshots take and verify warm state through it.
type capture struct {
	atS float64
	fn  func(*engine) error
}

// exec is the one run driver: it resolves the job to an engine, wires
// the recorder a log or assertion catalog needs, runs the kernel, and
// hands the results to the job's sinks.
func exec(ctx context.Context, j Job, cp *capture) (Outcome, error) {
	p := j.Params
	opts := runOpts{Options: j.Options, faults: p.Faults}
	id, label, stages, err := j.resolve(&opts)
	if err != nil {
		return Outcome{}, err
	}
	noIO := j.Exp == Exp0A || j.Exp == Exp0B
	nodes := len(stages)
	switch {
	case noIO:
		nodes = 1
	case stages == nil:
		nodes = len(j.Graph.Nodes)
	}
	var chk *assert.Engine
	if !noIO {
		if chk, err = assert.New(p.Assertions); err != nil {
			return Outcome{}, err
		}
	}
	if err = ctx.Err(); err != nil {
		return Outcome{}, err
	}

	// A log or a catalog needs the recorder; a catalog alone records the
	// telemetry set.
	var rc *recorder
	if j.Log != nil || chk != nil {
		opts.Instrument = opts.Instrument || j.Log == nil
		window := j.UntilS
		if window == 0 {
			window = float64(j.MaxFrames) * p.FrameDelayS
		}
		rc = newRecorder(opts.Instrument, estimateRecords(p, nodes, window, opts.Instrument))
		rc.hooks(&opts)
	}
	opts.trace = rc != nil || j.Trace != nil
	var rt runtime
	switch {
	case noIO:
		rt = buildNoIO(p, id, opts.Instrument)
	case stages == nil:
		rt = buildFleet(p, j.Graph, opts)
	default:
		rt = buildPipeline(p, stages, opts)
	}
	e := rt.base()
	e.rc = rc
	if ctx.Done() != nil {
		e.k.SetCancelCheck(cancelPollEvents, func() bool { return ctx.Err() != nil })
	}

	rt.start()
	if cp != nil {
		e.k.RunUntil(sim.Time(cp.atS))
		if err = ctx.Err(); err == nil {
			err = cp.fn(e)
		}
	}
	if err == nil {
		if j.UntilS > 0 {
			e.k.RunUntil(sim.Time(j.UntilS))
		} else {
			e.k.Run()
		}
		err = ctx.Err()
	}
	if err != nil {
		rt.release()
		if rc != nil {
			rc.release()
		}
		return Outcome{}, err
	}

	out := rt.outcome(id, label)
	if rc != nil {
		rc.collect(e.nodes, out.Metrics.Series)
	}
	if j.Trace != nil {
		*j.Trace = make([][]node.ModeSpan, len(e.nodes))
		for i, b := range e.nodes {
			b.Power().Finish()
			(*j.Trace)[i] = b.Power().Trace()
		}
	}
	// Release before finish: the engine (live coroutines, mode traces,
	// sampler series) is then garbage while a long log encodes, instead
	// of adding to the run's peak memory.
	rt.release()
	if rc != nil {
		err = rc.finish(&out, chk, j.Log)
	}
	return out, err
}

// resolve validates the job and derives what exec builds: the
// outcome's ID and label, and the pipeline stages (nil on the worker
// and no-I/O engines). An experiment also sets its techniques in opts.
func (j *Job) resolve(opts *runOpts) (id ID, label string, stages []StageConfig, err error) {
	id, label = j.Exp, j.Label
	named := 0
	for _, set := range [...]bool{id != "", len(j.Stages) > 0, j.Graph != nil} {
		if set {
			named++
		}
	}
	noIO := id == Exp0A || id == Exp0B
	switch {
	case named != 1:
		return "", "", nil, errors.New("core: a job names exactly one of Exp, Stages or Graph")
	case id != "":
		if j.Ack || j.RotationPeriod != 0 {
			return "", "", nil, fmt.Errorf("core: experiment %s fixes its own techniques (Ack, RotationPeriod)", id)
		}
		if label == "" {
			label = Label(id)
			if id == Exp3A {
				label = "Governor study: " + j.Params.Governor.String()
			}
		}
		if !noIO {
			stages, err = stagesFor(id, j.Params, opts)
		}
	case j.Graph != nil:
		id = ID(label)
		if err := j.Graph.Validate(); err != nil {
			return "", "", nil, fmt.Errorf("core: invalid topology: %w", err)
		}
		chain := j.Graph.Chain()
		if chain == nil && (j.Ack || j.RotationPeriod > 1 || j.Native != nil) {
			return "", "", nil, errors.New("core: ack/rotation/native are pipeline-engine options; this graph is not a chain")
		}
		for _, ns := range chain {
			stages = append(stages, StageConfig{Compute: ns.Compute, Comm: ns.Comm, Idle: ns.Idle, RefS: ns.RefS, OutKB: ns.OutKB})
		}
	default:
		id, stages = ID(label), j.Stages
	}
	switch {
	case err != nil:
	case opts.Ack && len(stages) != 2:
		err = errors.New("core: recovery protocol is defined for two-node pipelines")
	case j.UntilS < 0 || (j.Log != nil && j.UntilS == 0):
		err = fmt.Errorf("core: non-positive log window %v", j.UntilS)
	case noIO && (j.UntilS > 0 || j.Log != nil || j.Trace != nil):
		err = fmt.Errorf("core: experiment %s has no I/O to window, log or trace (pipeline experiments 1…2D only)", id)
	default:
		err = j.Params.Governor.Validate()
	}
	return id, label, stages, err
}

// runtime is one of the three engines a job runs on: the pipeline Rig,
// the graph worker fleet (a bare engine) and the lone no-I/O node.
type runtime interface {
	base() *engine
	// start launches the nodes (and the pipeline's host).
	start()
	// outcome assembles the run's Outcome: the engine's common fields
	// plus the runtime's own.
	outcome(id ID, label string) Outcome
	// release tears the run down once its outcome, records and trace
	// are taken: the kernel's processes exit, and pooled simulation
	// state (rendezvous offers, the pipeline host's frame jobs) returns
	// to the process-wide pools.
	release()
}

// engine is the substrate every runtime assembles a run on and the
// driver reads back: kernel, metrics registry (nil when uninstrumented),
// serial network, fault scenario and injector (nil without one), the
// retry and governor policies after precedence, the nodes through their
// shared base, and the host's delivery count and clock.
type engine struct {
	k      *sim.Kernel
	reg    *metrics.Registry
	net    *serial.Network
	faults *fault.Scenario
	inj    *fault.Injector
	retry  serial.RetryPolicy
	gov    governor.Spec
	nodes  []*node.Base

	frameS   float64
	onResult func(frame int, payload any)
	rc       *recorder
	// delivered counts results at the host; lastResult is the latest
	// one's time, the stall clock both watch loops read.
	delivered  int
	lastResult sim.Time
}

// newEngine builds a run's substrate from the options' instrument,
// faults and observer fields. A scenario's retry policy wins over
// Params.Retry.
func newEngine(p Params, opts runOpts) engine {
	e := engine{k: sim.NewKernel(), faults: opts.faults, retry: p.Retry, gov: p.Governor,
		frameS: p.FrameDelayS, onResult: opts.OnResult}
	if opts.Instrument {
		e.reg = metrics.New(e.k)
	}
	e.net = serial.NewNetwork(e.k, p.Link)
	e.net.SetMetrics(e.reg)
	e.net.OnTransfer = opts.onTransfer
	e.net.OnRetry = opts.onRetry
	if opts.faults != nil {
		// MustInjector: a scenario that reaches here was validated at
		// load time, so a failure is a programming error.
		e.inj = fault.MustInjector(*opts.faults)
		e.inj.OnFault = opts.onFault
		e.net.Fault = e.inj
		if rpo := opts.faults.Retry; rpo != nil {
			e.retry = *rpo
		}
	}
	return e
}

func (e *engine) base() *engine { return e }

func (e *engine) start() {
	for _, b := range e.nodes {
		b.Start()
	}
}

func (e *engine) release() {
	e.k.Shutdown()
	e.net.Release()
}

// power builds one node's meter: a CPU starting at the comm point, and
// the platform battery with the scenario's capacity variance for name
// applied before metering starts, so the death prediction sees the
// scaled pack. trace enables mode tracing.
func (e *engine) power(p Params, name string, comm cpu.OperatingPoint, trace bool) *node.Power {
	c := cpu.New(p.Power, comm)
	bat := p.Battery()
	battery.ScaleCapacity(bat, e.faults.CapacityScale(name))
	pw := node.NewPower(e.k, c, bat)
	if trace {
		pw.EnableTrace()
	}
	return pw
}

// deliver counts one result at the host: the stall clock, the caller's
// callback, and the recorder's result and latency records.
func (e *engine) deliver(frame int, from string, payload any) {
	e.delivered++
	e.lastResult = e.k.Now()
	if e.onResult != nil {
		e.onResult(frame, payload)
	}
	if e.rc != nil {
		t := float64(e.lastResult)
		e.rc.onResult(t, frame, from, t-float64(frame)*e.frameS)
	}
}

// stop ends the run: the samplers take their last point, and every node
// still holding charge has its process interrupted at the current
// instant, so stranded nodes stop and their remaining charge is
// reported.
func (e *engine) stop() {
	e.reg.StopSamplers()
	for _, b := range e.nodes {
		if !b.Dead() {
			e.k.At(e.k.Now(), func() {
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
// derivative). A no-op on uninstrumented runs.
func (e *engine) registerSamplers() {
	reg, k, period := e.reg, e.k, sim.Duration(DefaultSamplePeriodS)
	if reg == nil {
		return
	}
	for _, b := range e.nodes {
		pw, port := b.Power(), b.Port()
		reg.Sample("battery_soc", b.Name, period, func() float64 {
			return pw.Battery().StateOfCharge()
		})
		reg.Sample("battery_available", b.Name, period, func() float64 {
			return battery.Available(pw.Battery())
		})
		reg.Sample("port_pending", b.Name, period, func() float64 {
			return float64(port.Pending())
		})
	}
	reg.Sample("sim_queue_depth", "", period, func() float64 {
		return float64(k.QueueLen())
	})
	reg.Sample("sim_events_fired", "", period, func() float64 {
		return float64(k.Fired())
	})
}

// outcome assembles the fields every runtime reports; the Rig and the
// no-I/O node add their own.
func (e *engine) outcome(id ID, label string) Outcome {
	var govName string
	if e.gov.Enabled() {
		govName = e.gov.String()
	}
	out := Outcome{
		ID:           id,
		Label:        label,
		Governor:     govName,
		Nodes:        len(e.nodes),
		Frames:       e.delivered,
		BatteryLifeH: float64(e.delivered) * e.frameS / 3600,
		WallH:        float64(e.lastResult) / 3600,
		Events:       e.k.Fired(),
		FaultStats:   e.inj.Stats(),
		PortStats:    portStatsOf(e.net),
		Metrics:      e.reg.Snapshot(),
		NodeStats:    make([]NodeStat, len(e.nodes)),
	}
	for i, b := range e.nodes {
		out.NodeStats[i] = statOf(b)
	}
	return out
}
