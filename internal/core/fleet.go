package core

import (
	"fmt"

	"dvsim/internal/node"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
	"dvsim/internal/topology"
)

// RunTopology simulates a fleet over an arbitrary topology graph (see
// internal/topology). Chain-shaped graphs — the paper's serial
// pipelines at any length — run on the pipeline engine, with host
// pacing, rotation and the recovery protocol available through opts
// exactly as RunCustom offers them. Everything else (wide pipelines,
// trees, meshes, hand-built DAGs) runs on the graph worker engine:
// sources pace themselves, interior vertices gather fan-in, and sink
// results land at a host collector that plays the role of the paper's
// workstation.
//
// All of Options applies to chains; on the graph engine Ack, Rotation
// and Native are rejected (those are ring protocols), while MaxFrames,
// OnResult, Instrument, Faults, Governor, OnGovern and Assertions
// behave identically (graph results carry no payload). The run is
// deterministic: graph construction order fixes same-instant event
// ordering.
func RunTopology(label string, p Params, g *topology.Graph, opts Options) Outcome {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid topology: %v", err))
	}
	if chain := g.Chain(); chain != nil {
		stages := make([]StageConfig, len(chain))
		for i, ns := range chain {
			stages[i] = StageConfig{
				Compute: ns.Compute, Comm: ns.Comm, Idle: ns.Idle,
				RefS: ns.RefS, OutKB: ns.OutKB,
			}
		}
		return RunCustom(label, p, stages, opts)
	}
	if opts.Ack || opts.RotationPeriod > 1 || opts.Native != nil {
		panic("core: ack/rotation/native are pipeline-engine options; this graph is not a chain")
	}
	return runFleet(label, p, g, opts)
}

// runFleet materializes a non-chain graph on the worker engine and runs
// it to completion: every source exhausted (bounded runs) or the fleet
// dead/stalled (unbounded runs), mirroring buildPipeline's stop
// conditions.
func runFleet(label string, p Params, g *topology.Graph, o Options) Outcome {
	opts := o.internal(p)
	eng := checker(opts.assertions, p)
	// Recording: the same recorder substrate as assertion-checked
	// pipeline runs, fed by the same hooks.
	var rc *recorder
	if eng != nil {
		opts.instrument = true
		rc = newRecorder(true, estimateRecords(p, len(g.Nodes), float64(opts.maxFrames)*p.FrameDelayS, true))
		rc.hooks(&opts)
	}
	st := newRunSetup(p, opts)
	k, reg, net, gov := st.k, st.reg, st.net, st.gov

	sink := net.Port("host-sink")
	workers := make([]*node.Worker, len(g.Nodes))
	for i, ns := range g.Nodes {
		pw := st.power(p, ns.Name, ns.Comm, eng != nil)
		budget := p.FrameDelayS
		if ns.BudgetFactor > 0 {
			budget = ns.BudgetFactor * p.FrameDelayS
		}
		workers[i] = node.NewWorker(k, net, pw, node.WorkerConfig{
			Name:     ns.Name,
			D:        p.FrameDelayS,
			BudgetS:  budget,
			Source:   ns.Source(),
			Rounds:   opts.maxFrames,
			Stride:   ns.Stride,
			Phase:    ns.Phase,
			RefS:     ns.RefS,
			OutKB:    ns.OutKB,
			Compute:  ns.Compute,
			Comm:     ns.Comm,
			Idle:     ns.Idle,
			FanInAll: ns.FanInAll,
			Retry:    st.retry,
			Governor: gov,
			OnGovern: opts.onGovern,
			Metrics:  reg,
		})
	}
	for i, ns := range g.Nodes {
		children := make([]*serial.Port, len(ns.Children))
		for j, ci := range ns.Children {
			children[j] = workers[ci].Port()
		}
		var sp *serial.Port
		if ns.Sink {
			sp = sink
		}
		workers[i].WireGraph(len(ns.Parents), children, sp)
	}
	armCrashes(st.inj, k, workers)
	if reg != nil {
		registerSamplers(reg, k, workers, DefaultSamplePeriodS)
	}

	// The collector: the workstation's sink, counting results and
	// timestamping the last one for the stall clock.
	var results int
	var lastResult sim.Time
	onResult := opts.onResult
	k.Spawn("host-sink", func(pr *sim.Proc) {
		for {
			msg, err := sink.Recv(pr)
			if err != nil {
				return
			}
			results++
			lastResult = k.Now()
			if onResult != nil {
				onResult(msg.Frame, msg.Payload)
			}
			if rc != nil {
				t := float64(k.Now())
				rc.result = append(rc.result, LogRecord{
					T: t, Event: "result", Frame: msg.Frame, From: msg.From,
				})
				rc.latency = append(rc.latency, LogRecord{
					T: t, Event: "latency", Frame: msg.Frame, From: msg.From,
					Value: t - float64(msg.Frame)*p.FrameDelayS,
				})
			}
		}
	})

	// Stop conditions, mirroring buildPipeline's watch: everyone dead,
	// or silence at the sink after a death/outage or source exhaustion.
	finished := false
	finish := func() {
		if finished {
			return
		}
		finished = true
		reg.StopSamplers()
		interruptLive(k, workers)
	}
	stallWindow := sim.Time(50 * p.FrameDelayS)
	var watch func()
	watch = func() {
		allDead, anyDown, sourcesDone := true, false, true
		for _, w := range workers {
			if !w.Available() {
				anyDown = true
			}
			if !w.Dead() {
				allDead = false
			}
			if w.Source() && !w.Exhausted() {
				sourcesDone = false
			}
		}
		if allDead || ((anyDown || sourcesDone) && k.Now()-lastResult > stallWindow) {
			finish()
			return
		}
		k.After(sim.Duration(10*p.FrameDelayS), watch)
	}
	k.After(sim.Duration(10*p.FrameDelayS), watch)

	for _, w := range workers {
		w.Start()
	}
	k.Run()

	var govName string
	if gov.Enabled() {
		govName = gov.String()
	}
	out := Outcome{
		ID:           ID(label),
		Label:        label,
		Governor:     govName,
		Nodes:        len(workers),
		Frames:       results,
		BatteryLifeH: float64(results) * p.FrameDelayS / 3600,
		WallH:        float64(lastResult) / 3600,
		Events:       k.Fired(),
		FaultStats:   st.inj.Stats(),
		PortStats:    portStatsOf(net),
		Metrics:      reg.Snapshot(),
	}
	for _, w := range workers {
		out.NodeStats = append(out.NodeStats, statOf(&w.Base))
	}
	if eng != nil {
		out.check(eng, collect(rc, workers, reg))
		rc.release()
	}
	return out
}

// RunExperiment is Run with a frame bound: experiment lines in manifest
// runfiles use it to keep hundred-line sweeps affordable. maxFrames ≤ 0
// runs to battery exhaustion, exactly like Run. The no-I/O experiments
// (0A/0B) have no frame source to bound and always run to exhaustion;
// 3A requires a governor and runs that single policy (use
// RunGovernorStudy for the full four-policy comparison).
func RunExperiment(id ID, p Params, maxFrames int) Outcome {
	switch id {
	case Exp0A, Exp0B:
		return Run(id, p)
	case Exp3A:
		if !p.Governor.Enabled() {
			panic("core: experiment 3A needs a governor (set Params.Governor)")
		}
		return RunGovernorPolicy(p, p.Governor, maxFrames)
	}
	if maxFrames <= 0 {
		return Run(id, p)
	}
	stages, opts := stagesFor(id, p)
	if p.Faults != nil {
		opts.faults = p.Faults
	}
	opts.maxFrames = maxFrames
	return runPipeline(id, p, stages, opts)
}
