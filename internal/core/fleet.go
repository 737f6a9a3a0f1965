package core

import (
	"dvsim/internal/node"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
	"dvsim/internal/topology"
)

// buildFleet materializes a non-chain graph on the worker engine: the
// run ends with every source exhausted (bounded runs) or the fleet
// dead/stalled (unbounded runs), mirroring buildPipeline's stop
// conditions. Graph construction order fixes same-instant event
// ordering, so the run is deterministic.
func buildFleet(p Params, g *topology.Graph, opts runOpts) *engine {
	e := newEngine(p, opts)
	k, net := e.k, e.net

	sink := net.Port("host-sink")
	workers := make([]*node.Worker, len(g.Nodes))
	e.nodes = make([]*node.Base, len(g.Nodes))
	for i, ns := range g.Nodes {
		pw := e.power(p, ns.Name, ns.Comm, opts.trace)
		budget := p.FrameDelayS
		if ns.BudgetFactor > 0 {
			budget = ns.BudgetFactor * p.FrameDelayS
		}
		workers[i] = node.NewWorker(k, net, pw, node.WorkerConfig{
			Name:     ns.Name,
			D:        p.FrameDelayS,
			BudgetS:  budget,
			Source:   ns.Source(),
			Rounds:   opts.MaxFrames,
			Stride:   ns.Stride,
			Phase:    ns.Phase,
			RefS:     ns.RefS,
			OutKB:    ns.OutKB,
			Compute:  ns.Compute,
			Comm:     ns.Comm,
			Idle:     ns.Idle,
			FanInAll: ns.FanInAll,
			Retry:    e.retry,
			Governor: e.gov,
			OnGovern: opts.OnGovern,
			Metrics:  e.reg,
		})
		e.nodes[i] = &workers[i].Base
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
	armCrashes(e.inj, k, workers)
	e.registerSamplers()

	// The collector: the workstation's sink.
	k.Spawn("host-sink", func(pr *sim.Proc) {
		for {
			msg, err := sink.Recv(pr)
			if err != nil {
				return
			}
			e.deliver(msg.Frame, msg.From, msg.Payload)
		}
	})

	// Stop conditions, mirroring buildPipeline's watch: everyone dead,
	// or silence at the sink after a death/outage or source exhaustion.
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
		if allDead || ((anyDown || sourcesDone) && k.Now()-e.lastResult > stallWindow) {
			e.stop()
			return
		}
		k.After(sim.Duration(10*p.FrameDelayS), watch)
	}
	k.After(sim.Duration(10*p.FrameDelayS), watch)
	return &e
}
