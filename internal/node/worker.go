package node

import (
	"dvsim/internal/cpu"
	"dvsim/internal/governor"
	"dvsim/internal/metrics"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
)

// WorkerConfig describes one vertex of an arbitrary-topology fleet.
// Unlike the pipeline Config — which is shared by a ring of rotating
// nodes — every worker carries its own work model, because graph
// vertices are heterogeneous by construction (a sensor leaf and a
// fan-in aggregator do different work at different operating points).
type WorkerConfig struct {
	// Name is the node's identity: its port name, metrics label, and
	// the handle fault scenarios target (crash/restart schedules,
	// battery capacity variance).
	Name string
	// D is the fleet's frame period; sources pace themselves by it and
	// the governor budgets against it.
	D float64
	// BudgetS overrides the governor's per-frame deadline (0 = D).
	// Wide-pipeline stages that see every width-th frame get width·D.
	BudgetS float64
	// Source marks a self-pacing vertex: it originates one frame every
	// Stride·D starting at frame Phase, instead of receiving input.
	Source bool
	// Rounds bounds a source's frame numbers to < Rounds (0 = run until
	// the battery dies).
	Rounds int
	// Stride and Phase select a source's frame sequence: Phase,
	// Phase+Stride, Phase+2·Stride, … at their frame times. Zero Stride
	// means 1 (every frame).
	Stride int
	Phase  int
	// RefS is the per-frame reference compute time at the maximum
	// operating point; OutKB the size of the product shipped downstream.
	RefS  float64
	OutKB float64
	// Compute/Comm/Idle are the vertex's operating points; Idle falls
	// back to Comm when zero.
	Compute cpu.OperatingPoint
	Comm    cpu.OperatingPoint
	Idle    cpu.OperatingPoint
	// FanInAll makes the vertex gather one message from every parent
	// before computing (aggregation); otherwise one message per round
	// from any parent suffices (round-robin distribution).
	FanInAll bool
	// Retry bounds retransmission of faulted transfers.
	Retry serial.RetryPolicy
	// Governor selects the online DVS policy re-deciding the compute
	// point each round; the zero spec disables the loop.
	Governor governor.Spec
	// OnGovern observes every governor decision when set.
	OnGovern func(node string, ev governor.Event)
	// Metrics, when non-nil, receives per-node telemetry.
	Metrics *metrics.Registry
}

// Worker is one vertex of a fleet graph: a generalization of the
// pipeline Node to arbitrary fan-in/fan-out. Data flows along the graph
// edges set by WireGraph; the frame loop is receive (or self-pace),
// compute, emit. Workers do not rotate or migrate — those are ring
// protocols — but the shared Base makes them crash, restart, die and
// govern exactly like pipeline nodes.
type Worker struct {
	Base
	cfg WorkerConfig

	parents  int
	children []*serial.Port
	sink     *serial.Port

	// nextRound is a source's resume point: advanced as frames are
	// emitted, fast-forwarded past the outage on restart.
	nextRound int
}

// NewWorker creates a fleet vertex. WireGraph must be called before
// Start.
func NewWorker(k *sim.Kernel, net *serial.Network, pw *Power, cfg WorkerConfig) *Worker {
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	if cfg.BudgetS <= 0 {
		cfg.BudgetS = cfg.D
	}
	w := &Worker{cfg: cfg, nextRound: cfg.Phase}
	w.init(k, net.Port(cfg.Name), pw, cfg.Name, cfg.Metrics, cfg.Governor, cfg.OnGovern, w.run)
	w.setPoints(cfg.Compute, cfg.Comm, cfg.Idle)
	return w
}

// acceptInter filters a worker's inbound traffic to internode data.
func acceptInter(m serial.Message) bool { return m.Kind == serial.KindInter }

// WireGraph connects the vertex to its graph neighborhood: the number
// of inbound edges, the child ports receiving its output (selected
// round-robin by frame number), and — for sink vertices — the host
// collector port its results go to.
func (w *Worker) WireGraph(parents int, children []*serial.Port, sink *serial.Port) {
	w.parents = parents
	w.children = children
	w.sink = sink
}

// Source reports whether the worker originates frames.
func (w *Worker) Source() bool { return w.cfg.Source }

// Exhausted reports that a bounded source has emitted every frame it
// was asked for; the fleet watch loop uses it to detect completion.
func (w *Worker) Exhausted() bool {
	return w.cfg.Source && w.cfg.Rounds > 0 && w.nextRound >= w.cfg.Rounds
}

// Restart ends an injected outage (fault.CrashTarget). A source resumes
// at the first frame time after the outage instead of bursting through
// the frames it slept over.
func (w *Worker) Restart() bool {
	if !w.resume() {
		return false
	}
	if w.cfg.Source {
		for w.nextRound >= w.cfg.Phase &&
			float64(w.nextRound)*w.cfg.D < float64(w.k.Now()) {
			w.nextRound += w.cfg.Stride
		}
	}
	w.spawn()
	return true
}

// run is the worker's round loop.
func (w *Worker) run(p *sim.Proc) {
	defer w.power.Finish()
	for {
		proc0, comm0 := w.modeClocks()
		frame, ok := w.obtainRound(p)
		if !ok {
			return
		}
		if !w.compute(p, w.computePoint(), w.cfg.RefS) {
			return
		}
		w.processed()
		ts := p.Now()
		if !w.emit(p, frame) {
			return
		}
		w.met.sendS.Observe(float64(p.Now() - ts))
		// Workers observe no downstream wait: the governor sees 0.
		w.govern(p, frame, proc0, comm0, w.cfg.BudgetS, 0)
		w.idle()
	}
}

// obtainRound produces the frame number this round works on: the next
// paced frame for sources, the gathered input otherwise. ok is false
// when the worker should stop (death, exhausted source).
func (w *Worker) obtainRound(p *sim.Proc) (frame int, ok bool) {
	if w.cfg.Source {
		r := w.nextRound
		if w.cfg.Rounds > 0 && r >= w.cfg.Rounds {
			return 0, false
		}
		w.idle()
		if err := p.WaitUntil(sim.Time(float64(r) * w.cfg.D)); err != nil {
			return 0, false
		}
		w.nextRound = r + w.cfg.Stride
		return r, true
	}
	need := 1
	if w.cfg.FanInAll && w.parents > 1 {
		need = w.parents
	}
	t0 := p.Now()
	frame = 0
	for i := 0; i < need; i++ {
		w.idle()
		msg, err := w.port.RecvOpts(p, serial.RxOpts{
			Deadline: sim.Infinity,
			Match:    acceptInter,
			OnStart:  w.commStartFn,
			OnAbort:  w.idleFn, // faulted transfer discarded; back to waiting
		})
		w.idle()
		if err != nil {
			return 0, false
		}
		if msg.Frame > frame {
			frame = msg.Frame
		}
	}
	w.met.recvS.Observe(float64(p.Now() - t0))
	return frame, true
}

// emit ships the round's product along the graph: a result to the host
// collector for sink vertices, an internode transfer to the frame's
// round-robin child otherwise. Faulted transfers past the retransmit
// budget are written off so the fleet does not stall on a lossy edge.
func (w *Worker) emit(p *sim.Proc, frame int) bool {
	dst, kind := w.sink, serial.KindResult
	if dst == nil {
		if len(w.children) == 0 {
			return true
		}
		dst, kind = w.children[frame%len(w.children)], serial.KindInter
	}
	err := w.port.SendReliable(p, dst, serial.Message{
		Kind: kind, Frame: frame, KB: w.cfg.OutKB,
	}, serial.TxOpts{OnStart: w.commStartFn, OnBackoff: w.idleFn}, w.cfg.Retry)
	w.idle()
	if lostOnWire(err) {
		return w.abandon()
	}
	if err != nil {
		return false
	}
	if kind == serial.KindResult {
		w.delivered()
	}
	return true
}
