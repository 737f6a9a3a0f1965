package node

import (
	"errors"
	"fmt"

	"dvsim/internal/atr"
	"dvsim/internal/cpu"
	"dvsim/internal/governor"
	"dvsim/internal/metrics"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
)

// Role is one stage of the pipeline: which ATR blocks to run, at which
// operating points. Roles are global to the pipeline; node rotation moves
// nodes between roles without changing the roles themselves.
type Role struct {
	// Index is the 1-based pipeline position.
	Index int
	// Span is the contiguous block range this stage computes.
	Span atr.Span
	// Compute is the operating point for PROC.
	Compute cpu.OperatingPoint
	// Comm is the operating point for RECV/SEND; equal to Compute
	// unless DVS-during-I/O is enabled (§5.2).
	Comm cpu.OperatingPoint
	// Idle is the operating point while blocked with nothing to do; the
	// zero value falls back to Comm (the paper's workloads have no idle
	// time, so the distinction only matters for low-duty-cycle studies).
	Idle cpu.OperatingPoint
	// RefS, when positive, is the stage's per-frame reference compute
	// time (seconds at the maximum operating point), overriding the
	// profiled Span. It frees pipelines from the ATR profile's four
	// blocks: arbitrary-length chains built by internal/topology assign
	// synthetic per-stage work here. Zero keeps the profile-driven
	// timing, byte for byte.
	RefS float64
	// OutKB, when positive, overrides the profiled output size for the
	// stage's downstream transfer. Zero falls back to Prof.OutKB(Span).
	OutKB float64
}

// refSeconds is the role's per-frame reference compute time: the
// explicit override when set, the profiled span otherwise.
func (n *Node) refSeconds(r Role) float64 {
	if r.RefS > 0 {
		return r.RefS
	}
	return n.cfg.Prof.RefSeconds(r.Span)
}

// outKB is the role's downstream transfer size: the explicit override
// when set, the profiled span otherwise.
func (n *Node) outKB(r Role) float64 {
	if r.OutKB > 0 {
		return r.OutKB
	}
	return n.cfg.Prof.OutKB(r.Span)
}

// Config is the pipeline-wide behavior shared by all nodes.
type Config struct {
	Prof atr.Profile
	// D is the frame delay (§4.5).
	D float64
	// NoIO runs the paper's 0A/0B mode: frames come from local storage,
	// no communication at all.
	NoIO bool
	// RotationPeriod > 1 enables node rotation every that many frames
	// (§5.5). It must be at least the pipeline depth: each rotation
	// takes one slot per role to propagate down the ring.
	RotationPeriod int
	// Ack enables the power-failure recovery protocol (§5.4): internode
	// transfers are acknowledged, timeouts detect dead peers, and the
	// survivor absorbs the failed node's span. Supported for two-node
	// pipelines, the configuration the paper evaluates.
	Ack bool
	// AckTimeoutS is how long a sender waits for an acknowledgment (and
	// the slack added to receive deadlines) before declaring its peer
	// dead.
	AckTimeoutS float64
	// Exec, when non-nil, runs the real computation for a stage: it maps
	// the inbound payload to the outbound payload (e.g. via
	// atr.Pipeline.ApplySpan). Execution timing still follows the
	// profile — the simulation models the SA-1100's speed, not the host
	// machine's — but the data genuinely flows through the pipeline.
	Exec func(span atr.Span, in any) any
	// Retry bounds retransmission of faulted transfers (drop/garble
	// injected by internal/fault). The zero value disables
	// retransmission; see serial.DefaultRetryPolicy.
	Retry serial.RetryPolicy
	// Metrics, when non-nil, receives per-node telemetry: RECV/PROC/SEND
	// phase latency histograms, DVS switch and rotation/migration
	// counters. Nil disables recording at near-zero cost.
	Metrics *metrics.Registry
	// Governor selects the online DVS policy that re-decides each node's
	// compute operating point at every frame boundary (see
	// internal/governor). The zero spec disables the decision loop
	// entirely, reproducing the paper's static Table-driven assignment
	// byte for byte. Governors only apply to the pipeline frame loop;
	// the NoIO mode has no frame deadline to govern against.
	Governor governor.Spec
	// OnGovern, when set, observes every governor decision (the
	// telemetry run log's "govern" events). Only called when Governor is
	// enabled.
	OnGovern func(node string, ev governor.Event)
}

// Node is one Itsy computer in the pipeline: the shared Base plus the
// ring's frame loop — roles, rotation, the ack/migration protocol and
// the no-I/O mode.
type Node struct {
	Base
	cfg Config

	roles   []Role // this node's copy of the pipeline roles
	roleIdx int    // current role (0-based index into roles)
	phys    int    // physical position in the ring, 0-based

	// ring[i] is the physical node at position i; set by Wire.
	ring []*Node
	// hostSink is where final results go.
	hostSink *serial.Port

	// carry marks data kept across a rotation (the "input data already
	// available" of §5.5), tagged with its frame number.
	carry *carriedFrame

	// Hoisted serial callbacks, bound once in New (see Base).
	acceptKindFn func(serial.Message) bool
	sendStartFn  func()
	// sendQueued anchors sendStartFn's down-wait measurement for the
	// frame's outbound transfer.
	sendQueued sim.Time

	// sendWaitS records how long the current frame's outbound transfer
	// waited for the downstream port — the rendezvous model's observable
	// form of downstream queue occupancy, fed to the governor.
	sendWaitS   float64
	sendWaitSet bool

	// Stats beyond Base's.
	Rotations  int
	Migrations int
	peerDead   []bool // detected failures, by physical index
}

type carriedFrame struct {
	frame   int
	payload any
}

// New creates a node at physical ring position phys. Wire must be called
// before Start.
func New(k *sim.Kernel, net *serial.Network, pw *Power, cfg Config, roles []Role, phys int) *Node {
	if cfg.RotationPeriod > 1 && cfg.RotationPeriod < len(roles) {
		// A rotation takes one pipeline slot per role to propagate
		// (Fig 9); a shorter period would overlap transitions and strand
		// frames mid-pipeline.
		panic(fmt.Sprintf("node: rotation period %d shorter than pipeline depth %d",
			cfg.RotationPeriod, len(roles)))
	}
	name := fmt.Sprintf("node%d", phys+1)
	own := make([]Role, len(roles))
	copy(own, roles)
	n := &Node{cfg: cfg, roles: own, phys: phys}
	n.init(k, net.Port(name), pw, name, cfg.Metrics, cfg.Governor, cfg.OnGovern, n.run)
	n.met.rotations = cfg.Metrics.Counter("node_rotations", name)
	n.met.migrations = cfg.Metrics.Counter("node_migrations", name)
	// Initially physical position i holds role i+1.
	n.takeRole(phys)
	n.acceptKindFn = n.acceptKind
	n.sendStartFn = n.onSendStart
	return n
}

// Wire connects the node to the pipeline ring and the host sink port.
func (n *Node) Wire(ring []*Node, hostSink *serial.Port) {
	n.ring = ring
	n.hostSink = hostSink
	n.peerDead = make([]bool, len(ring))
}

// Role returns the node's current role.
func (n *Node) Role() Role { return n.roles[n.roleIdx] }

// takeRole makes roles[idx] the node's current role and points the
// shared base at its operating points.
func (n *Node) takeRole(idx int) {
	n.roleIdx = idx
	r := n.roles[idx]
	n.setPoints(r.Compute, r.Comm, r.Idle)
}

// rotate moves the node to the next role in the ring (§5.5).
func (n *Node) rotate() {
	n.takeRole((n.roleIdx + 1) % len(n.roles))
	n.Rotations++
	n.met.rotations.Inc()
	n.governReset()
}

// Restart ends an injected outage (fault.CrashTarget): metering
// resumes, any carried frame is lost, and a fresh process re-enters the
// frame loop in the node's current role. It reports whether it applied —
// only a crashed, non-dead node can restart.
func (n *Node) Restart() bool {
	if !n.resume() {
		return false
	}
	n.carry = nil
	n.spawn()
	return true
}

// upstreamPhys / downstreamPhys are the ring neighbors.
func (n *Node) upstreamPhys() int   { return (n.phys - 1 + len(n.ring)) % len(n.ring) }
func (n *Node) downstreamPhys() int { return (n.phys + 1) % len(n.ring) }

// run is the node's frame loop.
func (n *Node) run(p *sim.Proc) {
	defer n.power.Finish()
	if n.cfg.NoIO {
		n.runNoIO(p)
		return
	}
	for {
		proc0, comm0 := n.modeClocks()
		n.sendWaitS, n.sendWaitSet = 0, false
		frame, payload, ok := n.obtainInput(p)
		if !ok {
			return
		}
		var out any
		if !n.process(p, n.Role(), n.computePoint(), payload, &out) {
			return
		}
		n.processed()

		// Rotation trigger (§5.5): the node holding role r rotates after
		// processing frame f with (f + r) ≡ 0 (mod R). Since role r works
		// on frame I − (r−1) when role 1 works on I, every role triggers
		// in the same pipeline slot, which is what lets the carried data
		// replace the eliminated SEND/RECV pair.
		rotating := n.cfg.RotationPeriod > 1 && len(n.roles) > 1 &&
			(frame+n.Role().Index)%n.cfg.RotationPeriod == 0
		last := n.Role().Index == len(n.roles)

		if rotating && !last {
			// §5.5: keep the result, become the next role, continue
			// computing on the data already in memory. The eliminated
			// SEND/RECV pair pays for the reconfiguration.
			n.carry = &carriedFrame{frame: frame, payload: out}
			n.rotate()
			n.idle()
			continue
		}
		ts := p.Now()
		ok, handled := n.sendOutput(p, frame, out)
		if !ok {
			return
		}
		n.met.sendS.Observe(float64(p.Now() - ts))
		if n.Role().Index == len(n.roles) && !handled {
			n.delivered()
		}
		if rotating && last {
			// The last node becomes the first (§5.5): next iteration it
			// receives a fresh frame from the host.
			n.rotate()
		} else {
			n.govern(p, frame, proc0, comm0, n.cfg.D, n.sendWaitS)
		}
		n.idle()
	}
}

// sendStart arms and returns the TxOpts.OnStart callback for an
// outbound data transfer: under a governor it additionally records,
// once per frame, how long the offer waited before the downstream port
// accepted it (the buffer-aware policy's congestion signal).
func (n *Node) sendStart(p *sim.Proc) func() {
	n.sendQueued = p.Now()
	return n.sendStartFn
}

// onSendStart is the hoisted body of the callback sendStart arms.
func (n *Node) onSendStart() {
	if n.gov != nil && !n.sendWaitSet {
		n.sendWaitSet = true
		n.sendWaitS = float64(n.k.Now() - n.sendQueued)
	}
	n.commStart()
}

// runNoIO is the 0A/0B loop: back-to-back whole-algorithm computation.
func (n *Node) runNoIO(p *sim.Proc) {
	var sink any
	for {
		if !n.process(p, n.Role(), n.Role().Compute, nil, &sink) {
			return
		}
		n.processed()
	}
}

// obtainInput produces the frame number to work on: carried data after a
// rotation, or a receive from upstream (host for role 1, ring predecessor
// otherwise). ok is false when the node should stop (death).
func (n *Node) obtainInput(p *sim.Proc) (frame int, payload any, ok bool) {
	if n.carry != nil {
		frame, payload = n.carry.frame, n.carry.payload
		n.carry = nil
		return frame, payload, true
	}
	t0 := p.Now()
	grace := false
	for {
		n.idle() // blocked waiting is idle time
		msg, err := n.port.RecvOpts(p, serial.RxOpts{
			Deadline: n.recvDeadline(p),
			Match:    n.acceptKindFn,
			OnStart:  n.commStartFn,
			OnAbort:  n.idleFn, // faulted transfer discarded; back to waiting
		})
		n.idle()
		switch {
		case err == nil:
			if n.cfg.Ack && msg.Kind == serial.KindInter {
				// Acknowledge the transfer (§5.4), retransmitting a
				// faulted ack within the budget. An exhausted budget
				// keeps the frame anyway — the sender abandons or
				// migrates on its own timeout.
				src := n.ring[n.upstreamPhys()]
				err := n.port.SendReliable(p, src.Port(), serial.Message{
					Kind: serial.KindAck, Frame: msg.Frame,
				}, serial.TxOpts{OnStart: n.commStartFn, OnBackoff: n.idleFn}, n.cfg.Retry)
				n.idle()
				if err != nil && !lostOnWire(err) {
					return 0, nil, false
				}
			}
			n.met.recvS.Observe(float64(p.Now() - t0))
			return msg.Frame, msg.Payload, true
		case errors.Is(err, sim.ErrTimeout):
			// No data within the detection window. A peer that is alive
			// (merely slow: backoffs, a transient outage it already
			// recovered from) gets one grace window; after that — or
			// when the peer is dead or crashed — it is absorbed (§5.4).
			if !grace && n.ring[n.upstreamPhys()].Available() {
				grace = true
				continue
			}
			if _, ok := n.migrateFrom(p, n.upstreamPhys()); !ok {
				return 0, nil, false
			}
		default:
			return 0, nil, false // interrupted: battery death or shutdown
		}
	}
}

// recvDeadline is the failure-detection deadline for inbound data: only
// recovery-enabled interior stages time out.
func (n *Node) recvDeadline(p *sim.Proc) sim.Time {
	if n.cfg.Ack && n.Role().Index > 1 {
		// Upstream should deliver within about one frame period; allow
		// generous slack for pipeline jitter.
		return p.Now() + sim.Time(2*n.cfg.D+n.cfg.AckTimeoutS)
	}
	return sim.Infinity
}

// isAck matches acknowledgment transactions (sendOutput's ack wait).
func isAck(m serial.Message) bool { return m.Kind == serial.KindAck }

// acceptKind filters the node's inbound port traffic to the data messages
// its role expects; acks are consumed explicitly by sendOutput.
func (n *Node) acceptKind(m serial.Message) bool {
	if n.Role().Index == 1 {
		return m.Kind == serial.KindFrame
	}
	return m.Kind == serial.KindInter
}

// process runs the role's computation at the given point, applying the
// native stage function to the payload when one is configured. ok is
// false on interruption (death).
func (n *Node) process(p *sim.Proc, role Role, at cpu.OperatingPoint, in any, out *any) bool {
	if !n.compute(p, at, n.refSeconds(role)) {
		return false
	}
	if n.cfg.Exec != nil {
		*out = n.cfg.Exec(role.Span, in)
	}
	return true
}

// sendOutput ships the span's product downstream: the final result to the
// host for the last role, the intermediate payload to the ring successor
// otherwise. With Ack enabled, internode sends wait for the ack and treat
// a timeout as peer death, migrating the dead peer's span here and
// finishing the current frame locally. handled reports that the frame's
// result accounting was resolved internally — counted inside the
// recursive migration completion, or written off as abandoned after a
// spent retransmit budget.
func (n *Node) sendOutput(p *sim.Proc, frame int, payload any) (ok, handled bool) {
	role := n.Role()
	msg := serial.Message{Kind: serial.KindInter, Frame: frame, KB: n.outKB(role), Payload: payload}
	var dst *Node // ring successor; nil for the last role
	to := n.hostSink
	if role.Index == len(n.roles) {
		msg.Kind = serial.KindResult
	} else {
		dst = n.ring[n.downstreamPhys()]
		to = dst.Port()
	}
	if dst == nil || !n.cfg.Ack {
		err := n.port.SendReliable(p, to, msg,
			serial.TxOpts{OnStart: n.sendStart(p), OnBackoff: n.idleFn}, n.cfg.Retry)
		n.idle()
		if lostOnWire(err) {
			return true, n.abandon()
		}
		return err == nil, false
	}
	// Recovery protocol: deliver, then await the ack.
	deadline := p.Now() + sim.Time(n.cfg.D+n.cfg.AckTimeoutS)
	err := n.port.SendReliable(p, dst.Port(), msg,
		serial.TxOpts{Deadline: deadline, OnStart: n.sendStart(p), OnBackoff: n.idleFn}, n.cfg.Retry)
	n.idle()
	if err == nil {
		ackDeadline := p.Now() + sim.Time(n.cfg.AckTimeoutS)
		_, err = n.port.RecvOpts(p, serial.RxOpts{
			Deadline: ackDeadline,
			Match:    isAck,
			OnStart:  n.commStartFn,
			OnAbort:  n.idleFn,
		})
		n.idle()
	}
	switch {
	case err == nil:
		return true, false
	case lostOnWire(err):
		// The wire ate the frame past the retransmit budget; write it
		// off and move on rather than stall the pipeline.
		return true, n.abandon()
	case errors.Is(err, sim.ErrTimeout):
		// No ack within the window. A peer that is alive is merely slow
		// (or the ack itself was lost past its budget): abandon the
		// frame and continue. A dead or crashed peer is absorbed, this
		// frame's remaining blocks finished locally, and the result
		// delivered (§5.4/§6.6).
		if dst.Available() {
			return true, n.abandon()
		}
		absorbed, ok := n.migrateFrom(p, n.downstreamPhys())
		if !ok {
			return false, false
		}
		var out any
		if !n.process(p, absorbed, n.Role().Compute, payload, &out) {
			return false, false
		}
		ok, _ = n.sendOutput(p, frame, out)
		if ok {
			n.delivered()
		}
		return ok, true
	default:
		return false, false
	}
}

// migrateFrom absorbs the span of the dead physical peer into this node's
// role (§5.4). After migration the survivor runs the merged span as a
// single-stage pipeline at full clock — with both communication legs plus
// the enlarged span there is no DVS headroom left, which is how §6.6 runs
// the surviving node. Migration is defined for two-node pipelines (the
// paper's experiment); with everyone else dead, ok is false and the node
// stops.
func (n *Node) migrateFrom(p *sim.Proc, deadPhys int) (absorbed Role, ok bool) {
	if deadPhys == n.phys || n.peerDead[deadPhys] || len(n.ring) != 2 {
		return Role{}, false
	}
	dead := n.ring[deadPhys]
	n.peerDead[deadPhys] = true
	myRole := n.Role()
	deadRole := dead.Role()
	var merged atr.Span
	switch {
	case deadRole.Span.Last+1 == myRole.Span.First:
		merged = atr.Span{First: deadRole.Span.First, Last: myRole.Span.Last}
	case myRole.Span.Last+1 == deadRole.Span.First:
		merged = atr.Span{First: myRole.Span.First, Last: deadRole.Span.Last}
	default:
		return Role{}, false
	}
	// Synthetic-work roles (RefS overrides) merge by summing reference
	// times; the zero values keep profile-driven pipelines byte-stable.
	var mergedRefS float64
	if myRole.RefS > 0 || deadRole.RefS > 0 {
		mergedRefS = n.refSeconds(myRole) + n.refSeconds(deadRole)
	}
	lastRole := myRole
	if deadRole.Index > myRole.Index {
		lastRole = deadRole
	}
	// The survivor continues in the baseline configuration — full clock
	// for both computation and I/O. §6.6 observes that keeping the
	// system alive through recovery "must be supported with additional,
	// expensive energy consumption", and the paper's survivor frame
	// count (≈5K on the remaining charge) matches baseline operation,
	// not DVS-during-I/O operation.
	n.roles = []Role{{
		Index:   1,
		Span:    merged,
		Compute: cpu.MaxPoint,
		Comm:    cpu.MaxPoint,
		RefS:    mergedRefS,
		OutKB:   lastRole.OutKB,
	}}
	n.takeRole(0)
	n.Migrations++
	n.met.migrations.Inc()
	n.governReset()
	return deadRole, true
}
