package serial

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dvsim/internal/metrics"
	"dvsim/internal/sim"
)

// Simulation layer: ports and rendezvous transfers on the discrete-event
// kernel.
//
// Topology follows the paper's Fig 5: every Itsy node owns one serial
// port, PPP-linked to a dedicated port on the host, which IP-forwards
// between nodes. A node-to-node transfer therefore occupies both nodes'
// ports simultaneously for one transaction time (cut-through forwarding,
// matching Fig 3 where SEND1 and RECV2 overlap); the mains-powered host
// costs nothing.
//
// A transfer is a rendezvous: it begins when the sender's offer meets the
// receiver's accept, lasts LinkParams.TxTime(payload), and releases both
// sides together. Time spent blocked waiting for the peer is idle time,
// not transfer time; the OnStart callbacks tell callers the instant the
// line actually goes active, so they can account CPU modes precisely.

// Kind classifies messages for the node runtime's protocol logic.
type Kind int

// Message kinds.
const (
	// KindFrame is a raw image frame from the host source.
	KindFrame Kind = iota
	// KindInter is an intermediate result between pipeline nodes.
	KindInter
	// KindResult is a final result returned to the host.
	KindResult
	// KindAck is a bare acknowledgment transaction (§5.4).
	KindAck
	// KindCtrl is a control message (failure reports, reconfiguration).
	KindCtrl
)

func (k Kind) String() string {
	switch k {
	case KindFrame:
		return "frame"
	case KindInter:
		return "inter"
	case KindResult:
		return "result"
	case KindAck:
		return "ack"
	case KindCtrl:
		return "ctrl"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Message is one transaction's content.
type Message struct {
	From string
	Kind Kind
	// Frame is the frame sequence number the message pertains to.
	Frame int
	// KB is the payload size on the wire.
	KB float64
	// Payload carries typed data for the native pipeline (images,
	// spectra); the profiled experiments leave it nil.
	Payload any
	// Note carries control details for KindCtrl.
	Note string
}

// offer is a sender waiting at a receiver's port. The rendezvous
// channels are embedded values so a send costs one allocation, not
// three — and offers are recycled through the network's free list, so
// at steady state a send costs none at all.
//
// Release discipline (who returns an offer to the pool): the last party
// that can still touch it. On the success, sender-fault, sender-died and
// withdrawn-while-accepting paths that is the receiver (RecvOpts); a
// withdrawn offer nobody accepted is released by take() when a later
// receive walks over it. A receiver that leaves mid-rendezvous
// (interrupt/shutdown) releases nothing: the sender may still signal the
// embedded channels, so that offer is simply abandoned to the GC —
// bounded by the number of interrupts, not by traffic.
type offer struct {
	msg       Message
	withdrawn bool
	queued    bool         // still in the receiving port's pending queue
	fault     FaultVerdict // set when the transfer was dropped or garbled
	accepted  sim.Chan[struct{}]
	done      sim.Chan[struct{}]
}

// PortStats is one port's transfer accounting, split by direction. The
// Tx side counts transactions this port initiated; the Rx side counts
// transactions accepted here. StartupS is the cumulative per-transaction
// setup latency paid by this port's sends (§4.3's 50–100 ms overhead),
// the quantity the recovery protocol's extra acks inflate.
type PortStats struct {
	TxTransfers int
	TxKB        float64
	TxStartupS  float64
	TxTimeouts  int // sends abandoned before the receiver accepted
	TxAcks      int // bare acknowledgment transactions sent
	TxDropped   int // sends lost on the wire (fault injection)
	TxGarbled   int // sends delivered corrupt and discarded (fault injection)
	TxRetries   int // retransmissions attempted after a dropped/garbled send
	TxGiveUps   int // reliable sends abandoned with the retry budget spent
	RxTransfers int
	RxKB        float64
	RxTimeouts  int // receives that expired waiting for a message
	RxDropped   int // accepted transfers that never arrived (drop fault)
	RxGarbled   int // accepted transfers discarded as corrupt (garble fault)
	MaxPending  int // high-water mark of senders queued at this port
}

// Port is one serial endpoint. Senders address the receiving port
// directly (the host's forwarding is implicit in the timing model).
// Each port is owned by a single receiving process.
type Port struct {
	net     *Network
	name    string
	pending []*offer
	live    int // offers in pending that are not withdrawn
	arrival *sim.Chan[struct{}]
	stats   PortStats
	inst    *portInstruments
}

// Name returns the port name.
func (pt *Port) Name() string { return pt.name }

// Stats returns a copy of the port's transfer accounting.
func (pt *Port) Stats() PortStats { return pt.stats }

// portInstruments caches the port's labeled metrics handles. With
// metrics disabled every field is a nil, no-op instrument.
type portInstruments struct {
	txTransfers, txKB, txStartupS, txTimeouts  *metrics.Counter
	txDropped, txGarbled, txRetries, txGiveUps *metrics.Counter
	rxTransfers, rxKB, rxTimeouts              *metrics.Counter
	rxDropped, rxGarbled                       *metrics.Counter
	pendingDepth                               *metrics.Gauge
}

// met returns (building on first use) the port's metric handles.
func (pt *Port) met() *portInstruments {
	if pt.inst == nil {
		r := pt.net.reg
		pt.inst = &portInstruments{
			txTransfers:  r.Counter("serial_tx_transfers", pt.name),
			txKB:         r.Counter("serial_tx_kb", pt.name),
			txStartupS:   r.Counter("serial_tx_startup_s", pt.name),
			txTimeouts:   r.Counter("serial_tx_timeouts", pt.name),
			txDropped:    r.Counter("serial_tx_dropped", pt.name),
			txGarbled:    r.Counter("serial_tx_garbled", pt.name),
			txRetries:    r.Counter("serial_tx_retries", pt.name),
			txGiveUps:    r.Counter("serial_tx_giveups", pt.name),
			rxTransfers:  r.Counter("serial_rx_transfers", pt.name),
			rxKB:         r.Counter("serial_rx_kb", pt.name),
			rxTimeouts:   r.Counter("serial_rx_timeouts", pt.name),
			rxDropped:    r.Counter("serial_rx_dropped", pt.name),
			rxGarbled:    r.Counter("serial_rx_garbled", pt.name),
			pendingDepth: r.Gauge("serial_pending_depth", pt.name),
		}
	}
	return pt.inst
}

// Pending returns the number of senders waiting at this port.
func (pt *Port) Pending() int { return pt.live }

// TxOpts modifies a send.
type TxOpts struct {
	// Deadline bounds how long to wait for the receiver to accept;
	// zero means wait forever. Once a transfer begins it always runs to
	// completion.
	Deadline sim.Time
	// OnStart is invoked at the instant the transfer begins.
	OnStart func()
	// OnBackoff is invoked by SendReliable at the instant a retransmit
	// backoff begins, so callers can drop to a low-power mode while the
	// line is quiet.
	OnBackoff func()
}

// RxOpts modifies a receive.
type RxOpts struct {
	// Deadline bounds the whole receive; zero means wait forever.
	Deadline sim.Time
	// Match selects which pending messages to accept; nil accepts any.
	// Non-matching messages stay queued, in order.
	Match func(Message) bool
	// OnStart is invoked at the instant the transfer begins.
	OnStart func()
	// OnAbort is invoked when an accepted transfer turns out dropped or
	// garbled and the receive goes back to waiting; like OnStart it lets
	// callers account CPU modes precisely.
	OnAbort func()
}

// TransferEvent describes one completed transaction, for telemetry
// streams (the run log's "link" events).
type TransferEvent struct {
	// T is the completion time.
	T sim.Time
	// From and To are the sending and receiving port names.
	From, To string
	Kind     Kind
	KB       float64
	// DurS is the wire time, startup included.
	DurS float64
}

// Network creates and tracks ports sharing one link timing model.
type Network struct {
	k      *sim.Kernel
	Params LinkParams
	ports  map[string]*Port
	reg    *metrics.Registry
	// OnTransfer, when set, observes every completed transaction.
	OnTransfer func(TransferEvent)
	// Fault, when set, is consulted at the start of every transfer and
	// may fail it (see FaultInjector). Nil is the healthy network.
	Fault FaultInjector
	// OnRetry, when set, observes every retransmission scheduled by
	// SendReliable.
	OnRetry func(RetryEvent)
	// Stats.
	transfers int
	kbMoved   float64
	faulted   int
	// freeOffers is the LIFO free list of recycled offers. Reuse keeps
	// the embedded rendezvous channels' grown buffers, so steady-state
	// sends allocate nothing.
	freeOffers []*offer
}

// offerPool recycles offers across networks (and therefore across runs):
// a fresh rig warm-started after a previous network's Release draws its
// offers — with their grown rendezvous channel buffers — from here.
var offerPool sync.Pool

// getOffer returns a recycled (or fresh) offer carrying msg, with both
// rendezvous channels reset.
func (n *Network) getOffer(msg Message) *offer {
	var of *offer
	if ln := len(n.freeOffers); ln > 0 {
		of = n.freeOffers[ln-1]
		n.freeOffers[ln-1] = nil
		n.freeOffers = n.freeOffers[:ln-1]
	} else if v := offerPool.Get(); v != nil {
		of = v.(*offer)
	} else {
		of = &offer{}
	}
	of.msg = msg
	of.withdrawn = false
	of.queued = false
	of.fault = FaultNone
	of.accepted.Init(n.k, "accepted")
	of.done.Init(n.k, "done")
	return of
}

// putOffer returns an offer to the free list. The caller must be the
// offer's last toucher (see the offer type comment).
func (n *Network) putOffer(of *offer) {
	of.msg = Message{} // drop payload references
	n.freeOffers = append(n.freeOffers, of)
}

// Release returns the network's recyclable offers — the free list plus
// every offer still stranded in a port's pending queue — to the
// process-wide pool. Call only after the kernel has shut down, when no
// process can still touch an offer. Offers that were accepted but whose
// transaction was cut short by shutdown are not pooled (their channels
// may hold a dangling waiter reference); they fall to the collector.
func (n *Network) Release() {
	for _, pt := range n.Ports() {
		for i, of := range pt.pending {
			of.msg = Message{}
			offerPool.Put(of)
			pt.pending[i] = nil
		}
		pt.pending = nil
		pt.live = 0
	}
	for i, of := range n.freeOffers {
		offerPool.Put(of)
		n.freeOffers[i] = nil
	}
	n.freeOffers = nil
}

// NewNetwork returns a network on kernel k with the given link timing.
func NewNetwork(k *sim.Kernel, params LinkParams) *Network {
	return &Network{k: k, Params: params, ports: make(map[string]*Port)}
}

// SetMetrics installs the registry the network's ports record into.
// Call it before traffic flows; a nil registry (the default) disables
// recording. Per-port PortStats are always kept — they are plain
// integer fields with negligible cost.
func (n *Network) SetMetrics(r *metrics.Registry) { n.reg = r }

// Port returns (creating on first use) the named port.
func (n *Network) Port(name string) *Port {
	if p, ok := n.ports[name]; ok {
		return p
	}
	p := &Port{net: n, name: name, arrival: sim.NewChan[struct{}](n.k, "port:"+name)}
	n.ports[name] = p
	return p
}

// Transfers returns the number of completed transactions.
func (n *Network) Transfers() int { return n.transfers }

// Faulted returns the number of transactions lost to injected faults.
func (n *Network) Faulted() int { return n.faulted }

// KBMoved returns the total payload carried, in KB.
func (n *Network) KBMoved() float64 { return n.kbMoved }

// Ports returns every port created so far, sorted by name for
// deterministic export.
func (n *Network) Ports() []*Port {
	out := make([]*Port, 0, len(n.ports))
	for _, p := range n.ports {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Send performs one transaction delivering msg to dst: it blocks until
// the receiver accepts, then for the transaction time. The returned
// error is non-nil if the process was interrupted (e.g. battery death)
// before completion.
func (pt *Port) Send(p *sim.Proc, dst *Port, msg Message) error {
	return pt.SendOpts(p, dst, msg, TxOpts{})
}

// SendDeadline is Send that gives up with sim.ErrTimeout if the receiver
// has not accepted by the absolute deadline.
func (pt *Port) SendDeadline(p *sim.Proc, dst *Port, msg Message, deadline sim.Time) error {
	return pt.SendOpts(p, dst, msg, TxOpts{Deadline: deadline})
}

// SendOpts is Send with options.
func (pt *Port) SendOpts(p *sim.Proc, dst *Port, msg Message, opts TxOpts) error {
	deadline := opts.Deadline
	if deadline == 0 {
		deadline = sim.Infinity
	}
	msg.From = pt.name
	of := pt.net.getOffer(msg)
	dst.enqueue(of)
	dst.arrival.Send(struct{}{})
	if _, err := of.accepted.RecvDeadline(p, deadline); err != nil {
		// Withdraw: a late accept must be ignored.
		dst.withdraw(of)
		of.done.Close()
		if errors.Is(err, sim.ErrTimeout) {
			pt.stats.TxTimeouts++
			pt.met().txTimeouts.Inc()
		}
		return err
	}
	if opts.OnStart != nil {
		opts.OnStart()
	}
	// The fault verdict is drawn at the instant the line goes active;
	// either way the wire time (and both sides' energy) is fully spent.
	verdict := FaultNone
	if f := pt.net.Fault; f != nil {
		verdict = f.Transfer(p.Now(), pt.name, dst.name, msg)
	}
	dur := sim.Duration(pt.net.Params.TxTime(msg.KB))
	startup := 0.0
	if msg.KB > 0 {
		startup = pt.net.Params.StartupS
	}
	if msg.Kind == KindAck {
		dur = sim.Duration(pt.net.Params.AckTime())
		startup = pt.net.Params.AckTime()
	}
	if err := p.Wait(dur); err != nil {
		// Sender died mid-transfer; the receiver never sees completion.
		return err
	}
	if verdict != FaultNone {
		pt.net.faulted++
		pt.accountTxFault(verdict)
		of.fault = verdict
		of.done.Send(struct{}{})
		if verdict == FaultGarble {
			return ErrGarbled
		}
		return ErrDropped
	}
	pt.net.transfers++
	pt.net.kbMoved += msg.KB
	pt.accountTx(msg, startup)
	dst.accountRx(msg)
	if f := pt.net.OnTransfer; f != nil {
		f(TransferEvent{
			T: p.Now(), From: pt.name, To: dst.name,
			Kind: msg.Kind, KB: msg.KB, DurS: float64(dur),
		})
	}
	of.done.Send(struct{}{})
	return nil
}

// accountTxFault charges a dropped or garbled send to the sending port.
func (pt *Port) accountTxFault(v FaultVerdict) {
	m := pt.met()
	if v == FaultGarble {
		pt.stats.TxGarbled++
		m.txGarbled.Inc()
		return
	}
	pt.stats.TxDropped++
	m.txDropped.Inc()
}

// accountRxFault charges a faulted delivery to the receiving port.
func (pt *Port) accountRxFault(v FaultVerdict) {
	m := pt.met()
	if v == FaultGarble {
		pt.stats.RxGarbled++
		m.rxGarbled.Inc()
	} else {
		pt.stats.RxDropped++
		m.rxDropped.Inc()
	}
	m.pendingDepth.Set(float64(pt.live))
}

// accountTx credits a completed send to the sending port.
func (pt *Port) accountTx(msg Message, startup float64) {
	pt.stats.TxTransfers++
	pt.stats.TxKB += msg.KB
	pt.stats.TxStartupS += startup
	if msg.Kind == KindAck {
		pt.stats.TxAcks++
	}
	m := pt.met()
	m.txTransfers.Inc()
	m.txKB.Add(msg.KB)
	m.txStartupS.Add(startup)
}

// accountRx credits a completed receive to the accepting port.
func (pt *Port) accountRx(msg Message) {
	pt.stats.RxTransfers++
	pt.stats.RxKB += msg.KB
	m := pt.met()
	m.rxTransfers.Inc()
	m.rxKB.Add(msg.KB)
	m.pendingDepth.Set(float64(pt.live))
}

// Recv accepts the next transaction at this port and blocks until the
// sender completes it.
func (pt *Port) Recv(p *sim.Proc) (Message, error) {
	return pt.RecvOpts(p, RxOpts{})
}

// RecvDeadline is Recv that gives up with sim.ErrTimeout by the absolute
// deadline. Failure detection in the paper's recovery scheme (§5.4) is
// built on this timeout.
func (pt *Port) RecvDeadline(p *sim.Proc, deadline sim.Time) (Message, error) {
	return pt.RecvOpts(p, RxOpts{Deadline: deadline})
}

// RecvMatch is Recv accepting only messages that match, leaving others
// queued in order.
func (pt *Port) RecvMatch(p *sim.Proc, deadline sim.Time, match func(Message) bool, onStart func()) (Message, error) {
	return pt.RecvOpts(p, RxOpts{Deadline: deadline, Match: match, OnStart: onStart})
}

// RecvOpts is Recv with options.
func (pt *Port) RecvOpts(p *sim.Proc, opts RxOpts) (Message, error) {
	deadline := opts.Deadline
	if deadline == 0 {
		deadline = sim.Infinity
	}
	for {
		if of := pt.take(opts.Match); of != nil {
			of.accepted.Send(struct{}{})
			if opts.OnStart != nil {
				opts.OnStart()
			}
			// Once a transfer begins it is no longer subject to the
			// caller's deadline; but a sender that dies mid-transfer
			// never completes it, so escape shortly after the wire
			// time a live sender would have taken.
			dur := pt.net.Params.TxTime(of.msg.KB)
			if of.msg.Kind == KindAck {
				dur = pt.net.Params.AckTime()
			}
			escape := p.Now() + sim.Time(dur) + 1e-6
			if _, err := of.done.RecvDeadline(p, escape); err != nil {
				if err == sim.ErrClosed {
					// The sender withdrew in the same instant we
					// accepted; pretend we never saw the offer.
					pt.net.putOffer(of)
					continue
				}
				if errors.Is(err, sim.ErrTimeout) {
					// The sender died (or crashed) mid-transfer: the
					// wire went quiet and the message never completed.
					// To the receiver that is an aborted delivery like
					// any other — discard it and keep waiting under the
					// caller's original deadline.
					pt.net.putOffer(of)
					pt.accountRxFault(FaultDrop)
					if opts.OnAbort != nil {
						opts.OnAbort()
					}
					continue
				}
				// Leaving mid-rendezvous: the sender may still touch the
				// offer, so it cannot be recycled here.
				return Message{}, err
			}
			if of.fault != FaultNone {
				// The wire time was spent but the message never arrived
				// (drop) or failed its integrity check (garble); discard
				// it and keep waiting under the original deadline. The
				// sender learns the same instant and may retransmit.
				fault := of.fault
				pt.net.putOffer(of)
				pt.accountRxFault(fault)
				if opts.OnAbort != nil {
					opts.OnAbort()
				}
				continue
			}
			msg := of.msg
			pt.net.putOffer(of)
			return msg, nil
		}
		// Nothing acceptable queued: wait for an arrival signal, then
		// rescan. Signals are hints — take() above always rescans the
		// whole queue, so consuming a signal for a non-matching offer
		// cannot lose messages.
		if _, err := pt.arrival.RecvDeadline(p, deadline); err != nil {
			if errors.Is(err, sim.ErrTimeout) {
				pt.stats.RxTimeouts++
				pt.met().rxTimeouts.Inc()
			}
			return Message{}, err
		}
	}
}

// enqueue appends a fresh offer to the pending queue, keeping the live
// count and its high-water mark in step.
func (pt *Port) enqueue(of *offer) {
	of.queued = true
	pt.pending = append(pt.pending, of)
	pt.live++
	if pt.live > pt.stats.MaxPending {
		pt.stats.MaxPending = pt.live
	}
	pt.met().pendingDepth.Set(float64(pt.live))
}

// withdraw marks a sender's offer abandoned. An offer still queued
// stops counting as pending at once, and take drops it from the queue
// later. An offer a receiver took in the same instant was already
// uncounted by take.
func (pt *Port) withdraw(of *offer) {
	of.withdrawn = true
	if of.queued {
		pt.live--
	}
}

// take removes and returns the first live, matching pending offer, also
// dropping withdrawn entries it walks over.
func (pt *Port) take(match func(Message) bool) *offer {
	for i := 0; i < len(pt.pending); i++ {
		of := pt.pending[i]
		if of.withdrawn {
			pt.pending = append(pt.pending[:i], pt.pending[i+1:]...)
			pt.net.putOffer(of)
			i--
			continue
		}
		if match == nil || match(of.msg) {
			pt.pending = append(pt.pending[:i], pt.pending[i+1:]...)
			of.queued = false
			pt.live--
			return of
		}
	}
	return nil
}
