package fault

import (
	"dvsim/internal/serial"
	"dvsim/internal/sim"
)

// Event is one injected fault occurrence, for telemetry streams (the
// run log's "fault" events).
type Event struct {
	// T is the simulated instant.
	T sim.Time
	// Kind is "drop", "garble", "crash" or "restart".
	Kind string
	// Node is the affected node, for crash/restart events.
	Node string
	// From and To are the port names, for link events.
	From, To string
	// MsgKind and Frame describe the faulted transfer, for link events.
	MsgKind string
	Frame   int
}

// Stats counts the faults an injector has delivered.
type Stats struct {
	Drops    int
	Garbles  int
	Crashes  int
	Restarts int
}

// Total is the number of injected fault occurrences of any kind.
func (s Stats) Total() int { return s.Drops + s.Garbles + s.Crashes + s.Restarts }

// Injector is a scenario's runtime form: it implements
// serial.FaultInjector for the link faults and schedules the crash
// events on a kernel via Arm. One injector serves one simulation.
type Injector struct {
	sc  Scenario
	rng *rng
	// links[i] tracks rule i's consumed scheduled faults.
	links []linkCursor
	// OnFault, when set, observes every injected fault. Set it before
	// the simulation runs.
	OnFault func(Event)

	stats    Stats
	reseeded bool
}

// linkCursor indexes the next unconsumed scheduled fault of a rule.
type linkCursor struct{ drop, garble int }

// NewInjector validates the scenario and builds its runtime engine.
func NewInjector(sc Scenario) (*Injector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// The scenario is copied by value; the injector owns its cursors.
	return &Injector{sc: sc, rng: newRNG(sc.Seed), links: make([]linkCursor, len(sc.Links))}, nil
}

// MustInjector is NewInjector, panicking on an invalid scenario. Use it
// with programmatic scenarios that were already validated.
func MustInjector(sc Scenario) *Injector {
	in, err := NewInjector(sc)
	if err != nil {
		panic(err)
	}
	return in
}

// Scenario returns the injector's (validated) scenario.
func (in *Injector) Scenario() Scenario { return in.sc }

// Stats returns the faults delivered so far (zero for a nil injector).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// matches reports whether a rule applies to the (from, to) port pair.
func (lf *LinkFault) matches(from, to string) bool {
	return (lf.From == "" || lf.From == from) && (lf.To == "" || lf.To == to)
}

// active reports whether the rule's probabilistic window covers t.
func (lf *LinkFault) active(t sim.Time) bool {
	if float64(t) < lf.FromS {
		return false
	}
	return lf.UntilS == 0 || float64(t) < lf.UntilS
}

// Transfer implements serial.FaultInjector: the first matching rule
// decides the transfer, scheduled faults before probabilistic ones.
// A nil injector never faults.
func (in *Injector) Transfer(now sim.Time, from, to string, msg serial.Message) serial.FaultVerdict {
	if in == nil {
		return serial.FaultNone
	}
	// Monte Carlo forking: from the reseed instant on, draws come from
	// the fork's stream. Transfers are decided in simulation order, so
	// the switch happens at the same transfer in every replay.
	if !in.reseeded && in.sc.ReseedAtS > 0 && float64(now) >= in.sc.ReseedAtS {
		in.rng = newRNG(in.sc.ReseedSeed)
		in.reseeded = true
	}
	for i := range in.sc.Links {
		lf := &in.sc.Links[i]
		if !lf.matches(from, to) {
			continue
		}
		cur := &in.links[i]
		if cur.drop < len(lf.DropAtS) && float64(now) >= lf.DropAtS[cur.drop] {
			cur.drop++
			return in.linkFault(serial.FaultDrop, now, from, to, msg)
		}
		if cur.garble < len(lf.GarbleAtS) && float64(now) >= lf.GarbleAtS[cur.garble] {
			cur.garble++
			return in.linkFault(serial.FaultGarble, now, from, to, msg)
		}
		if !lf.active(now) || lf.DropRate+lf.GarbleRate == 0 {
			continue
		}
		// One uniform draw decides both outcomes, consumed in transfer
		// order: the stream is a pure function of the seed and the
		// deterministic simulation schedule.
		u := in.rng.float64()
		switch {
		case u < lf.DropRate:
			return in.linkFault(serial.FaultDrop, now, from, to, msg)
		case u < lf.DropRate+lf.GarbleRate:
			return in.linkFault(serial.FaultGarble, now, from, to, msg)
		}
		return serial.FaultNone // rule matched and decided: delivered
	}
	return serial.FaultNone
}

// linkFault records and reports one link fault.
func (in *Injector) linkFault(v serial.FaultVerdict, now sim.Time, from, to string, msg serial.Message) serial.FaultVerdict {
	if v == serial.FaultGarble {
		in.stats.Garbles++
	} else {
		in.stats.Drops++
	}
	if in.OnFault != nil {
		in.OnFault(Event{
			T: now, Kind: v.String(), From: from, To: to,
			MsgKind: msg.Kind.String(), Frame: msg.Frame,
		})
	}
	return v
}

// CrashTarget is the node-side surface the injector drives. The methods
// report whether they applied (a dead node cannot crash; a running node
// cannot restart), so fault statistics count real state changes only.
// Both node kinds implement it: Crash comes from the shared node.Base,
// Restart from *node.Node and *node.Worker, which each reset their own
// frame loop before respawning it.
type CrashTarget interface {
	Crash() bool
	Restart() bool
}

// Arm schedules the scenario's crash (and restart) events on the
// kernel, with targets keyed by node name. Call it after the targets
// exist and before the run starts. A crash naming a node absent from
// this pipeline is skipped: one scenario document serves experiments of
// different widths (a "node2" outage means nothing to the single-node
// baseline).
func (in *Injector) Arm(k *sim.Kernel, byName map[string]CrashTarget) {
	if in == nil {
		return
	}
	for _, c := range in.sc.Crashes {
		t, ok := byName[c.Node]
		if !ok {
			continue
		}
		c := c
		k.At(sim.Time(c.AtS), func() {
			if !t.Crash() {
				return
			}
			in.stats.Crashes++
			if in.OnFault != nil {
				in.OnFault(Event{T: k.Now(), Kind: "crash", Node: c.Node})
			}
			if c.RestartAfterS > 0 {
				k.After(sim.Duration(c.RestartAfterS), func() {
					if !t.Restart() {
						return
					}
					in.stats.Restarts++
					if in.OnFault != nil {
						in.OnFault(Event{T: k.Now(), Kind: "restart", Node: c.Node})
					}
				})
			}
		})
	}
}
