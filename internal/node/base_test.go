package node

import (
	"testing"

	"dvsim/internal/atr"
	"dvsim/internal/battery"
	"dvsim/internal/cpu"
	"dvsim/internal/governor"
	"dvsim/internal/serial"
	"dvsim/internal/sim"
)

// baseKind is what the contract test drives: either node kind, through
// the crash surface and the shared base.
type baseKind interface {
	Crash() bool
	Restart() bool
	Shared() *Base
}

// baseCases build one governed, started node of each kind on a fresh
// kernel, fed (or self-paced) one frame every 2.3 s, on a battery of
// capMAh.
var baseCases = []struct {
	name  string
	build func(capMAh float64) (*sim.Kernel, baseKind)
}{
	{"Node", func(capMAh float64) (*sim.Kernel, baseKind) {
		cfg := Config{Prof: atr.Default(), D: 2.3, Governor: governor.Spec{Name: "interval"}}
		r := newRigRaw(cfg, defaultRoles(1), capMAh)
		r.start(200, 2.3, 0)
		return r.k, r.nodes[0]
	}},
	{"Worker", func(capMAh float64) (*sim.Kernel, baseKind) {
		k := sim.NewKernel()
		k.SetEventLimit(5_000_000)
		net := serial.NewNetwork(k, serial.DefaultLink())
		pw := NewPower(k, cpu.New(nil, cpu.MinPoint), battery.NewIdeal(capMAh))
		w := NewWorker(k, net, pw, WorkerConfig{
			Name: "node1", D: 2.3, Source: true, Rounds: 200,
			RefS: 1, OutKB: 10, Compute: cpu.MaxPoint, Comm: cpu.MinPoint,
			Governor: governor.Spec{Name: "interval"},
		})
		sink := net.Port("host-sink")
		w.WireGraph(0, nil, sink)
		k.Spawn("sink", func(p *sim.Proc) {
			for {
				if _, err := sink.Recv(p); err != nil {
					return
				}
			}
		})
		w.Start()
		return k, w
	}},
}

// TestBaseContract: both node kinds share one crash, restart, death and
// governor-reset behavior through Base.
func TestBaseContract(t *testing.T) {
	for _, tc := range baseCases {
		t.Run(tc.name+"/crash", func(t *testing.T) {
			k, n := tc.build(1e6)
			b := n.Shared()
			k.RunUntil(30)
			if !b.Available() || b.FramesProcessed == 0 {
				t.Fatalf("running node: available %v, %d frames", b.Available(), b.FramesProcessed)
			}
			if n.Restart() {
				t.Fatal("a running node restarted")
			}
			if b.govPoint == (cpu.OperatingPoint{}) {
				t.Fatal("the governor decided no point")
			}
			if !n.Crash() || b.Available() || !b.Crashed() {
				t.Fatalf("crash: available %v, crashed %v", b.Available(), b.Crashed())
			}
			if n.Crash() {
				t.Fatal("a crashed node crashed again")
			}
			k.RunUntil(40)
			if !n.Restart() {
				t.Fatal("a crashed node did not restart")
			}
			if b.govPoint != (cpu.OperatingPoint{}) || b.computePoint() != b.computeAt {
				t.Fatalf("Restart kept the governed point %v", b.govPoint)
			}
			if !b.Available() || b.Crashes != 1 || b.Restarts != 1 {
				t.Fatalf("after restart: available %v, %d crashes, %d restarts", b.Available(), b.Crashes, b.Restarts)
			}
			frames := b.FramesProcessed
			k.RunUntil(60)
			if b.FramesProcessed <= frames {
				t.Fatal("the restarted node processed nothing")
			}
			k.Shutdown()
		})
		t.Run(tc.name+"/death", func(t *testing.T) {
			k, n := tc.build(1)
			b := n.Shared()
			k.RunUntil(400)
			if !b.Dead() || b.DeadAt == 0 || b.Available() {
				t.Fatalf("1 mAh node: dead %v at %v, available %v", b.Dead(), b.DeadAt, b.Available())
			}
			if n.Crash() {
				t.Fatal("a dead node crashed")
			}
			if n.Restart() {
				t.Fatal("a dead node restarted")
			}
			k.Shutdown()
		})
	}
}
