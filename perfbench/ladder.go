package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvsim/internal/battery"
	"dvsim/internal/core"
	"dvsim/internal/cpu"
	"dvsim/internal/governor"
	"dvsim/internal/manifest"
	"dvsim/internal/node"
	"dvsim/internal/serial"
	"dvsim/internal/service"
	"dvsim/internal/sim"
	"dvsim/internal/telemetry"
	"dvsim/internal/topology"
)

// ladderReps is how often each rung repeats; a rung reports the median.
const ladderReps = 5

// rung times ladderReps runs of fn, each doing ops operations, and returns
// the median time per operation in nanoseconds.
func rung(ops int, fn func()) float64 {
	per := make([]float64, ladderReps)
	for i := range per {
		t := time.Now()
		fn()
		per[i] = float64(time.Since(t)) / float64(ops)
	}
	return median(per)
}

// ladder runs every single-layer rung, each built only from the
// layer's public API, and records the per-layer metrics.
func ladder(c *config, rep *report) error {
	l := rep.layer
	const events = 100_000
	l["sim.dispatch_ns"] = rung(events, func() { dispatchChain(events) })
	const rounds = 20_000
	l["sim.handoff_ns"] = rung(2*rounds, func() { pingPong(rounds) })
	const transfers = 20_000
	l["serial.rendezvous_ns.q1"] = rung(transfers, func() { rendezvous(1, transfers) })
	l["serial.rendezvous_ns.q16"] = rung(transfers, func() { rendezvous(16, transfers/16) })
	l["node.power_transition_ns"] = rung(events, func() { powerTransitions(events) })
	const drains = 200_000
	l["battery.drain_ns"] = rung(drains, func() { drain(drains) })

	p := core.DefaultParams()
	l["core.setup_us"] = rung(len(telemetryExps), func() {
		for _, id := range telemetryExps {
			o := core.RunExperiment(id, p, 1)
			rep.op(o.Frames == 1, "core.RunExperiment(%s, 1 frame) delivered %d frames", id, o.Frames)
		}
	}) / 1e3
	core.Run(core.Exp1, p) // steady state: pools and caches warm
	m0 := mallocs()
	const allocRuns = 2
	for i := 0; i < allocRuns; i++ {
		core.Run(core.Exp1, p)
	}
	l["core.allocs_per_run"] = float64(mallocs()-m0) / allocRuns

	const records = 200_000
	l["telemetry.encode_ns_per_record"] = rung(records, func() { encode(records) })
	const decisions = 200_000
	l["governor.decide_ns"] = rung(decisions, func() {
		err := decide(decisions)
		rep.op(err == nil, "governor: %v", err)
	})
	l["topology.build_us"] = rung(3, buildGraphs) / 1e3

	text := fleetManifest(c.seed)
	var m *manifest.Manifest
	var err error
	l["manifest.parse_ms"] = rung(1, func() { m, err = manifest.Load(strings.NewReader(text)) }) / 1e6
	if err != nil {
		return err
	}
	l["manifest.expand_ms"] = rung(1, func() { _, err = m.Expand() }) / 1e6
	if err != nil {
		return err
	}
	keys := missStream(c.seed, 64)
	l["manifest.key_us"] = rung(len(keys), func() {
		err := keyAll(keys)
		rep.op(err == nil, "keys: %v", err)
	}) / 1e3
	return cacheRungs(c, l)
}

func dispatchChain(n int) {
	k := sim.NewKernel()
	left := n
	var fire func()
	fire = func() {
		if left--; left > 0 {
			k.At(k.Now()+1, fire)
		}
	}
	k.At(0, fire)
	k.Run()
}

// pingPong hands control between two processes: a waits one tick and
// sends, b receives. Each round is two process resumes.
func pingPong(rounds int) {
	k := sim.NewKernel()
	ch := sim.NewChan[int](k, "ping")
	k.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			p.Wait(1)
			ch.Send(i)
		}
		ch.Close()
	})
	k.Spawn("b", func(p *sim.Proc) {
		for {
			if _, err := ch.Recv(p); err != nil {
				return
			}
		}
	})
	k.Run()
}

// rendezvous runs senders processes, each sending per messages to one
// receiving port, so up to senders offers queue at the port.
func rendezvous(senders, per int) {
	k := sim.NewKernel()
	net := serial.NewNetwork(k, serial.DefaultLink())
	dst := net.Port("sink")
	k.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < senders*per; i++ {
			dst.Recv(p)
		}
	})
	for s := 0; s < senders; s++ {
		src := net.Port(fmt.Sprintf("tx%d", s))
		k.Spawn(src.Name(), func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				src.Send(p, dst, serial.Message{From: src.Name(), Kind: serial.KindInter, Frame: i, KB: 0.1})
			}
		})
	}
	k.Run()
	net.Release()
}

// powerTransitions drives one node's power meter through n mode and
// operating-point changes, one kernel event apart, on the calibrated
// two-well battery.
func powerTransitions(n int) {
	k := sim.NewKernel()
	pw := node.NewPower(k, cpu.New(cpu.DefaultPowerModel(), cpu.MaxPoint), core.DefaultItsyBattery())
	i := 0
	var step func()
	step = func() {
		pw.Transition(cpu.Modes[i%len(cpu.Modes)], cpu.Table[i%len(cpu.Table)])
		if i++; i < n {
			k.At(k.Now()+0.01, step)
		} else {
			k.Stop()
		}
	}
	k.At(0, step)
	k.Run()
}

var drainSink float64

func drain(n int) {
	var b battery.Model = core.DefaultItsyBattery()
	currents := [...]float64{62, 148, 95, 120}
	for i := 0; i < n; i++ {
		if b.Empty() {
			b.Reset()
		}
		drainSink += b.Drain(currents[i%len(currents)], 0.25)
	}
}

// encode writes n records of four shapes modelled on the run log's
// mode, link, sample and latency events.
func encode(n int) {
	enc := telemetry.NewEncoder(io.Discard)
	for i := 0; i < n; i++ {
		t := float64(i) * 0.37
		enc.Begin()
		enc.Float("t", t)
		switch i % 4 {
		case 0:
			enc.Str("event", "mode")
			enc.Str("node", "node1")
			enc.Str("mode", "compute")
			enc.Float("mhz", 206.4)
		case 1:
			enc.Str("event", "link")
			enc.Str("from", "node1")
			enc.Str("to", "node2")
			enc.Float("kb", 7.5)
			enc.Float("dur", 0.082)
		case 2:
			enc.Str("event", "sample")
			enc.Str("node", "node2")
			enc.Float("soc", 0.731)
			enc.Floats("v", []float64{0.5, 0.25})
		default:
			enc.Str("event", "latency")
			enc.Int("frame", i)
			enc.Float("value", 2.271)
		}
		enc.End()
	}
	enc.Flush()
}

var decideSink cpu.OperatingPoint

// decide feeds each governor policy n/3 observations.
func decide(n int) error {
	for _, name := range []string{"interval", "pid", "buffer"} {
		g, err := governor.Spec{Name: name}.New()
		if err != nil {
			return err
		}
		for i := 0; i < n/3; i++ {
			proc := 0.8 + 0.4*float64(i%7)/7
			decideSink = g.Decide(governor.Observation{
				Frame: i, NowS: float64(i) * 2.3, DeadlineS: 2.3,
				ProcS: proc, CommS: 0.3, SlackS: 2.3 - proc - 0.3, RefS: proc * 0.7,
				QueueIn: i % 3, SoC: 1 - float64(i)/float64(n), Point: cpu.Table[i%len(cpu.Table)],
				RoleCompute: cpu.MaxPoint,
			})
		}
	}
	return nil
}

var graphSink *topology.Graph

func buildGraphs() {
	for _, g := range []*topology.Graph{
		topology.Serial(16, topology.Config{}),
		topology.Tree(3, 2, topology.Config{}),
		topology.Mesh(12, 3, topology.Config{}),
	} {
		if err := g.Validate(); err != nil {
			panic(err)
		}
		graphSink = g
	}
}

// keyAll computes the cache key of each submission the way dvsimd
// resolves a single-experiment run.
func keyAll(subs []submission) error {
	for _, s := range subs {
		p, err := s.params()
		if err != nil {
			return err
		}
		id := core.ID(s.Experiment)
		e := manifest.Experiment{ID: id, Nodes: manifest.ExperimentNodes(id), Params: p, Platform: core.DefaultPlatformConfig()}
		if _, err := e.KeySpec(manifest.OutputTelemetry, s.UntilS).Key(); err != nil {
			return err
		}
	}
	return nil
}

// cacheRungs time service.Cache.Get on a small and a large stored
// artifact, and on the small one while another goroutine keeps putting
// fresh entries to the same disk-backed store.
func cacheRungs(c *config, l map[string]float64) error {
	dir := filepath.Join(c.state, "cache-rung")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := service.NewCache(dir)
	if err != nil {
		return err
	}
	small := bytes.Repeat([]byte("s"), 100<<10)
	large := bytes.Repeat([]byte("L"), 20<<20)
	const smallKey = "00000000000000000000000000000000000000000000000000000000000000aa"
	const largeKey = "00000000000000000000000000000000000000000000000000000000000000bb"
	if err := cache.Put(smallKey, small); err != nil {
		return err
	}
	if err := cache.Put(largeKey, large); err != nil {
		return err
	}
	const gets = 50_000
	get := func(key string) func() {
		return func() {
			for i := 0; i < gets; i++ {
				if _, ok := cache.Get(key); !ok {
					panic("perfbench: cache lost " + key)
				}
			}
		}
	}
	l["service.cache_get_us.small"] = rung(gets, get(smallKey)) / 1e3
	l["service.cache_get_us.large"] = rung(gets, get(largeKey)) / 1e3

	var stop atomic.Bool
	var wg sync.WaitGroup
	var putErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := cache.Put(fmt.Sprintf("%064x", i+1<<20), small); err != nil {
				putErr = err
				return
			}
		}
	}()
	const contended = 5_000
	per := make([]float64, ladderReps)
	for i := range per {
		t := time.Now()
		for j := 0; j < contended; j++ {
			cache.Get(smallKey)
		}
		per[i] = float64(time.Since(t)) / contended / 1e3
	}
	stop.Store(true)
	wg.Wait()
	l["service.cache_get_us.during_put"] = median(per)
	return putErr
}
