package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"dvsim/internal/core"
)

// passLoop runs pass(0), pass(1), … until the window is spent: a pass
// starts only while the median pass so far still fits, so a run ends
// close to the window instead of overshooting it by a pass. At least
// minPasses run.
func passLoop(window time.Duration, minPasses int, pass func(i int)) {
	start := time.Now()
	var took []float64
	for i := 0; ; i++ {
		if i >= minPasses {
			left := window - time.Since(start)
			if time.Duration(median(took)*float64(time.Second)) > left {
				return
			}
		}
		t := time.Now()
		pass(i)
		took = append(took, time.Since(t).Seconds())
	}
}

// tracedPass says whether pass i of a traced run records spans. Traced
// and untraced passes alternate, so the untraced ones give the
// workload's own figures and the ratio between the two the tracing
// overhead.
func tracedPass(tr *tracer, i int) bool { return tr != nil && i%2 == 1 }

func minPasses(tr *tracer) int {
	if tr != nil {
		return 2
	}
	return 1
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: digest: %v", err)) // outcomes are plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// simCounters are the exact statistics of a set of outcomes.
type simCounters struct {
	events, frames                    uint64
	txTransfers, rxTransfers, retries int
	drops, garbles                    int
}

func (s *simCounters) add(o core.Outcome) {
	s.events += o.Events
	s.frames += uint64(o.Frames)
	for _, p := range o.PortStats {
		s.txTransfers += p.TxTransfers
		s.rxTransfers += p.RxTransfers
		s.retries += p.TxRetries
	}
	s.drops += o.FaultStats.Drops
	s.garbles += o.FaultStats.Garbles
}

func (s simCounters) into(m map[string]float64) {
	m["sim.events"] = float64(s.events)
	m["node.frames"] = float64(s.frames)
	m["serial.transfers"] = float64(s.txTransfers)
	m["serial.retries"] = float64(s.retries)
	m["serial.useful_ratio"] = 0
	if d := s.txTransfers + s.retries; d > 0 {
		m["serial.useful_ratio"] = float64(s.rxTransfers) / float64(d)
	}
	m["fault.drops"] = float64(s.drops)
	m["fault.garbles"] = float64(s.garbles)
}

// sameCounters checks a later pass against the first one.
func sameCounters(rep *report, pass int, first, cur map[string]float64) {
	for k, v := range first {
		if cur[k] != v {
			rep.fail("pass %d: counter %s = %v, first pass %v", pass, k, cur[k], v)
			return
		}
	}
}

// perOp summarizes a workload made of several kinds of operation (one
// per experiment): each kind's median duration, so that how many of
// each kind fit in the window does not move the figures.
type perOp map[core.ID][]float64

func (p perOp) add(id core.ID, d time.Duration) { p[id] = append(p[id], d.Seconds()) }

// medians returns each kind's median duration in seconds.
func (p perOp) medians() []float64 {
	out := make([]float64, 0, len(p))
	for _, ds := range p {
		out = append(out, median(ds))
	}
	return out
}

// fill sets throughput and latency from per-kind medians: work per
// pass over the summed medians, the median kind's median and the
// slowest kind's median.
func (p perOp) fill(rep *report, workPerPass float64) {
	m := p.medians()
	rep.e2e["throughput_per_s"] = workPerPass / sum(m)
	rep.e2e["latency_p50_ms"] = median(m) * 1e3
	rep.e2e["latency_tail_ms"] = quantile(m, 1) * 1e3
}

// overhead is the traced-to-untraced ratio of summed per-kind medians.
func overhead(plain, traced perOp) float64 {
	if len(traced) == 0 {
		return math.NaN()
	}
	return sum(traced.medians()) / sum(plain.medians())
}
