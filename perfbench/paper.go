package main

import (
	"math"
	"time"

	"dvsim/internal/core"
)

// paperWarmFrames bounds the set-up's warm-up run.
const paperWarmFrames = 1000

// paperTolerance is TestSuiteReproducesPaper's allowance on each
// experiment's battery life against the published figure.
var paperTolerance = map[core.ID]float64{
	core.Exp0A: 0.01, core.Exp0B: 0.01, core.Exp1: 0.01, core.Exp1A: 0.01,
	core.Exp2: 0.10, core.Exp2A: 0.10, core.Exp2B: 0.05, core.Exp2C: 0.12,
}

// paperSuite runs the nine paper experiments one after another as plain
// core.Run calls, in a seeded order per pass.
func paperSuite(c *config, rep *report, tr *tracer) error {
	var p core.Params
	setup := make([]float64, c.setups)
	for i := range setup {
		t := time.Now()
		p = core.DefaultParams()
		o := core.RunExperiment(core.Exp2, p, paperWarmFrames)
		setup[i] = time.Since(t).Seconds()
		rep.op(o.Frames == paperWarmFrames, "warm-up delivered %d frames, want %d", o.Frames, paperWarmFrames)
	}
	rep.e2e["setup_s"] = median(setup)

	plain, traced := perOp{}, perOp{}
	var first map[string]float64
	var events, allocs uint64
	eventsOf := map[core.ID]uint64{}
	passLoop(c.window(), minPasses(tr), func(pass int) {
		tracing := tracedPass(tr, pass)
		durs := plain
		if tracing {
			durs = traced
		}
		root := -1
		if tracing {
			root = tr.begin("paper_suite.pass", -1, int64(pass))
		}
		m0 := mallocs()
		outs := map[core.ID]core.Outcome{}
		var sc simCounters
		for _, id := range passOrder(core.AllExperiments, c.seed, streamPaper, pass) {
			sp := -1
			if tracing {
				sp = tr.begin("core.Run/"+string(id), root, int64(pass))
			}
			t := time.Now()
			o := core.Run(id, p)
			durs.add(id, time.Since(t))
			tr.end(sp)
			outs[id] = o
			eventsOf[id] = o.Events
			sc.add(o)
			rep.op(paperRunOK(rep, pass, id, o), "pass %d: exp %s: outcome off the paper or differs from the first pass", pass, id)
		}
		tr.end(root)
		if !tracing {
			allocs += mallocs() - m0
			events += sc.events
		}
		checkPaperOrdering(rep, pass, outs)
		cur := map[string]float64{}
		sc.into(cur)
		if first == nil {
			first = cur
		} else {
			sameCounters(rep, pass, first, cur)
		}
	})
	for k, v := range first {
		rep.counters[k] = v
	}
	plain.fill(rep, first["sim.events"])
	rep.layer["sim_events_per_s"] = rep.e2e["throughput_per_s"]
	rep.layer["allocs_per_event"] = float64(allocs) / float64(events)
	if tr != nil {
		rep.layer["trace.overhead_ratio"] = overhead(plain, traced)
		for id, ds := range traced {
			rep.layer["core.run_ns_per_event."+string(id)] = median(ds) * 1e9 / float64(eventsOf[id])
		}
	}
	return nil
}

// paperRunOK checks one run: within TestSuiteReproducesPaper's
// tolerance of the published battery life, and the same outcome as the
// first pass.
func paperRunOK(rep *report, pass int, id core.ID, o core.Outcome) bool {
	ok := true
	if tol, has := paperTolerance[id]; has {
		ok = math.Abs(o.BatteryLifeH/core.PaperHours(id)-1) <= tol
	}
	d := digestJSON(o)
	if prev, seen := rep.digests["outcome."+string(id)]; seen {
		return ok && prev == d
	}
	rep.digests["outcome."+string(id)] = d
	return ok
}

// checkPaperOrdering is the suite-level half of TestSuiteReproducesPaper:
// the ordering of normalized battery life and the headline gains.
func checkPaperOrdering(rep *report, pass int, outs map[core.ID]core.Outcome) {
	t1 := outs[core.Exp1].BatteryLifeH
	rnorm := func(id core.ID) float64 {
		o := outs[id]
		return o.BatteryLifeH / float64(o.Nodes) / t1
	}
	ok := true
	order := []core.ID{core.Exp1, core.Exp2, core.Exp2A, core.Exp1A, core.Exp2B, core.Exp2C}
	for i := 1; i < len(order); i++ {
		if rnorm(order[i-1]) >= rnorm(order[i]) {
			ok = false
		}
	}
	ok = ok && math.Abs(rnorm(core.Exp1A)-1.24) <= 0.02 && rnorm(core.Exp2C) >= 1.25 && rnorm(core.Exp2) <= rnorm(core.Exp1A)
	rep.op(ok, "pass %d: normalized battery-life ordering or headline gains off the paper", pass)
}
