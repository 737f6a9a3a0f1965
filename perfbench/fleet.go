package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"time"

	"dvsim/internal/manifest"
	"dvsim/internal/sweep"
)

// fleetSweep runs a seeded manifest through manifest.Load → Expand →
// RunAll → CSV with nproc workers, pass after pass. Set-up is the
// generation, parse and expansion of the runfile.
func fleetSweep(c *config, rep *report, tr *tracer) error {
	var exps []manifest.Experiment
	setup := make([]float64, c.setups)
	for i := range setup {
		t := time.Now()
		m, err := manifest.Load(strings.NewReader(fleetManifest(c.seed)))
		if err != nil {
			return err
		}
		if exps, err = m.Expand(); err != nil {
			return err
		}
		setup[i] = time.Since(t).Seconds()
	}
	rep.e2e["setup_s"] = median(setup)
	workers := runtime.GOMAXPROCS(0)

	var plain, traced []float64
	var first map[string]float64
	var events, allocs uint64
	lineNs := map[string]float64{}
	lineEvents := map[string]float64{}
	busy, wall := 0.0, 0.0
	passLoop(c.window(), minPasses(tr), func(pass int) {
		tracing := tracedPass(tr, pass)
		m0 := mallocs()
		t := time.Now()
		var results []manifest.Result
		if tracing {
			results = tracedRunAll(tr, exps, workers, int64(pass), lineNs, lineEvents, &busy)
		} else {
			results = manifest.RunAll(exps, workers)
		}
		csv := manifest.CSV(results)
		took := time.Since(t).Seconds()
		var sc simCounters
		for _, r := range results {
			sc.add(r.Outcome)
		}
		if tracing {
			traced = append(traced, took)
			wall += took
		} else {
			plain = append(plain, took)
			allocs += mallocs() - m0
			events += sc.events
		}
		sum := sha256.Sum256([]byte(csv))
		d := hex.EncodeToString(sum[:])
		prev, seen := rep.digests["manifest.csv"]
		if !seen {
			rep.digests["manifest.csv"] = d
		}
		// The aggregate cannot say which line drifted, so all count.
		rep.opN(len(exps), !seen || prev == d, "pass %d: aggregate CSV differs from the first pass", pass)
		cur := map[string]float64{"manifest.lines": float64(len(exps))}
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
	pass := median(plain)
	rep.e2e["throughput_per_s"] = float64(len(exps)) / pass
	rep.e2e["latency_p50_ms"] = pass * 1e3
	rep.e2e["latency_tail_ms"] = quantile(plain, 0.9) * 1e3
	rep.layer["lines_per_s"] = rep.e2e["throughput_per_s"]
	rep.layer["sim_events_per_s"] = first["sim.events"] / pass
	rep.layer["allocs_per_event"] = float64(allocs) / float64(events)
	if tr != nil {
		rep.layer["trace.overhead_ratio"] = median(traced) / pass
		for _, kind := range []string{"chain", "tree", "mesh"} {
			rep.layer["fleet.run_ns_per_event."+kind] = lineNs[kind] / lineEvents[kind]
		}
		rep.layer["sweep.busy_ratio"] = busy / (wall * float64(workers))
	}
	return nil
}

// tracedRunAll is manifest.RunAll with a span around every
// Experiment.Run: the same sweep.Run pool over the same lines. Workers
// only take clock readings; the spans are recorded afterwards on the
// calling goroutine.
func tracedRunAll(tr *tracer, exps []manifest.Experiment, workers int, req int64, lineNs, lineEvents map[string]float64, busy *float64) []manifest.Result {
	type timed struct {
		res        manifest.Result
		start, end time.Time
	}
	root := tr.begin("manifest.RunAll", -1, req)
	out := sweep.Run(exps, workers, func(e manifest.Experiment) timed {
		t := time.Now()
		o := e.Run()
		return timed{manifest.Result{Experiment: e, Outcome: o}, t, time.Now()}
	})
	tr.end(root)
	results := make([]manifest.Result, len(out))
	for i, r := range out {
		results[i] = r.res
		kind := r.res.Kind
		if kind == "serial" {
			kind = "chain"
		}
		tr.record("Experiment.Run/"+kind, r.start, r.end, root, req)
		ns := float64(r.end.Sub(r.start))
		lineNs[kind] += ns
		lineEvents[kind] += float64(r.res.Outcome.Events)
		*busy += ns / 1e9
	}
	return results
}
