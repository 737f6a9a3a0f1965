package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"time"

	"dvsim/internal/core"
)

// telemetryExps are the experiments RunTelemetry accepts.
var telemetryExps = core.AllExperiments[2:]

// telemetryWindowS is dvsim's default telemetry window: 30 simulated
// hours, past every battery death.
const telemetryWindowS = 30 * 3600

// goldenWindowS and goldenExps name the committed telemetry goldens
// (internal/core/testdata/telemetry_<id>.jsonl).
const goldenWindowS = 120

var goldenExps = []core.ID{core.Exp1, core.Exp2C, core.Exp2D}

// hashSink is the benchmark-owned writer RunTelemetry streams into: it
// keeps a SHA-256 of the bytes and their count, and on a traced pass
// records a span around every Write.
type hashSink struct {
	h      hash.Hash
	n      int64
	tr     *tracer
	parent int
	req    int64
}

func (s *hashSink) reset(tr *tracer, parent int, req int64) {
	s.h.Reset()
	s.n, s.tr, s.parent, s.req = 0, tr, parent, req
}

func (s *hashSink) Write(p []byte) (int, error) {
	sp := s.tr.begin("sink.Write", s.parent, s.req)
	s.h.Write(p)
	s.n += int64(len(p))
	s.tr.end(sp)
	return len(p), nil
}

func (s *hashSink) digest() string { return hex.EncodeToString(s.h.Sum(nil)) }

// telemetryStream runs core.RunTelemetry over the seven pipeline
// experiments, 30 simulated hours each, into a hashing sink. Set-up
// checks the 120 s windows of 1/2C/2D against the committed goldens.
func telemetryStream(c *config, rep *report, tr *tracer) error {
	var p core.Params
	setup := make([]float64, c.setups)
	for i := range setup {
		t := time.Now()
		p = core.DefaultParams()
		for _, id := range goldenExps {
			golden, err := os.ReadFile(filepath.Join(c.root, "internal", "core", "testdata", "telemetry_"+string(id)+".jsonl"))
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			_, err = core.RunTelemetry(id, p, goldenWindowS, &buf)
			rep.op(err == nil && bytes.Equal(buf.Bytes(), golden), "exp %s: 120 s telemetry differs from the committed golden (err %v)", id, err)
		}
		setup[i] = time.Since(t).Seconds()
	}
	rep.e2e["setup_s"] = median(setup)

	sink := &hashSink{h: sha256.New()}
	plain, traced := perOp{}, perOp{}
	var records, bytesOut int
	var recorderNs float64
	runSpan := map[core.ID][]float64{}
	sinkNs, telNs := 0.0, 0.0
	passLoop(c.window(), minPasses(tr), func(pass int) {
		tracing := tracedPass(tr, pass)
		durs := plain
		if tracing {
			durs = traced
		}
		passRecords, passBytes := 0, 0
		for _, id := range passOrder(telemetryExps, c.seed, streamTelemetry, pass) {
			sp := -1
			if tracing {
				sp = tr.begin("core.RunTelemetry/"+string(id), -1, int64(pass))
			}
			sink.reset(tr, sp, int64(pass))
			if !tracing {
				sink.tr = nil
			}
			t := time.Now()
			n, err := core.RunTelemetry(id, p, telemetryWindowS, sink)
			durs.add(id, time.Since(t))
			tr.end(sp)
			key := "telemetry." + string(id)
			d := fmt.Sprintf("%s/%d", sink.digest(), n)
			prev, seen := rep.digests[key]
			if !seen {
				rep.digests[key] = d
			}
			rep.op(err == nil && (!seen || prev == d), "pass %d: exp %s telemetry differs from the first pass (err %v)", pass, id, err)
			passRecords += n
			passBytes += int(sink.n)
			if tracing {
				self := selfTimes(tr.spans)
				telNs += float64(tr.spans[sp].dur())
				sinkNs += float64(tr.spans[sp].dur() - self[sp])
				// The same simulation without recorder and encoder.
				rs := tr.begin("core.Run/"+string(id), -1, int64(pass))
				o := core.Run(id, p)
				tr.end(rs)
				runSpan[id] = append(runSpan[id], float64(tr.spans[rs].dur()))
				recorderNs += float64(self[sp]) - float64(tr.spans[rs].dur())
				rep.layer["core.run_ns_per_event."+string(id)] = median(runSpan[id]) / float64(o.Events)
			}
		}
		if records == 0 {
			records, bytesOut = passRecords, passBytes
		} else if passRecords != records || passBytes != bytesOut {
			rep.fail("pass %d: %d records / %d bytes, first pass %d / %d", pass, passRecords, passBytes, records, bytesOut)
		}
	})
	rep.counters["telemetry.records"] = float64(records)
	rep.counters["telemetry.bytes_per_record"] = float64(bytesOut) / float64(records)
	plain.fill(rep, float64(records))
	rep.layer["records_per_s"] = rep.e2e["throughput_per_s"]
	if tr != nil {
		tracedPasses := len(traced[telemetryExps[0]])
		rep.layer["trace.overhead_ratio"] = overhead(plain, traced)
		rep.layer["core.recorder_ns_per_record"] = recorderNs / float64(records*tracedPasses)
		rep.layer["telemetry.sink_share"] = sinkNs / telNs
	}
	return nil
}
