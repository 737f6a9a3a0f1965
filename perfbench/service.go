package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"dvsim/internal/core"
	"dvsim/internal/governor"
	"dvsim/internal/sweep"
)

// The service workload's load: two open-loop streams, each on its own
// connection. The hit stream runs in phases over the window: baseShare
// at hitBaseRate (latency_p50_ms and hit_p99_ms are measured there) and
// one stepShare at each hitLadder rate, while the miss stream runs at
// missRate. For the last capacityShare both connections send hits back
// to back; their completion rate is the hit capacity.
const (
	hitBaseRate   = 200.0
	baseShare     = 0.3
	stepShare     = 0.1
	capacityShare = 0.3
	missRate      = 6.0
	// hitLimitMs is the hit p99 limit a rate step must meet.
	hitLimitMs = 50.0
	// missGrace bounds how long the miss stream may run past the window
	// to send what it was late with.
	missGrace = 20 * time.Second
)

var hitLadder = []float64{400, 600, 800, 1000}

// openShare is the share of the window the hit stream is open-loop,
// which is when the miss stream runs: the closed-loop phase measures
// the hit path alone.
func openShare() float64 { return baseShare + float64(len(hitLadder))*stepShare }

// hitRates are the open-loop rates in phase order.
func hitRates() []float64 { return append([]float64{hitBaseRate}, hitLadder...) }

// hitPhase is one open-loop phase of the hit stream.
type hitPhase struct {
	start, end time.Time
	rate       float64
}

func hitPhases(start time.Time, window time.Duration) []hitPhase {
	at := func(share float64) time.Time { return start.Add(time.Duration(share * float64(window))) }
	out := []hitPhase{{start, at(baseShare), hitBaseRate}}
	for i, r := range hitLadder {
		from := baseShare + float64(i)*stepShare
		out = append(out, hitPhase{at(from), at(from + stepShare), r})
	}
	return out
}

func parseGovernor(s string) (governor.Spec, error) {
	spec, err := governor.ParseSpec(s)
	if err != nil {
		return spec, err
	}
	_, err = spec.New()
	return spec, err
}

// artifact computes a submission's telemetry locally: the bytes the
// server must return for its key.
func artifact(s submission) ([]byte, error) {
	p, err := s.params()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	_, err = core.RunTelemetry(core.ID(s.Experiment), p, s.UntilS, &buf)
	return buf.Bytes(), err
}

// dvsimd is one server process.
type dvsimd struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches dvsimd on a free loopback port with a fresh
// cache directory and waits until it answers /healthz.
func startServer(c *config, cacheDir string, log io.Writer) (*dvsimd, error) {
	if err := os.RemoveAll(cacheDir); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(c.dvsimd, "-addr", addr, "-cache-dir", cacheDir)
	cmd.Stdout, cmd.Stderr = log, log
	killWithParent(cmd)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dvsimd: %w", err)
	}
	s := &dvsimd{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	cl := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, fmt.Errorf("dvsimd exited during start-up: %v", s.err)
		default:
		}
		if resp, err := cl.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.stop()
	return nil, errors.New("dvsimd did not become healthy")
}

// stop asks the server to drain, and kills it if it does not exit
// within the drain allowance. It returns once the process has exited.
func (s *dvsimd) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(40 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// client is one keep-alive connection to the server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// answer is one response as the client saw it.
type answer struct {
	status int
	cache  string
	ttfb   time.Duration // request sent → headers received
	body   []byte        // valid until the next call on the same buffer
	err    error
}

func submit(ctx context.Context, cl *http.Client, base string, body []byte, buf *bytes.Buffer) answer {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/api/v1/submit", bytes.NewReader(body))
	if err != nil {
		return answer{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	t := time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		return answer{err: err}
	}
	defer resp.Body.Close()
	a := answer{status: resp.StatusCode, cache: resp.Header.Get("X-Dvsim-Cache"), ttfb: time.Since(t)}
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		a.err = err
		return a
	}
	a.body = buf.Bytes()
	if st := resp.Trailer.Get("X-Dvsim-Status"); st != "" && st != "ok" {
		a.err = fmt.Errorf("run status %q", st)
	}
	return a
}

func getJSON(ctx context.Context, cl *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverStats is the part of /api/v1/stats the benchmark reads.
type serverStats struct {
	QueueInteractive int    `json:"queue_interactive"`
	QueueBulk        int    `json:"queue_bulk"`
	RunsFailed       uint64 `json:"runs_failed"`
	Cache            struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		Puts   uint64 `json:"puts"`
	} `json:"cache"`
}

// hitSample is one hit request of the window.
type hitSample struct {
	phase   int // 0 = base rate, 1… = ladder steps
	latency float64
	traced  bool
}

// serviceMix serves a seeded hot set and a stream of unique misses from
// a dvsimd built from the checkout. See README.md for the phases.
func serviceMix(c *config, rep *report, tr *tracer) error {
	if c.dvsimd == "" {
		return errors.New("service_mix needs -dvsimd")
	}
	ctx := context.Background()
	hot := hotSet(c.seed)
	hotBodies := make([][]byte, len(hot))
	want := make([][]byte, len(hot))
	hotBytes := 0
	for i, s := range hot {
		b, err := artifact(s)
		if err != nil {
			return fmt.Errorf("hot key %d: %w", i, err)
		}
		want[i] = b
		hotBytes += len(b)
		hotBodies[i], _ = json.Marshal(s)
	}
	nMiss := int(openShare() * c.seconds * missRate)
	misses := missStream(c.seed, nMiss)
	missBodies := make([][]byte, nMiss)
	for i, s := range misses {
		missBodies[i], _ = json.Marshal(s)
	}

	dir := filepath.Join(c.state, "service")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	logf, err := os.Create(filepath.Join(dir, "dvsimd.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	hitCl, missCl := newClient(), newClient()
	defer hitCl.CloseIdleConnections()
	defer missCl.CloseIdleConnections()

	// Set-up: start a fresh server and warm the hot set over both
	// connections. The last set-up's server serves the window.
	var srv *dvsimd
	setup := make([]float64, c.setups)
	var rss []float64
	for i := range setup {
		if srv != nil {
			rss = append(rss, peakRSSMB(srv.cmd.Process.Pid))
			srv.stop()
		}
		t := time.Now()
		if srv, err = startServer(c, filepath.Join(dir, "cache"), logf); err != nil {
			return err
		}
		var other []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			other = warm(ctx, missCl, srv.base, hotBodies, want, 1)
		}()
		bad := warm(ctx, hitCl, srv.base, hotBodies, want, 0)
		<-done
		setup[i] = time.Since(t).Seconds()
		rep.attempted += len(hot)
		for _, f := range append(bad, other...) {
			rep.fail("%s", f)
		}
	}
	defer srv.stop()
	rep.e2e["setup_s"] = median(setup)
	// One untimed hit per key opens the hit connection's buffers before
	// the window.
	var buf bytes.Buffer
	for k := range hot {
		hitOK(rep, submit(ctx, hitCl, srv.base, hotBodies[k], &buf), k, want[k])
	}

	// The window: hits on one connection, misses (and, traced, the
	// stats sampler) on the other.
	start := time.Now()
	var hits []hitSample
	var hitFails int
	hitTTFB := []float64{}
	missDone := make(chan missResult, 1)
	go func() { missDone <- runMisses(ctx, missCl, srv.base, missBodies, start, tr != nil) }()
	hitRanks := newZipfDeck(len(hot), zipfS, newRNG(c.seed, streamDeck))
	ladderPass := map[int]bool{}
	for phase, ph := range hitPhases(start, c.window()) {
		var lat []float64
		sent, unsent, over := 0, 0, 0
		for j := 0; ; j++ {
			due := ph.start.Add(time.Duration(float64(j) / ph.rate * float64(time.Second)))
			if !due.Before(ph.end) {
				break
			}
			if time.Now().After(ph.end) {
				unsent = int(math.Ceil(ph.end.Sub(due).Seconds() * ph.rate))
				break
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			k := hitRanks.draw()
			traced := tr != nil && j%2 == 0
			sp := -1
			if traced {
				sp = tr.begin("http.submit/hit", -1, int64(phase)<<32|int64(j))
			}
			a := submit(ctx, hitCl, srv.base, hotBodies[k], &buf)
			l := float64(time.Since(due)) / 1e6
			tr.end(sp)
			sent++
			if !hitOK(rep, a, k, want[k]) {
				hitFails++
				over++
				continue
			}
			if traced {
				hitTTFB = append(hitTTFB, float64(a.ttfb)/1e6)
			}
			hits = append(hits, hitSample{phase, l, traced})
			lat = append(lat, l)
			if l > hitLimitMs {
				over++
			}
		}
		// A step meets the limit when at most 1% of its requests were
		// late past it, counting failed and never-sent ones as late.
		ladderPass[phase] = float64(over+unsent) <= 0.01*float64(sent+unsent)
		fmt.Fprintf(os.Stderr, "service_mix: hits at %.0f/s: %d sent, %d unsent, %d over %.0f ms, p99 %.1f ms\n", ph.rate, len(lat), unsent, over, hitLimitMs, quantile(lat, 0.99))
	}
	mr := <-missDone

	// The capacity phase: both connections, back to back, each dealing
	// from its own deck.
	capLen := time.Duration(capacityShare * float64(c.window()))
	capEnd := time.Now().Add(capLen)
	capDone := make([]int, 2)
	capAnswers := make([][]capAnswer, 2)
	var wg sync.WaitGroup
	for i, cl := range []*http.Client{hitCl, missCl} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deck := newZipfDeck(len(hot), zipfS, newRNG(c.seed, streamCapacity+uint64(i)))
			var buf bytes.Buffer
			for time.Now().Before(capEnd) {
				k := deck.draw()
				a := submit(ctx, cl, srv.base, hotBodies[k], &buf)
				a.body = nil
				if ok := a.err == nil && a.status == http.StatusOK && a.cache == "hit" && bytes.Equal(buf.Bytes(), want[k]); !ok {
					capAnswers[i] = append(capAnswers[i], capAnswer{k, a})
					continue
				}
				capDone[i]++
			}
		}()
	}
	wg.Wait()
	capacity := float64(capDone[0]+capDone[1]) / capLen.Seconds()
	rep.attempted += capDone[0] + capDone[1]
	for _, as := range capAnswers {
		for _, ca := range as {
			hitOK(rep, ca.a, ca.k, nil)
		}
	}
	window := time.Since(start)

	var st serverStats
	err = getJSON(ctx, hitCl, srv.base+"/api/v1/stats", &st)
	rep.op(err == nil && st.RunsFailed == 0, "server stats: err %v, %d failed runs", err, st.RunsFailed)
	// A server's peak comes from warming the large artifact and lands
	// wherever the collector happens to run, so one server's figure
	// jumps between runs; the largest over every set-up's server (the
	// last one also served the window) repeats.
	rep.e2e["peak_rss_mb"] = slices.Max(append(rss, peakRSSMB(srv.cmd.Process.Pid)))

	// Every miss response must be the artifact of its key.
	checked := sweep.Run(misses, 2, func(s submission) string {
		b, err := artifact(s)
		if err != nil {
			return "error: " + err.Error()
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	})
	missBytes := 0
	for i, r := range mr.results {
		ok := r.err == nil && r.status == http.StatusOK && r.cache == "miss" && r.digest == checked[i]
		rep.op(ok, "miss %d (%+v): status %d, cache %q, err %v, digest match %v", i, misses[i], r.status, r.cache, r.err, r.digest == checked[i])
		if r.status == http.StatusServiceUnavailable {
			rep.layer["service.rejected"]++
		}
		missBytes += r.bytes
	}
	if unsent := nMiss - len(mr.results); unsent > 0 {
		rep.opN(unsent, false, "%d misses not sent within %s of the window", unsent, missGrace)
	}

	var base, baseTraced, basePlain []float64
	for _, h := range hits {
		if h.phase == 0 {
			base = append(base, h.latency)
			if h.traced {
				baseTraced = append(baseTraced, h.latency)
			} else {
				basePlain = append(basePlain, h.latency)
			}
		}
	}
	maxRate := 0.0
	for phase, rate := range hitRates() {
		if !ladderPass[phase] {
			break
		}
		maxRate = rate
	}
	missLat := mr.latencies()
	if tr != nil {
		// Tracing alternates per request: report the untraced half.
		base = basePlain
	}
	rep.e2e["throughput_per_s"] = capacity
	rep.e2e["latency_p50_ms"] = median(base)
	rep.e2e["latency_tail_ms"] = quantile(missLat, 0.9)
	rep.layer["hit_p50_ms"] = median(base)
	rep.layer["hit_p99_ms"] = quantile(base, 0.99)
	rep.layer["hit_max_rps"] = maxRate
	rep.layer["miss_p50_ms"] = median(missLat)
	rep.layer["miss_p90_ms"] = quantile(missLat, 0.9)
	rep.layer["service.hits"] = float64(st.Cache.Hits)
	rep.layer["service.misses"] = float64(st.Cache.Misses)
	rep.layer["service.puts"] = float64(st.Cache.Puts)
	rep.layer["service.runs_failed"] = float64(st.RunsFailed)
	rep.counters["service.hot_keys"] = float64(len(hot))
	rep.counters["service.hot_bytes"] = float64(hotBytes)
	rep.counters["service.miss_requests"] = float64(len(mr.results))
	rep.counters["service.miss_bytes"] = float64(missBytes)
	if tr != nil {
		rep.layer["trace.overhead_ratio"] = median(baseTraced) / median(basePlain)
		rep.layer["service.hit_ttfb_ms"] = median(hitTTFB)
		rep.layer["service.miss_ttfb_ms"] = median(mr.ttfb)
		rep.layer["service.queue_depth_max"] = float64(mr.queueMax)
		for _, s := range mr.spans {
			tr.record(s.Name, s.start, s.end, -1, s.Req)
		}
	}
	fmt.Fprintf(os.Stderr, "service_mix: window %.1f s, %d open-loop hits (%d failed), %d misses, %.0f hits/s closed loop\n",
		window.Seconds(), len(hits), hitFails, len(mr.results), capacity)
	return nil
}

// capAnswer is a failed capacity-phase hit, kept for the report.
type capAnswer struct {
	k int
	a answer
}

// hitOK counts one hit as an operation: a 200 marked as a cache hit
// whose bytes are the key's artifact. A nil want means the request is
// already known to have failed.
func hitOK(rep *report, a answer, k int, want []byte) bool {
	ok := want != nil && a.err == nil && a.status == http.StatusOK && a.cache == "hit" && bytes.Equal(a.body, want)
	rep.op(ok, "hit on hot key %d: status %d, cache %q, %d bytes, err %v", k, a.status, a.cache, len(a.body), a.err)
	if a.status == http.StatusServiceUnavailable {
		rep.layer["service.rejected"]++
	}
	return ok
}

// warm submits every other hot key (starting at first) and checks each
// comes back as a freshly simulated artifact equal to the local one. It
// returns one message per failed key.
func warm(ctx context.Context, cl *http.Client, base string, bodies, want [][]byte, first int) []string {
	var buf bytes.Buffer
	var bad []string
	for k := first; k < len(bodies); k += 2 {
		a := submit(ctx, cl, base, bodies[k], &buf)
		if a.err != nil || a.status != http.StatusOK || a.cache != "miss" || !bytes.Equal(a.body, want[k]) {
			bad = append(bad, fmt.Sprintf("warming hot key %d: status %d, cache %q, err %v", k, a.status, a.cache, a.err))
		}
	}
	return bad
}

// missResult is what the miss connection saw.
type missResult struct {
	results  []missAnswer
	ttfb     []float64
	queueMax int
	spans    []timedSpan
}

type missAnswer struct {
	due     time.Time
	status  int
	cache   string
	digest  string
	bytes   int
	latency float64
	err     error
}

type timedSpan struct {
	Name       string
	Req        int64
	start, end time.Time
}

func (m missResult) latencies() []float64 {
	out := make([]float64, 0, len(m.results))
	for _, r := range m.results {
		if r.err == nil {
			out = append(out, r.latency)
		}
	}
	return out
}

// runMisses sends the unique submissions at missRate, each timed from
// when it was due. Traced, it also samples /api/v1/stats on the same
// connection every statsEvery.
func runMisses(ctx context.Context, cl *http.Client, base string, bodies [][]byte, start time.Time, traced bool) missResult {
	const statsEvery = 100 * time.Millisecond
	var out missResult
	var buf bytes.Buffer
	nextStats := start
	deadline := start.Add(time.Duration(float64(len(bodies))/missRate*float64(time.Second)) + missGrace)
	for i, body := range bodies {
		due := start.Add(time.Duration(float64(i) / missRate * float64(time.Second)))
		for traced && nextStats.Before(due) {
			if d := time.Until(nextStats); d > 0 {
				time.Sleep(d)
			}
			var st serverStats
			if getJSON(ctx, cl, base+"/api/v1/stats", &st) == nil {
				out.queueMax = max(out.queueMax, st.QueueInteractive+st.QueueBulk)
			}
			nextStats = nextStats.Add(statsEvery)
		}
		if time.Now().After(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t := time.Now()
		a := submit(ctx, cl, base, body, &buf)
		r := missAnswer{due: due, status: a.status, cache: a.cache, bytes: len(a.body), latency: float64(time.Since(due)) / 1e6, err: a.err}
		sum := sha256.Sum256(a.body)
		r.digest = hex.EncodeToString(sum[:])
		out.results = append(out.results, r)
		if traced {
			out.ttfb = append(out.ttfb, float64(a.ttfb)/1e6)
			out.spans = append(out.spans, timedSpan{"http.submit/miss", int64(i), t, time.Now()})
		}
	}
	return out
}
