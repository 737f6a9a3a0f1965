package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dvsim/internal/core"
)

// rng is SplitMix64. The benchmark owns its generator (rather than
// math/rand) so that a seed names the same inputs on every Go release.
type rng struct{ s uint64 }

// Stream constants keep each generator's sequence independent of the
// others drawn from the same seed.
const (
	streamPaper uint64 = iota + 1
	streamTelemetry
	streamFleet
	streamHot
	streamMiss
	streamDeck
	streamCapacity // one stream per connection from here on
)

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ 0x9e3779b97f4a7c15*stream}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n); the modulo bias is below 2⁻⁵⁰ for
// the small n used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// passOrder is the order of one pass over ids: a fresh seeded
// permutation per pass, so the program sees the same work in a
// seed-dependent sequence.
func passOrder(ids []core.ID, seed, stream uint64, pass int) []core.ID {
	out := append([]core.ID(nil), ids...)
	r := newRNG(seed^uint64(pass)*0xd1b54a32d192ed03, stream)
	r.shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fleetFrames bounds every fleet line; with 40 frames a line is a
// short run, so per-run set-up and the sweep pool weigh as much as the
// simulation itself.
const fleetFrames = 40

// fleetFaultSeeds is how many derived fault seeds each faulted line
// expands to.
const fleetFaultSeeds = 3

// fleetShape is one topology the fleet sweep instantiates.
type fleetShape struct {
	kind string // serial, tree or mesh
	a, b int    // nodes | bf, depth | sensors, aggregators
}

// fleetShapes is the fixed multiset of shapes: every seed runs the same
// shapes, so the cost of a sweep does not depend on the seed, only the
// order, governors and fault streams do. Sizes span 2 to 32 nodes.
func fleetShapes() []fleetShape {
	var out []fleetShape
	for n := 2; n <= 32; n++ {
		out = append(out, fleetShape{"serial", n, 0})
	}
	for _, t := range [][2]int{{2, 1}, {2, 2}, {2, 3}, {2, 4}, {3, 1}, {3, 2}, {4, 1}, {4, 2}, {5, 1}, {5, 2}, {6, 1}, {8, 1}} {
		out = append(out, fleetShape{"tree", t[0], t[1]})
	}
	for _, m := range [][2]int{{2, 1}, {3, 1}, {4, 1}, {4, 2}, {6, 2}, {8, 2}, {8, 4}, {12, 3}, {12, 4}, {16, 4}, {20, 5}, {24, 6}} {
		out = append(out, fleetShape{"mesh", m[0], m[1]})
	}
	return out
}

var fleetGovernors = []string{"interval", "pid", "buffer"}

// fleetManifest generates the fleet sweep's runfile for a seed. Each
// shape appears three times: ungoverned, under a seeded governor, and
// under the default link-fault scenario across fleetFaultSeeds derived
// seeds. The seed also sets base_seed (so the fault streams differ) and
// the line order.
func fleetManifest(seed uint64) string {
	r := newRNG(seed, streamFleet)
	var rows []string
	row := func(s fleetShape, gov, faults, seeds, label string) string {
		cells := []string{q(s.kind), "", "", "", "", "", q(gov), q(faults), q(seeds), q(label)}
		switch s.kind {
		case "serial":
			cells[1] = fmt.Sprint(s.a)
		case "tree":
			cells[2], cells[3] = fmt.Sprint(s.a), fmt.Sprint(s.b)
		case "mesh":
			cells[4], cells[5] = fmt.Sprint(s.a), fmt.Sprint(s.b)
		}
		return strings.Join(cells, ", ")
	}
	for _, s := range fleetShapes() {
		name := fmt.Sprintf("%s-%d-%d", s.kind, s.a, s.b)
		gov := fleetGovernors[r.intn(len(fleetGovernors))]
		first := 1 + r.intn(1000)
		rows = append(rows,
			row(s, "", "", "", name),
			row(s, gov, "", "", name+"-"+gov),
			row(s, "", "default", fmt.Sprintf("%d..%d", first, first+fleetFaultSeeds-1), name+"-faults"),
		)
	}
	r.shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	var b strings.Builder
	fmt.Fprintf(&b, "# Generated fleet sweep, seed %d.\nbase_seed = %d\nframes = %d\n\n", seed, seed, fleetFrames)
	b.WriteString("topology, nodes, bf, depth, sensors, aggregators, governor, faults, seeds, label\n")
	for _, l := range rows {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

func q(s string) string { return `"` + s + `"` }

// submission is one dvsimd request of the service workload, in the
// wire form of service.Submission.
type submission struct {
	Experiment string  `json:"experiment"`
	UntilS     float64 `json:"until_s"`
	D          float64 `json:"d,omitempty"`
	Rotation   int     `json:"rotation,omitempty"`
	Governor   string  `json:"governor,omitempty"`
}

func (s submission) params() (core.Params, error) {
	p := core.DefaultParams()
	if s.D > 0 {
		p.FrameDelayS = s.D
	}
	if s.Rotation > 0 {
		p.RotationPeriod = s.Rotation
	}
	if s.Governor != "" {
		spec, err := parseGovernor(s.Governor)
		if err != nil {
			return p, err
		}
		p.Governor = spec
	}
	return p, nil
}

// The hot set: rank r of the Zipf popularity order serves hotExp[r] over
// hotUntil[r] simulated seconds. Sizes therefore sit at fixed ranks for
// every seed, so the latency mix does not move with the seed; the seed
// picks each key's rotation period (100–399 frames), which is key
// material, so each seed has its own keys, but changes the bytes of
// experiment 2C only. The (experiment, window) pairs are distinct, so
// the keys are too.
var (
	hotExp   = []core.ID{core.Exp1, core.Exp2, core.Exp2A, core.Exp1A, core.Exp2B, core.Exp2C, core.Exp2D}
	hotUntil = []float64{120, 180, 240, 300, 360, 420, 480, 540, 600}
)

const (
	hotKeys = 24
	// largeRank is the popularity rank (0-based) of the large artifact.
	// Its Zipf share (≈3%) is well above 1%, so the hit p99 falls
	// inside the large-artifact latencies instead of on the boundary.
	largeRank = 7
	// largeUntilS sizes the large artifact: experiment 2's telemetry
	// over this window is about 20 MB.
	largeUntilS = 40000
	zipfS       = 1.1
)

func hotSet(seed uint64) []submission {
	r := newRNG(seed, streamHot)
	out := make([]submission, hotKeys)
	for i := range out {
		out[i] = submission{
			Experiment: string(hotExp[i%len(hotExp)]),
			UntilS:     hotUntil[i%len(hotUntil)],
			Rotation:   100 + r.intn(300),
		}
	}
	out[largeRank] = submission{Experiment: string(core.Exp2), UntilS: largeUntilS, Rotation: 100 + r.intn(300)}
	return out
}

var (
	missUntil = []float64{600, 900, 1200, 1500, 1800, 2100, 2400, 2700, 3000, 3300, 3600}
	missGovs  = []string{"", "interval", "pid", "buffer"}
	missDs    = []float64{2.3, 2.4, 2.5}
)

// missStream returns n unique submissions, none of which is in the hot
// set. Submission i pairs the i-th experiment, window, d and governor of
// fixed cycles, so every seed sends the same work in the same order and
// the same misses meet the same hit phases. The seed jitters each
// rotation period (≥ 1000, out of the hot set's range), which keeps
// every key unique and makes the keys the seed's own.
func missStream(seed uint64, n int) []submission {
	r := newRNG(seed, streamMiss)
	exps := core.AllExperiments[2:]
	out := make([]submission, n)
	for i := range out {
		out[i] = submission{
			Experiment: string(exps[i%len(exps)]),
			UntilS:     missUntil[(3*i)%len(missUntil)],
			D:          missDs[i%len(missDs)],
			Rotation:   1000 + 8*i + r.intn(8),
			Governor:   missGovs[(i/len(exps))%len(missGovs)],
		}
	}
	return out
}

// zipfShares returns P(k) ∝ (k+1)^-s for ranks k in [0, n).
func zipfShares(n int, s float64) []float64 {
	p := make([]float64, n)
	t := 0.0
	for k := range p {
		p[k] = math.Pow(float64(k+1), -s)
		t += p[k]
	}
	for k := range p {
		p[k] /= t
	}
	return p
}

// deckSize is how many draws one zipfDeck deck holds.
const deckSize = 1000

// zipfDeck deals Zipf popularity ranks from shuffled decks: each deck of
// deckSize holds every rank exactly its share of times (largest
// remainders rounded up), in a seeded order. Dealing without
// replacement keeps every stretch of requests at the nominal mix, so
// how many large-artifact hits land in a phase does not move with the
// seed.
type zipfDeck struct {
	deck []int
	next int
	r    *rng
}

func newZipfDeck(n int, s float64, r *rng) *zipfDeck {
	p := zipfShares(n, s)
	counts := make([]int, n)
	rem := make([]int, n)
	left := deckSize
	for k := range p {
		counts[k] = int(p[k] * deckSize)
		left -= counts[k]
		rem[k] = k
	}
	sort.SliceStable(rem, func(a, b int) bool {
		fa := p[rem[a]]*deckSize - float64(counts[rem[a]])
		fb := p[rem[b]]*deckSize - float64(counts[rem[b]])
		return fa > fb
	})
	for _, k := range rem[:left] {
		counts[k]++
	}
	z := &zipfDeck{r: r}
	for k, c := range counts {
		for ; c > 0; c-- {
			z.deck = append(z.deck, k)
		}
	}
	z.next = len(z.deck)
	return z
}

func (z *zipfDeck) draw() int {
	if z.next == len(z.deck) {
		z.r.shuffle(len(z.deck), func(i, j int) { z.deck[i], z.deck[j] = z.deck[j], z.deck[i] })
		z.next = 0
	}
	k := z.deck[z.next]
	z.next++
	return k
}
