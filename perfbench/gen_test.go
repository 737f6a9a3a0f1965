package main

import (
	"math"
	"slices"
	"strings"
	"testing"

	"dvsim/internal/core"
	"dvsim/internal/manifest"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42} {
		if fleetManifest(seed) != fleetManifest(seed) {
			t.Errorf("seed %d: manifest differs between calls", seed)
		}
		if !slices.Equal(hotSet(seed), hotSet(seed)) || !slices.Equal(missStream(seed, 50), missStream(seed, 50)) {
			t.Errorf("seed %d: submissions differ between calls", seed)
		}
		if !slices.Equal(passOrder(core.AllExperiments, seed, streamPaper, 3), passOrder(core.AllExperiments, seed, streamPaper, 3)) {
			t.Errorf("seed %d: pass order differs between calls", seed)
		}
		a, b := newZipfDeck(hotKeys, zipfS, newRNG(seed, streamDeck)), newZipfDeck(hotKeys, zipfS, newRNG(seed, streamDeck))
		for i := 0; i < 100; i++ {
			if a.draw() != b.draw() {
				t.Fatalf("seed %d: zipf draws differ", seed)
			}
		}
	}
	if fleetManifest(1) == fleetManifest(2) {
		t.Error("seeds 1 and 2 give the same manifest")
	}
	if slices.Equal(hotSet(1), hotSet(2)) || slices.Equal(missStream(1, 50), missStream(2, 50)) {
		t.Error("seeds 1 and 2 give the same submissions")
	}
	if slices.Equal(passOrder(core.AllExperiments, 1, streamPaper, 0), passOrder(core.AllExperiments, 2, streamPaper, 0)) {
		t.Error("seeds 1 and 2 give the same experiment order")
	}
}

func TestRecordedDigestsDependOnSeed(t *testing.T) {
	all, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	fleet := all["fleet_sweep"]
	if len(fleet) != recordedSeeds {
		t.Fatalf("expected.json pins %d fleet seeds, want %d", len(fleet), recordedSeeds)
	}
	seen := map[string]string{}
	for seed, rec := range fleet {
		d := rec.Digests["manifest.csv"]
		if other, dup := seen[d]; dup || d == "" {
			t.Errorf("seeds %s and %s share the aggregate digest %q", seed, other, d)
		}
		seen[d] = seed
	}
	for _, w := range []string{"paper_suite", "telemetry_stream"} {
		if _, ok := all[w]["*"]; !ok {
			t.Errorf("expected.json has no seed-independent record for %s", w)
		}
	}
}

func TestFleetManifestShape(t *testing.T) {
	m, err := manifest.Load(strings.NewReader(fleetManifest(7)))
	if err != nil {
		t.Fatal(err)
	}
	exps, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	maxNodes := 0
	for _, e := range exps {
		kinds[e.Kind]++
		maxNodes = max(maxNodes, e.Nodes)
		if e.Nodes < 2 {
			t.Errorf("line %d has %d nodes", e.Line, e.Nodes)
		}
	}
	if len(exps) != len(fleetShapes())*(2+fleetFaultSeeds) || kinds["serial"] == 0 || kinds["tree"] == 0 || kinds["mesh"] == 0 || maxNodes > 32 {
		t.Errorf("%d lines, kinds %v, largest %d nodes", len(exps), kinds, maxNodes)
	}
}

func TestSubmissionsAreUniqueAndValid(t *testing.T) {
	hot := hotSet(3)
	misses := missStream(3, 200)
	keys := map[submission]bool{}
	for _, s := range append(slices.Clone(hot), misses...) {
		if keys[s] {
			t.Errorf("duplicate submission %+v", s)
		}
		keys[s] = true
		if _, err := s.params(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
	for _, s := range misses {
		if s.UntilS < 600 || s.UntilS > 3600 {
			t.Errorf("miss window %v outside 600–3600 s", s.UntilS)
		}
	}
	if sh := zipfShares(hotKeys, zipfS)[largeRank]; sh < 0.02 {
		t.Errorf("large artifact share %.3f is too close to the 1%% the hit p99 sits at", sh)
	}
}

func TestZipfDeckHoldsExactShares(t *testing.T) {
	d := newZipfDeck(hotKeys, zipfS, newRNG(9, streamDeck))
	counts := make([]int, hotKeys)
	for i := 0; i < 3*deckSize; i++ {
		counts[d.draw()]++
	}
	p := zipfShares(hotKeys, zipfS)
	for k, c := range counts {
		if want := 3 * p[k] * deckSize; math.Abs(float64(c)-want) > 3 {
			t.Errorf("rank %d dealt %d times in three decks, want %.1f", k, c, want)
		}
	}
	if counts[0] <= counts[1] || counts[1] <= counts[hotKeys-1] {
		t.Errorf("popularity not decreasing: %v", counts)
	}
}
