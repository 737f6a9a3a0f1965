package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"dvsim/internal/buildinfo"
)

// envInfo is recorded with every result.
type envInfo struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// Commit is the VCS revision stamped into the build, "" when built
	// from a plain source tree; Source fingerprints the Go sources the
	// run was built from either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func environment(c *config) envInfo {
	return envInfo{
		Workload:   c.workload,
		Seed:       c.seed,
		Seconds:    c.seconds,
		Trace:      c.trace,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     buildinfo.Revision(),
		Source:     sourceDigest(c.root),
	}
}

// sourceDigest hashes every go.mod and .go file under root (paths and
// contents, in path order), skipping hidden directories such as the
// build directory.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is a process's peak resident set (VmHWM) in MiB, read from
// /proc; for the calling process it falls back to getrusage.
func peakRSSMB(pid int) float64 {
	if f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	if pid != os.Getpid() {
		return 0
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// expectedJSON holds, per workload, the counters and digests a seed
// must reproduce: under "*" for workloads whose outputs do not depend
// on the seed, else under the decimal seed. Regenerate it with
// -record after a deliberate change to what the simulator produces.
//
//go:embed expected.json
var expectedJSON []byte

func loadExpected() (map[string]map[string]seedRecord, error) {
	out := map[string]map[string]seedRecord{}
	if err := json.Unmarshal(expectedJSON, &out); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return out, nil
}

func expectedFor(c *config) (seedRecord, bool) {
	all, err := loadExpected()
	if err != nil {
		return seedRecord{}, false
	}
	byseed := all[c.workload]
	if r, ok := byseed["*"]; ok {
		return r, true
	}
	r, ok := byseed[strconv.FormatUint(c.seed, 10)]
	return r, ok
}

// recordedSeeds is how many fleet_sweep seeds -record pins.
const recordedSeeds = 64

// recordExpected runs one short pass of the workload (of every pinned
// seed, for seeded outputs) and writes the merged expectations to path.
func recordExpected(c *config, path string) error {
	all, err := loadExpected()
	if err != nil {
		return err
	}
	seeds := []string{"*"}
	if c.workload == "fleet_sweep" {
		seeds = seeds[:0]
		for s := 0; s < recordedSeeds; s++ {
			seeds = append(seeds, strconv.Itoa(s))
		}
	}
	wf, ok := workloads[c.workload]
	if !ok || c.workload == "service_mix" {
		return fmt.Errorf("cannot record workload %q", c.workload)
	}
	recs := map[string]seedRecord{}
	for _, s := range seeds {
		rc := *c
		rc.seconds, rc.setups = 1e-9, 1
		if s != "*" {
			rc.seed, _ = strconv.ParseUint(s, 10, 64)
		}
		rep := newReport()
		if err := wf(&rc, rep, nil); err != nil {
			return err
		}
		recs[s] = seedRecord{Counters: rep.counters, Digests: rep.digests}
		fmt.Fprintf(os.Stderr, "recorded %s seed %s\n", c.workload, s)
	}
	all[c.workload] = recs
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
