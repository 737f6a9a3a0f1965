package lint

import "strings"

// Package scoping: which analyzers apply where. Paths are dvsim import
// paths; fixture packages (loaded by tests with Options.IgnoreScope)
// bypass this table.
//
// The scopes encode where each invariant actually binds:
//
//   - nondeterminism guards the simulator proper — everything under
//     internal/ feeds the deterministic experiment pipeline. The lint
//     subsystem is excluded (it runs the go tool, not the sim), and so
//     is the simulation service: a server legitimately reads the wall
//     clock and the environment, and every simulation it launches goes
//     through the still-guarded core entry points.
//   - nondetflow reports *inside the same guarded packages* — it is the
//     interprocedural half of the same invariant, flagging the call
//     sites where taint enters from unguarded helpers.
//   - maprange applies module-wide: any package may format output that
//     lands in a golden file or a CI cmp smoke.
//   - nakedgo and eventreuse apply everywhere except internal/sim,
//     which owns the scheduling machinery they police.
//   - floateq covers the packages doing continuous-quantity math on
//     the simulator hot path.
func inScope(analyzer, pkgPath string) bool {
	switch analyzer {
	case "nondeterminism", "nondetflow":
		return strings.HasPrefix(pkgPath, "dvsim/internal/") &&
			!strings.HasPrefix(pkgPath, "dvsim/internal/lint") &&
			!strings.HasPrefix(pkgPath, "dvsim/internal/service")
	case "maprange":
		return pkgPath == "dvsim" || strings.HasPrefix(pkgPath, "dvsim/")
	case "nakedgo", "eventreuse":
		return (pkgPath == "dvsim" || strings.HasPrefix(pkgPath, "dvsim/")) &&
			pkgPath != "dvsim/internal/sim" &&
			!strings.HasPrefix(pkgPath, "dvsim/internal/lint")
	case "floateq":
		switch pkgPath {
		case "dvsim/internal/sim", "dvsim/internal/node", "dvsim/internal/battery",
			"dvsim/internal/cpu", "dvsim/internal/governor":
			return true
		}
		return false
	}
	return true
}

// sanctionedFiles lists files exempt from an analyzer by construction:
// the repository's two RNG homes implement the explicitly seeded
// splitmix64 streams every other package is steered toward, so the
// nondeterminism analyzer must not flag their internals.
var sanctionedFiles = map[string][]string{
	"nondeterminism": {
		"internal/fault/rng.go",
		"internal/atr/rng.go",
	},
}

// allowedFile reports whether filename is on the analyzer's sanctioned
// list (matched by path suffix, so absolute and relative paths agree).
func allowedFile(analyzer, filename string) bool {
	filename = strings.ReplaceAll(filename, "\\", "/")
	for _, suffix := range sanctionedFiles[analyzer] {
		if strings.HasSuffix(filename, suffix) {
			return true
		}
	}
	return false
}
