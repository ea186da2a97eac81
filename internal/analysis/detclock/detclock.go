// Package detclock forbids wall-clock and global-rand reads in
// deterministic packages.
//
// The repo's determinism contract — any run under VirtualClock with fixed
// seeds produces byte-identical event logs, streams and merged ResultsDB
// shards — dies the moment a deterministic package consults the wall
// clock or the shared math/rand state. Time must flow through the
// injectable Clock (internal/clock, aliased as sieve.Clock) and randomness
// through an explicitly seeded *rand.Rand.
//
// Flagged in packages the driver marks deterministic:
//
//   - time.Now, time.Since, time.Until
//   - time.NewTimer, time.NewTicker, time.Tick, time.After, time.AfterFunc
//   - time.Sleep
//   - every math/rand top-level function that reads the global source
//     (rand.Int, rand.Intn, rand.Float64, rand.Shuffle, ...); the
//     constructors rand.New/NewSource/NewZipf stay legal because a seeded
//     private source is exactly the sanctioned pattern
//
// A justified escape carries a //sieve:wallclock directive on the call's
// line, the line above it, or the enclosing function's doc comment — the
// wall clock in internal/clock is the one escape site.
package detclock

import (
	"go/ast"
	"strings"

	"sieve/internal/analysis"
)

// Analyzer is the detclock pass.
var Analyzer = &analysis.Analyzer{
	Name: "detclock",
	Doc:  "forbid wall-clock and global math/rand reads in deterministic packages",
	Run:  run,
}

// bannedTime are the time package functions that read or schedule against
// the wall clock.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"NewTimer": true, "NewTicker": true, "Tick": true,
	"After": true, "AfterFunc": true, "Sleep": true,
}

// Directive is the escape-hatch directive name.
const Directive = "wallclock"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		var fn *ast.FuncDecl
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok {
				fn = fd
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var what string
			if name := pass.PkgFunc(call, "time"); bannedTime[name] {
				what = "time." + name
			} else if name := globalRand(pass, call); name != "" {
				what = name
			}
			if what == "" {
				return true
			}
			if pass.HasDirective(call.Pos(), Directive) {
				return true
			}
			if fn != nil && fn.Body != nil && fn.Body.Pos() <= call.Pos() && call.Pos() < fn.Body.End() &&
				pass.FuncHasDirective(fn, Directive) {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s in a deterministic package: inject a Clock (or seeded rand source), or justify with //sieve:wallclock", what)
			return true
		})
	}
	return nil
}

// globalRand reports a call to a math/rand (or math/rand/v2) top-level
// function that consumes the package's global source. Constructors (New,
// NewSource, NewZipf, NewPCG, NewChaCha8) build private seeded state and
// are allowed.
func globalRand(pass *analysis.Pass, call *ast.CallExpr) string {
	for _, path := range [...]string{"math/rand", "math/rand/v2"} {
		name := pass.PkgFunc(call, path)
		if name == "" || strings.HasPrefix(name, "New") {
			continue
		}
		return path + "." + name
	}
	return ""
}
