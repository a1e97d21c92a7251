package analysis

import (
	"go/ast"
	"path/filepath"
)

// GoroutineBudget pins the set of files allowed to spawn goroutines. The
// repo's concurrency is deliberately concentrated: the tensor.Parallel
// kernel worker group and the engine run loops (the lockstep engine's
// per-stage lanes and the async stage loops). Every other `go` statement is
// a new unaudited concurrency
// surface — new goroutines must either live in one of the approved files or
// carry a per-site //lint:allow(goroutinebudget) annotation that documents
// their lifecycle (who stops them, and when).
var GoroutineBudget = &Analyzer{
	Name: "goroutinebudget",
	Run:  runGoroutineBudget,
}

// goroutineFiles is the approved budget, keyed by package-path suffix and
// file base name.
var goroutineFiles = map[[2]string]bool{
	{"internal/tensor", "parallel.go"}: true, // kernel worker group
	{"internal/core", "lockstep.go"}:   true, // lockstep engine's per-stage lanes
	{"internal/core", "async.go"}:      true, // async engine stage loops
	{"internal/serve", "server.go"}:    true, // admission batcher loop
	{"cmd/serve", "main.go"}:           true, // HTTP listener + signal wait
	{"cmd/pbtrain", "main.go"}:         true, // -obs observability HTTP listener
	// internal/chaos is deliberately absent: the chaos scenario layer spawns
	// ZERO goroutines. Schedule.Delay is a pure function evaluated on the
	// engines' existing stage goroutines, and Runner drives the cluster from
	// its caller's goroutine — fault injection adds no concurrency surface of
	// its own (DESIGN.md §14). This analyzer enforces that.
	//
	// internal/core's infer.go is deliberately absent too: the serving
	// engine runs every forward in its caller's goroutine, because the
	// serving tier holds one batch in flight at a time (DESIGN.md §12). Its
	// only concurrency is each replica's tensor.Parallel kernel group.
	//
	// internal/core's cluster.go is deliberately absent as well: the cluster
	// drives its replicas from the caller's goroutine. A sync-grad round
	// steps the replicas sweep by sweep, so lockstep replicas overlap on
	// their own lanes and the cluster adds no goroutine of its own
	// (DESIGN.md §10).
	//
	// internal/obs is deliberately absent: the metrics bus delivers each
	// event on the goroutine that emits it (a stage goroutine, an engine
	// driver, the serving batcher), so observation adds no goroutine and
	// no queue of its own (DESIGN.md §13).
}

func runGoroutineBudget(pass *Pass) {
	approved := func(file string) bool {
		base := filepath.Base(file)
		for key := range goroutineFiles {
			if pathHasSuffix(pass.Pkg.ImportPath, key[0]) && base == key[1] {
				return true
			}
		}
		return false
	}
	walkStack(pass.Files, func(n ast.Node, _ []ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		file := pass.Fset.Position(g.Pos()).Filename
		if !approved(file) {
			pass.Reportf(g.Pos(), "goroutine outside the approved worker budget (see DESIGN.md §11)")
		}
		return true
	})
}
