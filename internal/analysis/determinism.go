package analysis

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the repo's central invariant — training trajectories
// are bit-reproducible — at its source: the numeric and engine packages
// must not consult wall-clock time, the global (unseeded) math/rand RNG, or
// Go's randomized map iteration order. Explicitly seeded *rand.Rand values
// threaded through APIs are fine (they are the reproducibility mechanism);
// rand.New/rand.NewSource construction is therefore exempt. A map range is
// accepted when it only collects keys that the function then sorts (the
// sorted-keys idiom); any other map range in scope needs a per-site
// //lint:allow(determinism) with a reason, as do the deliberate wall-clock
// uses (busy-time accounting in the async engine, epoch timing in train).
var Determinism = &Analyzer{
	Name: "determinism",
	Scope: func(pkgPath string) bool {
		for _, s := range []string{"internal/tensor", "internal/nn", "internal/optim", "internal/core", "train"} {
			if pathHasSuffix(pkgPath, s) {
				return true
			}
		}
		return false
	},
	Run: runDeterminism,
}

// randConstructors are the math/rand functions that build explicitly seeded
// generators rather than consulting the global one.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runDeterminism(pass *Pass) {
	info := pass.TypesInfo
	walkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil {
				return true
			}
			switch pkgPathOf(fn) {
			case "time":
				if !isMethod(fn) && (fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until") {
					pass.Reportf(n.Pos(), "time.%s is a nondeterminism source in a numeric/engine package", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !isMethod(fn) && !randConstructors[fn.Name()] {
					pass.Reportf(n.Pos(), "rand.%s uses the global RNG; thread an explicitly seeded *rand.Rand instead", fn.Name())
				}
			}
		case *ast.RangeStmt:
			t := info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if sortedKeysIdiom(info, n, funcBody(enclosingFunc(stack))) {
				return true
			}
			pass.Reportf(n.Pos(), "map iteration order is randomized; collect and sort the keys first")
		}
		return true
	})
}

// sortedKeysIdiom recognizes the one blessed map-range shape: a body that
// only appends the key to a slice which the same function later sorts,
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)
//
// (sort.Ints, sort.Slice, slices.Sort and friends also count).
func sortedKeysIdiom(info *types.Info, rng *ast.RangeStmt, body *ast.BlockStmt) bool {
	if body == nil || len(rng.Body.List) != 1 {
		return false
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok || rng.Value != nil {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	dst, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" || len(call.Args) != 2 {
		return false
	}
	if base, ok := call.Args[0].(*ast.Ident); !ok || base.Name != dst.Name {
		return false
	}
	if arg, ok := call.Args[1].(*ast.Ident); !ok || arg.Name != key.Name {
		return false
	}
	// The collected slice must be sorted somewhere in the function.
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted {
			return !sorted
		}
		fn := calleeFunc(info, call)
		if fn == nil || isMethod(fn) {
			return true
		}
		switch pkgPathOf(fn) {
		case "sort", "slices":
		default:
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && arg.Name == dst.Name {
			sorted = true
		}
		return true
	})
	return sorted
}
