package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ArenaOwner enforces the tensor.Arena move-semantics ownership contract
// (DESIGN.md §7) within each function body:
//
//   - a tensor obtained from Arena.Get/GetZeroed and kept in a local
//     variable must be released — Put back, returned, stored into a field,
//     slice, map or channel, or handed to another function (an ownership
//     transfer); a Get whose result never leaves the function and is never
//     Put is a pool leak (the buffer will be reallocated forever after);
//   - the same variable must not be Put twice in one straight-line block
//     without a reassignment in between (the arena tolerates double-Puts at
//     runtime via the provenance flag, but a static double-Put is always a
//     logic bug);
//   - a variable obtained outside a loop must not be Put inside that loop
//     (a loop-captured alias: the second iteration Puts a buffer the arena
//     already owns).
//
// The analysis is intraprocedural and deliberately permissive: any call
// argument, return, field store, append, or channel send counts as an
// ownership transfer, so the rule only fires on unambiguous leaks and
// double-releases.
var ArenaOwner = &Analyzer{
	Name: "arenaowner",
	Run:  runArenaOwner,
}

// isArenaMethod reports whether a call invokes the named method on
// *tensor.Arena.
func isArenaMethod(info *types.Info, call *ast.CallExpr, names ...string) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	named := recvNamed(fn)
	if named == nil || named.Obj().Name() != "Arena" || !pathHasSuffix(pkgPathOf(fn), "internal/tensor") {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

func runArenaOwner(pass *Pass) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkArenaFunc(pass, fd.Body)
			}
		}
	}
}

// arenaVar tracks one local that currently holds an Arena.Get result.
type arenaVar struct {
	obj      types.Object
	getPos   token.Pos
	released bool
}

func checkArenaFunc(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// Gather Get-assigned locals: x := ar.Get(...) / x = ar.Get(...).
	vars := map[types.Object]*arenaVar{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok || !isArenaMethod(info, call, "Get", "GetZeroed") {
			return true
		}
		if len(assign.Lhs) != 1 {
			return true
		}
		id, ok := assign.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return true
		}
		vars[obj] = &arenaVar{obj: obj, getPos: call.Pos()}
		return true
	})

	// Mark releases: Put args, returns, stores, transfers.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if v := lookupArenaVar(info, vars, arg); v != nil {
					v.released = true // Put, or transfer into any callee
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				markReleasedIn(info, vars, r)
			}
		case *ast.AssignStmt:
			// Storing the tensor anywhere non-local (field, index, deref)
			// or into another variable transfers/aliases ownership; both
			// sides count.
			for _, rhs := range n.Rhs {
				markReleasedIn(info, vars, rhs)
			}
			for _, lhs := range n.Lhs {
				if _, isIdent := lhs.(*ast.Ident); !isIdent {
					markReleasedIn(info, vars, lhs)
				}
			}
		case *ast.SendStmt:
			markReleasedIn(info, vars, n.Value)
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				markReleasedIn(info, vars, e)
			}
		case *ast.FuncLit:
			// A closure referencing the variable may release it later.
			ast.Inspect(n.Body, func(c ast.Node) bool {
				if e, ok := c.(ast.Expr); ok {
					if v := lookupArenaVar(info, vars, e); v != nil {
						v.released = true
					}
				}
				return true
			})
			return false
		}
		return true
	})

	for _, v := range vars {
		if !v.released {
			pass.Reportf(v.getPos, "Arena.Get result %q is never Put, returned, or transferred (pool leak)", v.obj.Name())
		}
	}

	checkDoublePut(pass, body, info)
	checkLoopAliasPut(pass, body, info)
}

// lookupArenaVar resolves an expression to a tracked Get variable.
func lookupArenaVar(info *types.Info, vars map[types.Object]*arenaVar, e ast.Expr) *arenaVar {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		return nil
	}
	return vars[obj]
}

// markReleasedIn marks every tracked variable mentioned anywhere in e.
func markReleasedIn(info *types.Info, vars map[types.Object]*arenaVar, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				if v := vars[obj]; v != nil {
					v.released = true
				}
			}
		}
		return true
	})
}

// checkDoublePut flags two Puts of the same identifier in one straight-line
// statement list with no reassignment between them. Same-block only, so
// if/else branches that each Put once stay clean.
func checkDoublePut(pass *Pass, body *ast.BlockStmt, info *types.Info) {
	ast.Inspect(body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		put := map[types.Object]token.Pos{}
		for _, stmt := range block.List {
			switch s := stmt.(type) {
			case *ast.ExprStmt:
				call, ok := s.X.(*ast.CallExpr)
				if !ok {
					continue
				}
				if !isArenaMethod(info, call, "Put") {
					continue
				}
				for _, arg := range call.Args {
					id, ok := ast.Unparen(arg).(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.Uses[id]
					if obj == nil {
						continue
					}
					if _, seen := put[obj]; seen {
						pass.Reportf(arg.Pos(), "double Put of %q (already Put in this block)", id.Name)
					} else {
						put[obj] = arg.Pos()
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := info.Defs[id]; obj != nil {
							delete(put, obj)
						}
						if obj := info.Uses[id]; obj != nil {
							delete(put, obj)
						}
					}
				}
			}
		}
		return true
	})
}

// checkLoopAliasPut flags Put(x) inside a for/range body when x is neither
// declared nor reassigned inside that loop: each iteration would re-Put the
// same buffer.
func checkLoopAliasPut(pass *Pass, body *ast.BlockStmt, info *types.Info) {
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		var rangeVars []ast.Expr
		switch l := n.(type) {
		case *ast.ForStmt:
			loopBody = l.Body
		case *ast.RangeStmt:
			loopBody = l.Body
			rangeVars = []ast.Expr{l.Key, l.Value}
		default:
			return true
		}
		// Objects (re)bound inside the loop on every iteration.
		local := map[types.Object]bool{}
		for _, rv := range rangeVars {
			if id, ok := rv.(*ast.Ident); ok && id != nil {
				if obj := info.Defs[id]; obj != nil {
					local[obj] = true
				}
				if obj := info.Uses[id]; obj != nil {
					local[obj] = true
				}
			}
		}
		ast.Inspect(loopBody, func(c ast.Node) bool {
			if assign, ok := c.(*ast.AssignStmt); ok {
				for _, lhs := range assign.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := info.Defs[id]; obj != nil {
							local[obj] = true
						}
						if obj := info.Uses[id]; obj != nil {
							local[obj] = true
						}
					}
				}
			}
			return true
		})
		ast.Inspect(loopBody, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok || !isArenaMethod(info, call, "Put") {
				return true
			}
			for _, arg := range call.Args {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Uses[id]
				if obj == nil || local[obj] {
					continue
				}
				pass.Reportf(arg.Pos(), "Put of loop-captured alias %q (obtained outside the loop; later iterations re-Put a pooled buffer)", id.Name)
			}
			return true
		})
		return true
	})
}
