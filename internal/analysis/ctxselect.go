package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxSelect enforces the PR 3 engine contract on the internal/core
// goroutines: a blocking channel operation inside a goroutine body must sit
// in a select that can always escape — one with a default case (non-blocking
// probe) or a case receiving from a cancellation channel (ctx.Done(), or a
// channel whose name contains stop/done/quit). Without that case, a
// goroutine can wedge on a peer that has already been cancelled, leaking it
// past Close. The rule checks the bodies of functions launched by `go`
// statements (function literals and same-package named functions); the
// handful of deliberately paired barrier handoffs carry per-site
// //lint:allow(ctxselect) annotations explaining why they cannot wedge.
var CtxSelect = &Analyzer{
	Name:  "ctxselect",
	Scope: func(pkgPath string) bool { return pathHasSuffix(pkgPath, "internal/core") },
	Run:   runCtxSelect,
}

func runCtxSelect(pass *Pass) {
	info := pass.TypesInfo

	// Pass 1: collect goroutine roots — function literals in go statements
	// and same-package functions/methods a go statement calls.
	roots := map[ast.Node]bool{}
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}
	walkStack(pass.Files, func(n ast.Node, _ []ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
			roots[lit] = true
			return true
		}
		if fn := calleeFunc(info, g.Call); fn != nil {
			if fd, ok := decls[fn]; ok {
				roots[fd] = true
			}
		}
		return true
	})

	// Pass 2: inside each root body, every channel op must be guarded.
	for root := range roots {
		body := funcBody(root)
		if body == nil {
			continue
		}
		checkGoroutineBody(pass, body)
	}
}

// checkGoroutineBody walks one goroutine body, tracking the innermost
// enclosing select and whether it has an escape case.
func checkGoroutineBody(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	var walk func(n ast.Node, guarded bool)
	walk = func(n ast.Node, guarded bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			// Nested literals get their own goroutine check only if they
			// are themselves go-launched; don't descend here.
			return
		case *ast.SelectStmt:
			ok := selectEscapes(info, n)
			for _, clause := range n.Body.List {
				cc := clause.(*ast.CommClause)
				// The comm op itself is guarded by the select's verdict;
				// the case body inherits it too (it runs post-commit, but
				// sends/receives inside it are separate ops).
				walk(cc.Comm, ok)
				for _, s := range cc.Body {
					walk(s, false)
				}
			}
			return
		case *ast.SendStmt:
			if !guarded {
				pass.Reportf(n.Pos(), "blocking channel send outside a select with a ctx/done/stop case")
			}
			walk(n.Chan, false)
			walk(n.Value, false)
			return
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if !guarded {
					pass.Reportf(n.Pos(), "blocking channel receive outside a select with a ctx/done/stop case")
				}
				walk(n.X, false)
				return
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(), "range over a channel blocks until close; use a select with a ctx/done/stop case")
				}
			}
		case *ast.ExprStmt:
			// A bare `<-ch` statement keeps the guard verdict.
			if ue, ok := ast.Unparen(n.X).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
				walk(ue, guarded)
				return
			}
		case *ast.AssignStmt:
			// `x := <-ch` keeps the guard verdict for the receive; the
			// left-hand sides are ordinary expressions.
			if len(n.Rhs) == 1 {
				if ue, ok := ast.Unparen(n.Rhs[0]).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
					for _, l := range n.Lhs {
						walk(l, false)
					}
					walk(ue, guarded)
					return
				}
			}
		}
		// Generic descent: children of any other node are unguarded unless
		// they are the select comm clauses handled above.
		children(n, func(c ast.Node) { walk(c, false) })
	}
	for _, s := range body.List {
		walk(s, false)
	}
}

// children invokes fn on each direct child of n.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}

// selectEscapes reports whether a select can always make progress: it has a
// default case or a case receiving from a cancellation channel.
func selectEscapes(info *types.Info, sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		cc := clause.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default case
		}
		var recv ast.Expr
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv = c.X
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				recv = c.Rhs[0]
			}
		}
		ue, ok := ast.Unparen(recv).(*ast.UnaryExpr)
		if !ok || ue.Op != token.ARROW {
			continue
		}
		if isCancelChan(ue.X) {
			return true
		}
	}
	return false
}

// isCancelChan recognizes cancellation sources: ctx.Done() calls and
// channels whose name contains stop, done or quit.
func isCancelChan(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true
		}
	case *ast.Ident:
		return cancelName(e.Name)
	case *ast.SelectorExpr:
		return cancelName(e.Sel.Name)
	case *ast.IndexExpr:
		return isCancelChan(e.X)
	}
	return false
}

func cancelName(name string) bool {
	n := strings.ToLower(name)
	return strings.Contains(n, "stop") || strings.Contains(n, "done") || strings.Contains(n, "quit")
}
