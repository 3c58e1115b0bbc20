package analysis

import (
	"go/ast"
	"go/types"
)

// CollectorPurityAnalyzer enforces that run-observation hooks are
// passive. The engine promises simulation output is byte-identical with
// and without telemetry (DESIGN.md §8); that only holds if Collector
// implementations and the Options.OnResult/Progress callbacks never
// block or perturb the run. Blocking and run-perturbing operations —
// time.Sleep, a channel send that can block (any send outside a select
// with a default), os.Exit, and panic — are therefore banned in their
// bodies. Work handed to a goroutine (a go statement) is not checked:
// it does not block the worker.
var CollectorPurityAnalyzer = &Analyzer{
	Name: "collector-purity",
	Doc:  "engine Collector/OnResult/Progress hooks must not block, exit, or panic",
	Run:  runCollectorPurity,
}

// hookFieldNames are the callback fields whose function values this
// check inspects: engine.Options' OnResult and Progress, and
// grid.RunOptions' OnCell, which a journaled run calls from OnResult.
var hookFieldNames = map[string]bool{"OnResult": true, "Progress": true, "OnCell": true}

func runCollectorPurity(pass *Pass) {
	enginePath := pass.Module.Path + "/internal/engine"
	gridPath := pass.Module.Path + "/internal/grid"
	// Resolve the Collector interface as this package sees it: the
	// engine package (and its in-package tests) use their own view, so
	// implementations inside engine itself are still recognized.
	engPkg := pass.Module.Base(enginePath)
	if pass.Pkg.Types.Path() == enginePath {
		engPkg = pass.Pkg.Types
	}
	if engPkg == nil {
		return
	}
	var iface *types.Interface
	if tn, ok := engPkg.Scope().Lookup("Collector").(*types.TypeName); ok {
		iface, _ = tn.Type().Underlying().(*types.Interface)
	}

	ifaceMethods := map[string]bool{}
	if iface != nil {
		for i := 0; i < iface.NumMethods(); i++ {
			ifaceMethods[iface.Method(i).Name()] = true
		}
	}

	info := pass.Pkg.Info
	// Index top-level function declarations so hooks referenced by name
	// ("OnResult: journalResult") are checked too.
	declOf := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					declOf[fn] = fd
				}
			}
		}
	}

	checkHookExpr := func(e ast.Expr, what string) {
		switch v := ast.Unparen(e).(type) {
		case *ast.FuncLit:
			checkHookBody(pass, v.Body, what)
		case *ast.Ident, *ast.SelectorExpr:
			if fn := funcOf(info, e); fn != nil {
				if fd := declOf[fn]; fd != nil && fd.Body != nil {
					checkHookBody(pass, fd.Body, what)
				}
			}
		}
	}

	for _, file := range pass.Pkg.Files {
		// Collector implementations: method bodies of the interface's
		// methods on any type whose pointer method set satisfies it.
		if iface != nil {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil || !ifaceMethods[fd.Name.Name] {
					continue
				}
				fn, ok := info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				recv := fn.Type().(*types.Signature).Recv().Type()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				if types.Implements(types.NewPointer(recv), iface) {
					checkHookBody(pass, fd.Body, "Collector."+fd.Name.Name)
				}
			}
		}

		// Options hooks: composite-literal fields and assignments.
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || !hookFieldNames[key.Name] {
						continue
					}
					if f, ok := info.Uses[key].(*types.Var); ok && f.Pkg() != nil && (f.Pkg().Path() == enginePath || f.Pkg().Path() == gridPath) {
						checkHookExpr(kv.Value, "Options."+key.Name)
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok || !hookFieldNames[sel.Sel.Name] || i >= len(n.Rhs) {
						continue
					}
					if f, ok := info.Uses[sel.Sel].(*types.Var); ok && f.Pkg() != nil && (f.Pkg().Path() == enginePath || f.Pkg().Path() == gridPath) {
						checkHookExpr(n.Rhs[i], "Options."+sel.Sel.Name)
					}
				}
			}
			return true
		})
	}
}

// checkHookBody reports blocking or run-perturbing operations in a hook
// body.
func checkHookBody(pass *Pass, body *ast.BlockStmt, what string) {
	info := pass.Pkg.Info

	// Sends that sit directly in a select containing a default clause
	// are non-blocking by construction; collect them first.
	okSend := map[*ast.SendStmt]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					okSend[send] = true
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // a spawned goroutine does not block the hook
		case *ast.SendStmt:
			if !okSend[n] {
				pass.Reportf(n.Pos(), "%s performs a channel send that can block the run (use a select with default)", what)
			}
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			switch {
			case isPkgFunc(fn, "time", "Sleep"):
				pass.Reportf(n.Pos(), "%s calls time.Sleep: hooks sit on the scheduling path and must not block", what)
			case isPkgFunc(fn, "os", "Exit"):
				pass.Reportf(n.Pos(), "%s calls os.Exit: hooks must not terminate the run", what)
			case isBuiltinCall(info, n, "panic"):
				pass.Reportf(n.Pos(), "%s panics: telemetry must never change what a run computes", what)
			}
		}
		return true
	})
}
