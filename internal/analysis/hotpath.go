package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAnalyzer is the hotpath-alloc check: a function annotated with
// a //dynexcheck:hot doc comment (BatchAccess, the family batch loops
// and a size column's Batch, the trace batch decode loop, the policy
// drive loop, the obs counter fast paths)
// must not contain allocating constructs. The flagged set is the one
// that matters at ~150M refs/sec:
//
//   - make/new and slice or map composite literals
//   - taking the address of a composite literal (always escapes)
//   - append whose result is not reassigned to its own first argument
//     (growth of a reused buffer is amortized; a fresh slice is not)
//   - passing a non-pointer concrete value to an interface parameter or
//     converting one to an interface type (boxing allocates)
//   - closures that capture enclosing variables (the closure and its
//     captures move to the heap)
//   - string <-> []byte conversions (always copy)
//
// Plain struct value literals (d := Stats{...}) are stack values and are
// deliberately not flagged: the kernels use them for snapshot/restore.
//
// The same functions must not divide: an integer / or % (or /=, %=)
// whose divisor is not a constant is a 64-bit hardware division, tens
// of cycles per reference. Cache geometries are powers of two, so a
// kernel indexes by the shift and mask cache.IndexShifts derives once;
// a constant divisor compiles to shifts or a multiply and passes.
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath-alloc",
	Doc:  "functions marked //dynexcheck:hot contain no allocating constructs and no integer division by a non-constant divisor",
	Run:  runHotPath,
}

// hotDirective marks a function as allocation-free-by-contract. It is a
// directive comment (no space after //) so gofmt leaves it alone.
const hotDirective = "//dynexcheck:hot"

func runHotPath(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotFunc(fd) {
				continue
			}
			checkHotBody(pass, info, fd)
		}
	}
}

// isHotFunc reports whether the declaration carries the hot annotation.
func isHotFunc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotDirective || strings.HasPrefix(c.Text, hotDirective+" ") {
			return true
		}
	}
	return false
}

func checkHotBody(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	reuse := appendReuses(fd.Body)
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s in %s, which is marked %s: hot paths must be allocation-free",
			what, fd.Name.Name, hotDirective)
	}
	reportDiv := func(pos token.Pos, op token.Token) {
		pass.Reportf(pos, "integer %s with a non-constant divisor in %s, which is marked %s: hot paths index by shift and mask",
			op, fd.Name.Name, hotDirective)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			if (x.Op == token.QUO || x.Op == token.REM) && variableIntDivisor(info, x, x.Y) {
				reportDiv(x.OpPos, x.Op)
			}
		case *ast.AssignStmt:
			if (x.Tok == token.QUO_ASSIGN || x.Tok == token.REM_ASSIGN) && variableIntDivisor(info, x.Lhs[0], x.Rhs[0]) {
				reportDiv(x.TokPos, x.Tok)
			}
		case *ast.CallExpr:
			checkHotCall(info, x, reuse, report)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					report(x.Pos(), "address of composite literal (escapes to the heap)")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[x]; ok {
				switch types.Unalias(tv.Type).Underlying().(type) {
				case *types.Slice:
					report(x.Pos(), "slice literal (allocates backing array)")
				case *types.Map:
					report(x.Pos(), "map literal (allocates)")
				}
			}
		case *ast.FuncLit:
			if name := capturedVar(info, x, fd); name != "" {
				report(x.Pos(), "closure capturing "+name+" (closure and capture move to the heap)")
			}
		}
		return true
	})
}

// variableIntDivisor reports whether a division yielding result (the
// binary expression, or the assigned operand of /= and %=) is an
// integer division whose divisor is not a compile-time constant.
func variableIntDivisor(info *types.Info, result, divisor ast.Expr) bool {
	tv, ok := info.Types[result]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := types.Unalias(tv.Type).Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return false
	}
	dv, ok := info.Types[divisor]
	return ok && dv.Value == nil
}

// appendReuses returns the append calls whose result is assigned back to
// their own first argument (buf = append(buf, ...)): the sanctioned
// reuse pattern whose growth cost amortizes away.
func appendReuses(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	reuse := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
				continue
			}
			if types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
				reuse[call] = true
			}
		}
		return true
	})
	return reuse
}

// checkHotCall flags the allocating call forms: make/new, non-reuse
// append, allocating conversions, and interface boxing at call
// boundaries.
func checkHotCall(info *types.Info, call *ast.CallExpr, reuse map[*ast.CallExpr]bool, report func(token.Pos, string)) {
	switch {
	case isBuiltinCall(info, call, "make"):
		report(call.Pos(), "make")
		return
	case isBuiltinCall(info, call, "new"):
		report(call.Pos(), "new")
		return
	case isBuiltinCall(info, call, "append"):
		if !reuse[call] {
			report(call.Pos(), "append whose result is not reassigned to its first argument")
		}
		return
	}
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok {
		return
	}
	if tv.IsType() {
		if len(call.Args) == 1 {
			checkHotConversion(info, call, tv.Type, report)
		}
		return
	}
	sig, ok := types.Unalias(tv.Type).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			break // f(xs...) passes the slice itself; no per-element boxing
		}
		pt := paramTypeAt(sig, i)
		if pt == nil {
			continue
		}
		if _, isIface := types.Unalias(pt).Underlying().(*types.Interface); !isIface {
			continue
		}
		at := argType(info, arg)
		if at == nil || isInterfaceType(at) || pointerShaped(at) {
			continue
		}
		report(arg.Pos(), "passing "+types.TypeString(at, nil)+" by value to an interface parameter (boxes)")
	}
}

// checkHotConversion flags conversions that copy or box.
func checkHotConversion(info *types.Info, call *ast.CallExpr, target types.Type, report func(token.Pos, string)) {
	arg := call.Args[0]
	at := argType(info, arg)
	if at == nil {
		return
	}
	tu := types.Unalias(target).Underlying()
	au := types.Unalias(at).Underlying()
	if b, ok := tu.(*types.Basic); ok && b.Info()&types.IsString != 0 {
		if isByteSlice(au) {
			report(call.Pos(), "[]byte -> string conversion (copies)")
		}
		return
	}
	if isByteSlice(tu) {
		if b, ok := au.(*types.Basic); ok && b.Info()&types.IsString != 0 {
			report(call.Pos(), "string -> []byte conversion (copies)")
		}
		return
	}
	if _, isIface := tu.(*types.Interface); isIface && !isInterfaceType(at) && !pointerShaped(at) {
		report(call.Pos(), "converting "+types.TypeString(at, nil)+" to an interface type (boxes)")
	}
}

// capturedVar returns the name of a variable the function literal
// captures from its enclosing hot function, or "". Package-level
// variables are not captures (the closure stays static), and a
// non-capturing literal allocates nothing.
func capturedVar(info *types.Info, lit *ast.FuncLit, fd *ast.FuncDecl) string {
	var captured string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || !obj.Pos().IsValid() {
			return true
		}
		if posWithin(obj.Pos(), lit) {
			return true // the literal's own params and locals
		}
		if posWithin(obj.Pos(), fd) {
			captured = obj.Name()
		}
		return true
	})
	return captured
}

// paramTypeAt returns the effective type of parameter i, unrolling the
// variadic tail.
func paramTypeAt(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if s, ok := types.Unalias(sig.Params().At(n - 1).Type()).Underlying().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

// argType returns the type of an argument expression, or nil for
// untyped nil (which never boxes).
func argType(info *types.Info, e ast.Expr) types.Type {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	if b, ok := types.Unalias(tv.Type).(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return nil
	}
	return tv.Type
}

func isInterfaceType(t types.Type) bool {
	_, ok := types.Unalias(t).Underlying().(*types.Interface)
	return ok
}

// pointerShaped reports whether values of t fit a machine word without
// an allocation when stored in an interface.
func pointerShaped(t types.Type) bool {
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isByteSlice reports whether the underlying type is []byte.
func isByteSlice(u types.Type) bool {
	s, ok := u.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}
