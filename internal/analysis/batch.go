package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// BatchStatsAnalyzer enforces the batch-kernel accumulation discipline:
// inside the loops of a batch function (isBatchLoop: BatchAccess, a
// Decode, and the family loops named *Blocks), counters must accumulate
// in plain locals and flush into cache.Stats once per call. A per-reference
// write through a Stats value — a Stats method call (Record, Add) or an
// assignment targeting a Stats-typed expression — re-introduces exactly
// the per-access bookkeeping the fast path exists to hoist, and on some
// kernels a subtle double-count (the delta is both recorded in place and
// flushed at the end).
var BatchStatsAnalyzer = &Analyzer{
	Name: "batch-stats",
	Doc:  "ban per-reference cache.Stats writes inside batch loops (BatchAccess, Decode, *Blocks); accumulate in locals, flush once per call",
	Run:  runBatchStats,
}

func runBatchStats(pass *Pass) {
	statsType := cacheStatsType(pass.Module)
	if statsType == nil {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !isBatchLoop(fd.Name.Name) || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			// Collect the loop bodies; a write is per-reference only when it
			// executes once per iteration.
			var loops []ast.Node
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					loops = append(loops, n)
				}
				return true
			})
			if len(loops) == 0 {
				continue
			}
			inLoop := func(n ast.Node) bool {
				for _, l := range loops {
					if posWithin(n.Pos(), l) {
						return true
					}
				}
				return false
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					fn := calleeFunc(info, x)
					if fn == nil || !isStatsMethod(fn, statsType) || !inLoop(x) {
						return true
					}
					pass.Reportf(x.Pos(),
						"Stats.%s inside %s's loop: accumulate in locals and flush once per call",
						fn.Name(), name)
				case *ast.AssignStmt:
					if !inLoop(x) {
						return true
					}
					for _, lhs := range x.Lhs {
						if e := statsPrefix(info, lhs, statsType); e != nil {
							pass.Reportf(lhs.Pos(),
								"write through cache.Stats inside %s's loop: accumulate in locals and flush once per call", name)
						}
					}
				case *ast.IncDecStmt:
					if !inLoop(x) {
						return true
					}
					if e := statsPrefix(info, x.X, statsType); e != nil {
						pass.Reportf(x.Pos(),
							"write through cache.Stats inside %s's loop: accumulate in locals and flush once per call", name)
					}
				}
				return true
			})
		}
	}
}

// isBatchLoop reports whether a function of this name is one of the
// batch paths the rule covers: a BatchAccess driver, the Decode that
// feeds a family's batch loop, and the loops themselves (AccessBlocks
// and the per-policy loops it dispatches to, all named *Blocks).
func isBatchLoop(name string) bool {
	return name == "BatchAccess" || name == "Decode" || strings.HasSuffix(name, "Blocks")
}

// cacheStatsType resolves the module's cache.Stats named type (nil when
// the module has no internal/cache package — then the rule is vacuous).
func cacheStatsType(mod *Module) *types.Named {
	pkg := mod.Base(mod.Path + "/internal/cache")
	if pkg == nil {
		return nil
	}
	obj, ok := pkg.Scope().Lookup("Stats").(*types.TypeName)
	if !ok {
		return nil
	}
	return namedOf(obj.Type())
}

// isStatsMethod reports whether fn is a method whose receiver is
// cache.Stats (by value or pointer).
func isStatsMethod(fn *types.Func, stats *types.Named) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := types.Unalias(recv).(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named := namedOf(recv)
	return named != nil && isStats(named, stats)
}

// isStats reports whether named is the cache.Stats type stats. It
// compares package path and name rather than objects: package cache's
// own files are type-checked together with its tests, apart from the
// base package importers see, so inside package cache Stats is another
// object of the same name.
func isStats(named, stats *types.Named) bool {
	obj := named.Obj()
	return obj.Name() == stats.Obj().Name() && obj.Pkg() != nil && obj.Pkg().Path() == stats.Obj().Pkg().Path()
}

// statsPrefix returns the shortest prefix of assignable expression e
// whose static type is cache.Stats ("c.stats" in "c.stats.Hits"), or nil
// when no prefix has that type. The blank identifier never matches.
func statsPrefix(info *types.Info, e ast.Expr, stats *types.Named) ast.Expr {
	for {
		if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
			return nil
		}
		if tv, ok := info.Types[e]; ok {
			if named := namedOf(tv.Type); named != nil && isStats(named, stats) {
				return e
			}
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
