package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// globalmutAnalyzer forbids mutable package-level state in simulation
// packages: PR 7's per-worker Clone contract promises that clones share
// no mutable state, and a hidden package variable is shared by every
// clone at once — the one channel the contract cannot see. Package vars
// must therefore be immutable tables (initialized at declaration or in
// init, never written afterwards) or sync machinery (sync.Map,
// sync.Pool, atomics — safe by construction). Any other write to a
// package-level variable owned by a simulation package is a finding,
// wherever the write appears; mutations that are genuinely guarded by a
// lock are annotated //xqlint:ignore globalmut <which lock guards this>.
var globalmutAnalyzer = &Analyzer{
	Name: "globalmut",
	Doc:  "no writes to package-level variables of simulation packages outside declaration and init",
	Run:  runGlobalmut,
}

// globalmutSyncTypes are types whose package-level use is sanctioned:
// their mutation goes through their own synchronized methods, never
// through an assignment the analyzer would see, and assignments to
// them (re-zeroing a mutex) are a different bug class.
var globalmutSyncTypes = map[string]bool{
	"sync.Mutex":     true,
	"sync.RWMutex":   true,
	"sync.Once":      true,
	"sync.Pool":      true,
	"sync.Map":       true,
	"sync.WaitGroup": true,
}

func runGlobalmut(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// init functions run single-threaded before main: writes
			// there are the immutable-table construction idiom.
			if fd.Name.Name == "init" && fd.Recv == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						checkGlobalWrite(p, lhs)
					}
				case *ast.IncDecStmt:
					checkGlobalWrite(p, n.X)
				}
				return true
			})
		}
	}
}

// checkGlobalWrite reports a write whose left side is rooted at a
// package-level variable belonging to a simulation package.
func checkGlobalWrite(p *Pass, lhs ast.Expr) {
	v := rootPackageVar(p, lhs)
	if v == nil {
		return
	}
	pkg := v.Pkg()
	if pkg == nil {
		return
	}
	rel, ok := moduleRelPath(p.Cfg, pkg.Path())
	if !ok || !p.Cfg.isSimPackage(rel) {
		return
	}
	if isSyncType(v.Type()) {
		return
	}
	p.Reportf(lhs.Pos(), "globalmut",
		"write to package-level var %s of simulation package %s; hidden globals break per-worker clone determinism (make it an immutable table, or annotate //xqlint:ignore globalmut <guarding lock>)",
		v.Name(), rel)
}

// rootPackageVar peels an lvalue (x, x[i], x.f, *x) to a package-level
// variable, either a plain identifier or a pkg.Var selector.
func rootPackageVar(p *Pass, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := p.Info.Uses[id].(*types.PkgName); isPkg {
					v, _ := p.Info.Uses[x.Sel].(*types.Var)
					return packageLevel(v)
				}
			}
			e = x.X
		case *ast.Ident:
			v, _ := p.Info.Uses[x].(*types.Var)
			return packageLevel(v)
		default:
			return nil
		}
	}
}

// packageLevel filters v down to package-scope variables.
func packageLevel(v *types.Var) *types.Var {
	if v == nil || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// isSyncType reports sync machinery (and sync/atomic types), which are
// exempt: their whole point is safe shared mutation.
func isSyncType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	full := obj.Pkg().Path() + "." + obj.Name()
	return globalmutSyncTypes[full] || strings.HasPrefix(full, "sync/atomic.")
}

// moduleRelPath maps an import path to its module-relative form; ok is
// false for paths outside the module.
func moduleRelPath(c *Config, importPath string) (string, bool) {
	if importPath == c.ModulePath {
		return "", true
	}
	if rest, ok := strings.CutPrefix(importPath, c.ModulePath+"/"); ok {
		return rest, true
	}
	return "", false
}
