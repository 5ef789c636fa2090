package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// resetcompleteAnalyzer enforces the shot-reuse contract pinned since PR
// 6: a method named Reset (with no parameters, or a single int64 seed)
// must restore every field of its receiver so that a reused object
// replays any shot bit-for-bit against fresh construction. The analyzer
// computes, per receiver type, the set of fields each method mutates
// (assignments, ++/--, address-taken fields, fields delegated to a call)
// and takes the transitive closure over same-receiver method calls, so
// Reset methods that delegate (l.MapLogical(...)) get full credit. A
// field the closure never touches is a finding: it is exactly the
// forgotten-field bug that otherwise surfaces as a flaky bit-mismatch
// deep in a differential test. Fields intentionally carried across shots
// (geometry, compiled programs, caches keyed by configuration rather
// than seed) are annotated //xqlint:persistent <reason> on the field
// declaration.
var resetcompleteAnalyzer = &Analyzer{
	Name: "resetcomplete",
	Doc:  "Reset methods must assign, zero, or delegate every receiver field, or annotate it //xqlint:persistent",
	Run:  runResetcomplete,
}

func runResetcomplete(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Reset" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if !isResetSignature(p, fd) {
				continue
			}
			named, _, ok := recvNamedStruct(p, fd)
			if !ok {
				continue
			}
			// Value receivers cannot reset anything that outlives the
			// call; the nopanic/clonedeep-style contracts only make sense
			// on pointer receivers.
			if _, isPtr := p.Info.Defs[fd.Recv.List[0].Names[0]].Type().(*types.Pointer); !isPtr {
				continue
			}
			st := structDeclOf(p, named)
			if st == nil {
				continue
			}
			persistent := structFieldAnnotations(p, st, "persistent")
			handled := mutatedFieldClosure(p, named, fd.Name.Name)
			strct := named.Underlying().(*types.Struct)
			for i := 0; i < strct.NumFields(); i++ {
				fld := strct.Field(i)
				if persistent[fld.Name()] || handled.all || handled.fields[fld.Name()] {
					continue
				}
				p.Reportf(fd.Name.Pos(), "resetcomplete",
					"(%s).Reset does not reset field %s; assign or zero it, or annotate the field //xqlint:persistent <reason>",
					named.Obj().Name(), fld.Name())
			}
		}
	}
}

// isResetSignature restricts the contract to the shot-reuse shape:
// Reset() or Reset(seed int64). Builder-style Reset(q int) methods (a
// circuit op, a tableau qubit reset) are a different verb entirely.
func isResetSignature(p *Pass, fd *ast.FuncDecl) bool {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return true
	}
	if len(params.List) != 1 || len(params.List[0].Names) > 1 {
		return false
	}
	t := p.Info.TypeOf(params.List[0].Type)
	basic, ok := t.(*types.Basic)
	return ok && basic.Kind() == types.Int64
}

// fieldSet is the mutation summary of one method closure.
type fieldSet struct {
	fields map[string]bool
	all    bool // the whole receiver was overwritten (*b = ...)
}

// mutatedFieldClosure returns the fields of named that the method with
// the given name mutates, directly or through same-receiver method
// calls (transitively, within this package). "Mutates" is deliberately
// generous: assignment under any index/selector chain rooted at the
// field, ++/--, taking the field's address, passing the field to any
// call (clear(b.synActive), copy into it), or invoking a
// method on the field (b.buf.Reset()).
func mutatedFieldClosure(p *Pass, named *types.Named, method string) fieldSet {
	type summary struct {
		set   fieldSet
		calls map[string]bool
	}
	summaries := map[string]*summary{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			mNamed, recv, ok := recvNamedStruct(p, fd)
			if !ok || mNamed.Obj() != named.Obj() {
				continue
			}
			s := &summary{set: fieldSet{fields: map[string]bool{}}, calls: map[string]bool{}}
			collectMutations(p, recv, fd.Body, s.set.fields, &s.set.all, s.calls)
			summaries[fd.Name.Name] = s
		}
	}

	out := fieldSet{fields: map[string]bool{}}
	seen := map[string]bool{}
	work := []string{method}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[name] {
			continue
		}
		seen[name] = true
		s, ok := summaries[name]
		if !ok {
			continue
		}
		out.all = out.all || s.set.all
		//xqlint:ignore maprange set union; order cannot matter
		for f := range s.set.fields {
			out.fields[f] = true
		}
		//xqlint:ignore maprange worklist order only affects visit order of a fixed point
		for callee := range s.calls {
			work = append(work, callee)
		}
	}
	return out
}

// collectMutations walks a method body recording mutated receiver fields
// and same-receiver method calls.
func collectMutations(p *Pass, recv *types.Var, body *ast.BlockStmt, fields map[string]bool, all *bool, calls map[string]bool) {
	markLHS := func(e ast.Expr) {
		if isRecvExpr(p, recv, e) {
			*all = true
			return
		}
		if f := rootField(p, recv, e); f != "" {
			fields[f] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markLHS(lhs)
			}
		case *ast.IncDecStmt:
			markLHS(n.X)
		case *ast.UnaryExpr:
			// &recv.field: the address escapes to something that may
			// write through it (p := &l.Patches[i]; p.Dynamic = ...).
			if n.Op == token.AND {
				if f := rootField(p, recv, n.X); f != "" {
					fields[f] = true
				}
			}
		case *ast.RangeStmt:
			// for i := range recv.f with an assignment through the index
			// is credited by the assignment itself; the range clause is a
			// read and earns nothing.
		case *ast.CallExpr:
			// recv.Method(...): transitive credit via the closure. A
			// promoted method (l.MapLogical on an embedded *Lattice)
			// credits the embedded field it mutates through instead.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if isRecvExpr(p, recv, sel.X) {
					if f := promotedVia(p, recv, sel); f != "" {
						fields[f] = true
					} else {
						calls[sel.Sel.Name] = true
					}
				} else if f := rootField(p, recv, sel.X); f != "" {
					// recv.field.Method(...): delegated reset.
					fields[f] = true
				}
			}
			// recv.field passed to any call (clear, copy...).
			for _, arg := range n.Args {
				if f := rootField(p, recv, arg); f != "" {
					fields[f] = true
				}
			}
		}
		return true
	})
}
