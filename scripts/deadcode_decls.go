//go:build ignore

// Command deadcode_decls prints every non-test function and method
// declared under a directory tree (testdata excluded), one per line, in
// the form `go tool nm` names them:
//
//	<symbol> <file>:<line> <lines>
//
// where symbol is "module/pkg.Func", "module/pkg.Type.Method" or
// "module/pkg.(*Type).Method" with type parameters dropped, and lines
// counts the declaration from its func keyword to its closing brace.
// scripts/deadcode.sh joins this list with the symbols the binaries link:
//
//	go run scripts/deadcode_decls.go <module path> <dir>
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) != 3 {
		_, _ = fmt.Fprintln(os.Stderr, "usage: go run scripts/deadcode_decls.go <module path> <dir>")
		os.Exit(2)
	}
	module, root := os.Args[1], filepath.Clean(os.Args[2])
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			fmt.Printf("%s.%s%s %s:%d %d\n", pkg, receiver(fn), fn.Name.Name,
				filepath.ToSlash(path), start.Line, end.Line-start.Line+1)
		}
		return nil
	})
	if err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "deadcode_decls:", err)
		os.Exit(1)
	}
}

// receiver renders a method's receiver as the linker prefixes it:
// "T." for a value receiver, "(*T)." for a pointer one, "" for a function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	star, isPtr := t.(*ast.StarExpr)
	if isPtr {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	name := t.(*ast.Ident).Name
	if isPtr {
		return "(*" + name + ")."
	}
	return name + "."
}
