package gnn_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the internal exports that need no caller outside
// tests, each with the reason. A key is a package path (every export of
// the package) or an export as TestInternalExportsHaveCallers prints it.
var exportAllowlist = map[string]string{
	"gnn/internal/snapshot/snapshottest": "the snapshot corruption table and its fixtures: a helper package for the decoder's and the compactor's tests",
	"gnn/internal/core.BestFirst":        "Traversal's zero value: the default traversal, selected by leaving the option unset",
}

// TestInternalExportsHaveCallers fails on an exported identifier of a
// package under internal/ — a package-level name, or a method of one of
// its types — that no non-test Go file of the repository refers to, the
// perfbench module included. A use inside the identifier's own package
// counts; a test-only export belongs in that package's test files. A
// method also counts as used when its type implements an interface that
// a non-test file holds a value of, or fmt.Stringer, which fmt calls
// through. The packages are type-checked from source with the standard
// library only.
func TestInternalExportsHaveCallers(t *testing.T) {
	dirs := goPackageDirs(t)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	fmtPkg, err := imp.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	ifaces := map[string]map[string]string{} // interface → method → signature
	addInterface(ifaces, fmtPkg.Scope().Lookup("Stringer").Type())
	var exports []string
	methods := map[string]*types.Func{} // exported method → its object
	for _, dir := range dirs {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(importPath(dir), fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		for _, obj := range info.Uses {
			used[exportKey(obj)] = true
		}
		for _, tv := range info.Types {
			addInterface(ifaces, tv.Type)
		}
		if strings.HasPrefix(pkg.Path(), "gnn/internal/") {
			exports = append(exports, exported(pkg, methods)...)
		}
	}
	sort.Strings(exports)
	for _, e := range exports {
		if used[e] || exportAllowlist[e] != "" || exportAllowlist[pkgOf(e)] != "" {
			continue
		}
		if m := methods[e]; m != nil && implementsUsed(m, ifaces) {
			continue
		}
		t.Errorf("%s has no caller outside tests", e)
	}
	// An entry that no longer names an uncalled export goes too.
	listed := map[string]bool{}
	for _, e := range exports {
		listed[e], listed[pkgOf(e)] = true, true
	}
	for e := range exportAllowlist {
		if !listed[e] || used[e] {
			t.Errorf("allowlisted %s is not an internal export without callers", e)
		}
	}
	t.Logf("%d internal exports across %d packages", len(exports), len(dirs))
}

// addInterface records typ's method signatures in ifaces when typ is an
// interface with methods. Signatures are compared as strings (signature),
// which name types by their full package paths, so an interface and a
// type from different type-checks of one package still match.
func addInterface(ifaces map[string]map[string]string, typ types.Type) {
	iface, ok := typ.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return
	}
	key := types.TypeString(iface, nil)
	if ifaces[key] != nil {
		return
	}
	sigs := map[string]string{}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		sigs[m.Name()] = signature(m)
	}
	ifaces[key] = sigs
}

// signature prints f's signature with each parameter and result type's
// aliases resolved: go/types prints an alias by its own name, and a
// method returning the aliased type implements an interface method
// returning the alias.
func signature(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	unalias := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			v := t.At(i)
			vars[i] = types.NewParam(v.Pos(), v.Pkg(), v.Name(), types.Unalias(v.Type()))
		}
		return types.NewTuple(vars...)
	}
	return types.TypeString(types.NewSignatureType(nil, nil, nil, unalias(sig.Params()), unalias(sig.Results()), sig.Variadic()), nil)
}

// implementsUsed reports whether m's receiver type (or a pointer to it)
// implements a recorded interface that has a method of m's name.
func implementsUsed(m *types.Func, ifaces map[string]map[string]string) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	have := map[string]string{}
	mset := types.NewMethodSet(types.NewPointer(recv))
	for i := 0; i < mset.Len(); i++ {
		f := mset.At(i).Obj().(*types.Func)
		have[f.Name()] = signature(f)
	}
	for _, sigs := range ifaces {
		if _, ok := sigs[m.Name()]; !ok {
			continue
		}
		all := true
		for name, sig := range sigs {
			if have[name] != sig {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// goPackageDirs lists the directories of the repository that hold a
// package's non-test Go files, relative to the root and the perfbench
// module's included; testdata and dot directories are skipped.
func goPackageDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// importPath is the import path of the package in dir: the module path
// gnn joined with dir, which holds for the nested gnn/perfbench module
// too.
func importPath(dir string) string {
	if dir == "." {
		return "gnn"
	}
	return "gnn/" + filepath.ToSlash(dir)
}

// exported lists the exported identifiers of pkg as exportKey names
// them: its package-level names and the methods of its types, which it
// also records in methods.
func exported(pkg *types.Package, methods map[string]*types.Func) []string {
	var out []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		out = append(out, exportKey(obj))
		named, ok := obj.Type().(*types.Named)
		if _, isType := obj.(*types.TypeName); !ok || !isType {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				out = append(out, exportKey(m))
				methods[exportKey(m)] = m
			}
		}
		if iface, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumExplicitMethods(); i++ {
				if m := iface.ExplicitMethod(i); m.Exported() {
					out = append(out, exportKey(m))
				}
			}
		}
	}
	return out
}

// exportKey names obj the same way whichever type-check produced it:
// package path, then the receiver's type name for a method, then the
// name.
func exportKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	prefix := obj.Pkg().Path() + "."
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Origin().Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				prefix += named.Obj().Name() + "."
			}
		}
	}
	return prefix + obj.Name()
}

// pkgOf returns the package path of an exportKey name.
func pkgOf(key string) string {
	slash := strings.LastIndexByte(key, '/')
	return key[:slash+strings.IndexByte(key[slash:], '.')]
}
