package liveupdate_test

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported identifiers under internal/ that no
// other package's program code uses but that stay exported anyway, one per
// line with its reason.
const surfaceAllowlist = "testdata/surface_allowlist.txt"

// TestExportedSurface holds every exported identifier declared under
// internal/ to a caller: each must be used by the non-test code of another
// package (benchmark/ included), or be listed in surfaceAllowlist with a
// reason. A name used only inside its own package is unexported; one used
// only by tests is deleted or moved into the tests. An allowlist entry that
// is no longer needed fails the test too, so the list only shrinks.
func TestExportedSurface(t *testing.T) {
	res, err := checkSurface(".", surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res.unused {
		t.Errorf("%s is exported but no other package's code uses it: unexport or delete it, or list it with a reason in %s", name, surfaceAllowlist)
	}
	for _, name := range res.stale {
		t.Errorf("%s: %s entry is no longer needed; remove it", surfaceAllowlist, name)
	}
	t.Logf("%d exported declarations under internal/, %d allowlisted", res.declared, res.allowed)
}

// TestExportedSurfaceFixture runs the checker over a tiny module that plants
// one unused export and one stale allowlist line beside a method that is
// used only by satisfying a literal interface in a type assertion and a
// type that is reached only through a used function's signature: exactly
// the first two must be reported.
func TestExportedSurfaceFixture(t *testing.T) {
	dir := filepath.Join("testdata", "surface")
	res, err := checkSurface(dir, filepath.Join(dir, "allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.unused, ","); got != "lib.Planted" {
		t.Errorf("unused = %q, want the planted lib.Planted only", got)
	}
	if got := strings.Join(res.stale, ","); got != "lib.Gone" {
		t.Errorf("stale = %q, want the planted lib.Gone only", got)
	}
}

type surfaceResult struct {
	unused   []string // unused exported names missing from the allowlist
	stale    []string // allowlist entries that name a used or absent identifier
	declared int      // exported declarations under internal/
	allowed  int      // allowlist entries
}

// surfacePkg is one type-checked package: its non-test files only, since
// only program code counts as a caller.
type surfacePkg struct {
	files    []*ast.File
	types    *types.Package
	info     *types.Info
	internal bool // declared under an internal/ directory of the scanned tree
}

// surfaceLoader type-checks the packages of every module under a root
// from source, and takes the standard library from the compiler's export
// data; nothing is downloaded.
type surfaceLoader struct {
	fset   *token.FileSet
	std    types.Importer
	byPath map[string]*surfacePkg
	order  []*surfacePkg // in the order they finished checking
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	p, ok := l.byPath[path]
	if !ok {
		return l.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	l.order = append(l.order, p)
	return tp, nil
}

// load parses every package of every module under root, skipping testdata
// and hidden directories; a directory holding a go.mod starts a module.
func (l *surfaceLoader) load(root string) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	type module struct{ dir, path string }
	var mods []module // innermost last
	return filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		for len(mods) > 0 && !strings.HasPrefix(dir+string(filepath.Separator), mods[len(mods)-1].dir+string(filepath.Separator)) {
			mods = mods[:len(mods)-1]
		}
		if gomod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			path := modulePath(gomod)
			if path == "" {
				return fmt.Errorf("%s/go.mod: no module line", dir)
			}
			mods = append(mods, module{dir, path})
		}
		if len(mods) == 0 {
			return fmt.Errorf("%s: not inside a module", dir)
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		mod := mods[len(mods)-1]
		rel, err := filepath.Rel(mod.dir, dir)
		if err != nil {
			return err
		}
		path := mod.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		p := &surfacePkg{internal: strings.HasPrefix(filepath.ToSlash(rel), "internal/")}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		l.byPath[path] = p
		return nil
	})
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// checkSurface lists the exported identifiers declared under root's
// internal/ directories that no other package's non-test code uses, less
// those the allowlist names, and the allowlist entries that are not needed.
//
// A name counts as used when another package refers to it, when it is a
// method that makes its type satisfy an interface used anywhere (a named or
// literal interface in the scanned code, or a named one declared by a
// package it imports, such as net.Error or fmt.Stringer), or when it is a
// type reached through the type of a name another package uses (a
// function's signature, a variable's or a field's type).
func checkSurface(root, allowlist string) (surfaceResult, error) {
	allow, err := readAllowlist(allowlist)
	if err != nil {
		return surfaceResult{}, err
	}
	l := &surfaceLoader{fset: token.NewFileSet(), std: importer.Default(), byPath: map[string]*surfacePkg{}}
	if err := l.load(root); err != nil {
		return surfaceResult{}, err
	}
	paths := make([]string, 0, len(l.byPath))
	for path := range l.byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return surfaceResult{}, err
		}
	}

	internal := map[*types.Package]bool{}
	for _, p := range l.order {
		internal[p.types] = p.internal
	}
	used := map[types.Object]bool{}
	reached := map[*types.TypeName]bool{}
	var reach func(from *types.Package, t types.Type)
	reach = func(from *types.Package, t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			o := t.Obj()
			if o.Pkg() == from || reached[o] {
				return
			}
			reached[o], used[o] = true, true
			if sig, ok := t.Underlying().(*types.Signature); ok {
				reach(from, sig) // a named func type's signature is its own
			}
		case *types.Pointer:
			reach(from, t.Elem())
		case *types.Slice:
			reach(from, t.Elem())
		case *types.Array:
			reach(from, t.Elem())
		case *types.Chan:
			reach(from, t.Elem())
		case *types.Map:
			reach(from, t.Key())
			reach(from, t.Elem())
		case *types.Signature:
			reach(from, t.Params())
			reach(from, t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				reach(from, t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				reach(from, t.Field(i).Type())
			}
		}
	}
	ifaces := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			ifaces[it] = true
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, p := range l.order {
		for _, obj := range p.info.Uses {
			if obj.Pkg() == nil || obj.Pkg() == p.types || !internal[obj.Pkg()] {
				continue
			}
			used[obj] = true
			reach(p.types, obj.Type())
		}
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for _, imp := range p.types.Imports() {
			if internal[imp] {
				continue
			}
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
	}

	// Collect the declarations and mark the methods that satisfy an
	// interface.
	var decls []string
	declared := map[string]types.Object{}
	for _, p := range l.order {
		if !p.internal {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				key := p.types.Name() + "." + name
				decls = append(decls, key)
				declared[key] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				key := p.types.Name() + "." + name + "." + m.Name()
				decls = append(decls, key)
				declared[key] = m
			}
			for it := range ifaces {
				if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if obj, _, _ := types.LookupFieldOrMethod(named, true, p.types, it.Method(i).Name()); obj != nil {
						used[obj] = true
					}
				}
			}
		}
	}

	res := surfaceResult{declared: len(decls), allowed: len(allow)}
	sort.Strings(decls)
	for _, key := range decls {
		if used[declared[key]] {
			continue
		}
		if _, ok := allow[key]; ok {
			delete(allow, key)
			continue
		}
		res.unused = append(res.unused, key)
	}
	for key := range allow {
		res.stale = append(res.stale, key)
	}
	sort.Strings(res.stale)
	return res, nil
}

// readAllowlist reads "name reason…" lines; blank lines and lines starting
// with # are skipped, and every name needs a reason.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s needs a reason", path, n, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, name)
		}
		allow[name] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}
