package elastic

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported internal/ identifiers that may have
// no caller outside tests, keyed "<package under internal/>.<Name>" or
// "<package>.<Type>.<Method>". An entry for a type also covers its
// methods. Every entry must still exist and still be test-only.
var surfaceAllowlist = map[string]bool{
	// Fault and clock hooks: tests substitute them for the real seam.
	"transport.FaultTransport":    true,
	"transport.NewFaultTransport": true,
	"transport.LinkMode":          true,
	"transport.LinkData":          true,
	"transport.LinkAnnounce":      true,
	"transport.LinkAll":           true,
	"detector.ManualClock":        true,
	"detector.NewManualClock":     true,

	// The re-index half of Config.StorageDir: reopening a node's
	// directory after a restart, which parses the chunk file names.
	"cluster.OpenDiskStore": true,
	"array.ParseChunkRef":   true,

	// ROADMAP item 3 (one observability spine) decides these.
	"supervisor.Supervisor.Events":     true,
	"supervisor.Supervisor.EventCount": true,
	"detector.Detector.Status":         true,
	"detector.NodeStatus":              true,

	// ROADMAP item 9 (validating the co-access advisor) decides these.
	"advisor.Live.Advise":   true,
	"advisor.Live.Rebuilds": true,
	"core.Engine.Advisor":   true,
}

// TestExportedSurfaceHasCallers type-checks every non-test file in the
// repository, bench/ included, and fails on an exported package-level
// name, or exported method of an exported type, under internal/ that no
// non-test file references outside its own declaration. Methods that
// implement an interface method are exempt: their callers reach them
// through the interface.
func TestExportedSurfaceHasCallers(t *testing.T) {
	l, err := newSourceLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range l.paths() {
		if _, err := l.load(path); err != nil {
			t.Fatal(err)
		}
	}
	// An allowlisted declaration counts as test code: what only it
	// references is not live.
	used := l.uses(allowlisted)
	ifaces := l.interfacesByMethod()

	seen := map[string]bool{}
	var dead, notTestOnly []string
	check := func(obj types.Object) {
		key, _ := surfaceKey(obj)
		seen[key] = true
		switch {
		case used[obj] && surfaceAllowlist[key]:
			notTestOnly = append(notTestOnly, key)
		case !used[obj] && !allowlisted(obj):
			dead = append(dead, fmt.Sprintf("%s (%s)", key, l.fset.Position(obj.Pos())))
		}
	}
	for _, path := range l.paths() {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		scope := l.pkgs[path].pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			check(obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !implementsInterface(named, m.Name(), ifaces) {
					check(m)
				}
			}
		}
	}
	for key := range surfaceAllowlist {
		if !seen[key] {
			notTestOnly = append(notTestOnly, key+" (no longer exists)")
		}
	}
	sort.Strings(dead)
	sort.Strings(notTestOnly)
	if len(dead) > 0 {
		t.Errorf("%d exported internal/ identifiers have no non-test caller; unexport or delete them:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
	if len(notTestOnly) > 0 {
		t.Errorf("allowlisted identifiers are no longer test-only; drop them from surfaceAllowlist:\n\t%s",
			strings.Join(notTestOnly, "\n\t"))
	}
}

// surfaceKey names a package-level object or method declared under
// internal/ the way surfaceAllowlist does.
func surfaceKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	rel, ok := strings.CutPrefix(obj.Pkg().Path(), "repro/internal/")
	if !ok {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return rel + "." + named.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return rel + "." + obj.Name(), true
}

// allowlisted reports whether surfaceAllowlist names obj, or the type
// obj is a method of.
func allowlisted(obj types.Object) bool {
	key, ok := surfaceKey(obj)
	if !ok {
		return false
	}
	if surfaceAllowlist[key] {
		return true
	}
	return strings.Count(key, ".") == 2 && surfaceAllowlist[key[:strings.LastIndex(key, ".")]]
}

// implementsInterface reports whether *named, whose method set includes
// named's, implements some interface that declares a method called method.
func implementsInterface(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, iface := range ifaces[method] {
		if types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// sourcePkg is one type-checked package of the repository.
type sourcePkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// sourceLoader type-checks the repository's packages from source without
// the go command: repro/... import paths map to directories, and the
// standard library comes from GOROOT through the "source" importer.
type sourceLoader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	dirs map[string]string // import path → directory
	pkgs map[string]*sourcePkg
}

// newSourceLoader finds every directory under root that holds non-test Go
// files. A directory's import path is "repro/" plus its path from root,
// which covers both modules: the root one, "repro", and the nested bench
// module, "repro/bench".
func newSourceLoader(root string) (*sourceLoader, error) {
	fset := token.NewFileSet()
	l := &sourceLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs: map[string]string{},
		pkgs: map[string]*sourcePkg{},
	}
	err := filepath.WalkDir(root, func(file string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if file != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			dir := filepath.Dir(file)
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			l.dirs[path.Join("repro", filepath.ToSlash(rel))] = dir
		}
		return nil
	})
	return l, err
}

// paths returns the import paths of the repository's packages, sorted.
func (l *sourceLoader) paths() []string {
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func (l *sourceLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *sourceLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load parses and type-checks the package at an import path, once.
func (l *sourceLoader) load(path string) (*sourcePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := l.dirs[path]
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		var noGo *build.NoGoError
		if !errors.As(err, &noGo) {
			return nil, err
		}
	}
	p := &sourcePkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// uses returns every object some loaded file references outside the
// object's own declaration and outside the declarations skip accepts: a
// function's body does not use the function, and a type's spec and method
// receivers do not use the type.
func (l *sourceLoader) uses(skip func(types.Object) bool) map[types.Object]bool {
	type span struct{ from, to token.Pos }
	own := map[types.Object][]span{}
	var skipped []span
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					own[obj] = append(own[obj], span{d.Pos(), d.End()})
					if skip(obj) {
						skipped = append(skipped, span{d.Pos(), d.End()})
					}
					if d.Recv == nil {
						continue
					}
					recv := obj.Type().(*types.Signature).Recv().Type()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					if named, ok := recv.(*types.Named); ok {
						tn := named.Origin().Obj()
						own[tn] = append(own[tn], span{d.Recv.Pos(), d.Recv.End()})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, name := range names {
							obj := p.info.Defs[name]
							own[obj] = append(own[obj], span{s.Pos(), s.End()})
							if skip(obj) {
								skipped = append(skipped, span{s.Pos(), s.End()})
							}
						}
					}
				}
			}
		}
	}
	within := func(spans []span, pos token.Pos) bool {
		for _, s := range spans {
			if s.from <= pos && pos < s.to {
				return true
			}
		}
		return false
	}
	used := map[types.Object]bool{}
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if !within(own[obj], id.Pos()) && !within(skipped, id.Pos()) {
				used[obj] = true
			}
		}
	}
	return used
}

// interfacesByMethod indexes, by method name, every interface the loaded
// packages declare or spell out, and every interface a package they
// import declares, the predeclared error included.
func (l *sourceLoader) interfacesByMethod() map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Type() != nil {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p.pkg)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byMethod
}
