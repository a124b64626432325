package accessquery

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedAllowed lists the exported identifiers under internal/ that no
// non-test file uses but that stay, each with the reason it stays. Keys are
// module-relative: "internal/pkg.Name" or "internal/pkg.Type.Method".
var unusedAllowed = map[string]string{
	"internal/fault.Injector.Counts":   "core's chaos tests check how many faults each site injected",
	"internal/graph.Graph.Components":  "synth's tests check the generated road network is one component",
	"internal/graph.Graph.NearestNode": "access, isochrone and router test fixtures snap points to road nodes without a spatial index",
	"internal/gtfs.RouteMetro":         "GTFS route_type wire value 1, named beside RouteBus as the spec names it",
	"internal/gtfs.RouteRail":          "GTFS route_type wire value 2, named beside RouteBus as the spec names it",
	"internal/gtfs.RouteTram":          "GTFS route_type wire value 0, named beside RouteBus as the spec names it",
	"internal/mat.Dense.Apply":         "ml's reference trainer, which the allocation-free trainer must match bit for bit, is written with it",
	"internal/mat.Sub":                 "ml's reference trainer, which the allocation-free trainer must match bit for bit, is written with it",
}

// TestEveryExportHasACaller enforces "code with no production caller is
// deleted": every exported identifier declared under internal/ must be used
// by some non-test file of the module (cmd/, examples/, benchmark/ and the
// root package count as callers), or sit in unusedAllowed with a reason.
// Methods named like a method of any interface the module declares or
// imports are exempt, since a call through the interface is not visible as
// a use. Struct fields are not checked.
func TestEveryExportHasACaller(t *testing.T) {
	used, err := scanExports(".")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(used))
	for name := range used {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_, allowed := unusedAllowed[name]
		switch {
		case !used[name] && !allowed:
			t.Errorf("%s is exported but no non-test file uses it: delete it, move it into its package's tests, or allowlist it with a reason", name)
		case used[name] && allowed:
			t.Errorf("allowlisted %s now has a caller: remove its entry", name)
		}
	}
	for name := range unusedAllowed {
		if _, declared := used[name]; !declared {
			t.Errorf("allowlisted %s no longer exists: remove its entry", name)
		}
	}
}

// scanExports type-checks every non-test file of the module rooted at root,
// importing the standard library from source so that it needs neither the
// network nor the go command. It maps each exported identifier declared
// under internal/ to whether a non-test file uses it.
func scanExports(root string) (map[string]bool, error) {
	const modPath = "accessquery"
	// With cgo on, the source importer runs "go tool cgo" for net and
	// os/user; their pure-Go files declare the same API.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	s := &moduleScan{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: make(map[string]*build.Package),
		pkgs: make(map[string]*types.Package),
		used: make(map[types.Object]bool),
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) || (err == nil && len(bp.GoFiles) == 0) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		s.dirs[path.Join(modPath, filepath.ToSlash(rel))] = bp
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip := range s.dirs {
		if _, err := s.Import(ip); err != nil {
			return nil, err
		}
	}

	// Method names declared by an interface of the module, of a package
	// the module imports, or by the universe's error.
	ifaceMethods := make(map[string]bool)
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	addScope := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	for _, p := range s.pkgs {
		addScope(p)
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}

	out := make(map[string]bool)
	internal := modPath + "/internal/"
	for ip, p := range s.pkgs {
		if !strings.HasPrefix(ip, internal) {
			continue
		}
		prefix := strings.TrimPrefix(ip, modPath+"/") + "."
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				out[prefix+name] = s.used[obj]
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !ifaceMethods[m.Name()] {
					out[prefix+name+"."+m.Name()] = s.used[m]
				}
			}
		}
	}
	return out, nil
}

// moduleScan is a types.Importer that type-checks the module's own packages
// from their non-test files and hands every other path to the standard
// library's source importer.
type moduleScan struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]*build.Package // by import path
	pkgs map[string]*types.Package
	used map[types.Object]bool // every object a non-test file uses
}

func (s *moduleScan) Import(ip string) (*types.Package, error) {
	bp, ok := s.dirs[ip]
	if !ok {
		return s.std.Import(ip)
	}
	if p, ok := s.pkgs[ip]; ok {
		return p, nil
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: s}
	p, err := conf.Check(ip, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[ip] = p
	for _, obj := range info.Uses {
		s.used[origin(obj)] = true
	}
	return p, nil
}

// origin maps a use of an instantiated generic function or method back to
// the object its declaration defines.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}
