package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// PkgPath is the import path ("dise/internal/sym"); external test
	// packages carry the "_test" suffix on the package name, not the path.
	PkgPath string
	Name    string
	Fset    *token.FileSet
	Syntax  []*ast.File
	Types   *types.Package
	// TypesInfo has Types, Defs, Uses and Selections populated.
	TypesInfo *types.Info
}

// Loader parses and type-checks packages of one module from source,
// resolving standard-library imports through compiled export data obtained
// from `go list -export` (the same mechanism golang.org/x/tools/go/packages
// uses). Module-internal imports are type-checked from source recursively,
// so analyzers always see syntax for the code the invariants live in.
type Loader struct {
	Fset    *token.FileSet
	modRoot string
	modPath string

	// testdataRoot, when set, resolves non-stdlib imports from
	// <testdataRoot>/<path> instead of the module tree (the analysistest
	// GOPATH-style layout).
	testdataRoot string

	mu      sync.Mutex
	exports map[string]string // import path -> export data file
	gcImp   types.ImporterFrom
	base    map[string]*types.Package // base (no test files) variants, by path
	loading map[string]bool           // cycle detection
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:    token.NewFileSet(),
		modRoot: root,
		modPath: path,
		exports: map[string]string{},
		base:    map[string]*types.Package{},
		loading: map[string]bool{},
	}
	l.gcImp = importer.ForCompiler(l.Fset, "gc", l.lookupExport).(types.ImporterFrom)
	return l, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		d = parent
	}
}

// LoadModule loads every package under the module root (skipping testdata,
// vendor and hidden directories), returning, per directory: the package
// including its in-package _test.go files, plus the external _test package
// when one exists. That mirrors what `go vet ./...` analyzes, so invariant
// violations in test helpers are caught too.
func (l *Loader) LoadModule() ([]*Package, error) {
	if err := l.primeExports(); err != nil {
		return nil, err
	}
	var dirs []string
	err := filepath.WalkDir(l.modRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.modRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		gofiles, err := goFilesIn(p)
		if err != nil {
			return err
		}
		if len(gofiles) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		pkgs, err := l.loadDirForAnalysis(dir, l.pathForDir(dir))
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	return out, nil
}

// LoadTestdata loads the package rooted at <srcRoot>/<path> (analysistest
// layout: srcRoot acts as a GOPATH src directory, sibling directories
// satisfy non-stdlib imports).
func (l *Loader) LoadTestdata(srcRoot, path string) ([]*Package, error) {
	l.testdataRoot = srcRoot
	return l.loadDirForAnalysis(filepath.Join(srcRoot, path), path)
}

func (l *Loader) pathForDir(dir string) string {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// loadDirForAnalysis parses dir and returns the units to analyze: the
// package with in-package test files folded in, and the external test
// package when present.
func (l *Loader) loadDirForAnalysis(dir, path string) ([]*Package, error) {
	files, xtest, name, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 && len(xtest) == 0 {
		return nil, nil
	}
	var out []*Package
	var augmented *types.Package
	if len(files) > 0 {
		pkg, err := l.check(path, files, nil)
		if err != nil {
			return nil, err
		}
		augmented = pkg.Types
		out = append(out, pkg)
	}
	if len(xtest) > 0 {
		// The external test package imports the tested package's augmented
		// variant, as in a real `go test` build.
		override := map[string]*types.Package{}
		if augmented != nil {
			override[path] = augmented
		}
		pkg, err := l.check(path+"_test", xtest, override)
		if err != nil {
			return nil, err
		}
		pkg.PkgPath = path
		pkg.Name = name + "_test"
		out = append(out, pkg)
	}
	return out, nil
}

// parseDir splits dir's files into the in-package unit (non-test plus
// same-package _test files) and the external test unit.
func (l *Loader) parseDir(dir string) (files, xtest []*ast.File, name string, err error) {
	paths, err := goFilesIn(dir)
	if err != nil {
		return nil, nil, "", err
	}
	for _, p := range paths {
		f, err := parser.ParseFile(l.Fset, p, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, "", err
		}
		if strings.HasSuffix(f.Name.Name, "_test") && strings.HasSuffix(p, "_test.go") {
			xtest = append(xtest, f)
			continue
		}
		if name == "" {
			name = f.Name.Name
		} else if f.Name.Name != name {
			return nil, nil, "", fmt.Errorf("analysis: %s: packages %q and %q in one directory", dir, name, f.Name.Name)
		}
		files = append(files, f)
	}
	return files, xtest, name, nil
}

// loadBase type-checks the package at path WITHOUT its test files — the
// variant other packages import, which is what keeps test-only import
// cycles (pkg A's tests import B, B imports A) out of the import graph,
// exactly as in a real Go build.
func (l *Loader) loadBase(path string) (*types.Package, error) {
	if p, ok := l.base[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseBase(path)
	if err != nil {
		return nil, err
	}
	conf := l.config(nil)
	tpkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	l.base[path] = tpkg
	return tpkg, nil
}

// parseBase parses the non-test files of the package at path.
func (l *Loader) parseBase(path string) ([]*ast.File, error) {
	dir := l.dirForImport(path)
	paths, err := goFilesIn(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: cannot load %s: %v", path, err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, p, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	return files, nil
}

func (l *Loader) dirForImport(path string) string {
	if l.testdataRoot != "" {
		if d := filepath.Join(l.testdataRoot, filepath.FromSlash(path)); dirExists(d) {
			return d
		}
	}
	if path == l.modPath {
		return l.modRoot
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modRoot, filepath.FromSlash(rest))
	}
	return ""
}

func dirExists(d string) bool {
	fi, err := os.Stat(d)
	return err == nil && fi.IsDir()
}

// check type-checks one analysis unit with full Info.
func (l *Loader) check(path string, files []*ast.File, override map[string]*types.Package) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := l.config(override)
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	return &Package{
		PkgPath:   path,
		Name:      tpkg.Name(),
		Fset:      l.Fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

func (l *Loader) config(override map[string]*types.Package) *types.Config {
	return &types.Config{
		Importer: &unitImporter{l: l, override: override},
		Error:    func(error) {}, // errors surface via Check's return value
	}
}

// unitImporter resolves one unit's imports: overrides first (the augmented
// variant for an external test package), then module/testdata source, then
// compiled export data for everything else.
//
// With an override, module packages that import an overridden package
// (directly or through other module packages) are type-checked again
// against it, as `go test` recompiles them for an external test package
// ("symexec [memo.test]"): a type the test passes from the tested package
// through such a dependency and back must be one type, not two.
type unitImporter struct {
	l        *Loader
	override map[string]*types.Package
	variants map[string]*types.Package // re-checked dependents, by path
	depends  map[string]bool           // whether a module package reaches an override
}

func (u *unitImporter) Import(path string) (*types.Package, error) {
	return u.ImportFrom(path, "", 0)
}

func (u *unitImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := u.override[path]; ok {
		return p, nil
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	l := u.l
	if l.testdataRoot != "" {
		if d := filepath.Join(l.testdataRoot, filepath.FromSlash(path)); dirExists(d) {
			return l.loadBase(path)
		}
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		if len(u.override) > 0 {
			return u.variant(path)
		}
		return l.loadBase(path)
	}
	return l.gcImp.ImportFrom(path, dir, 0)
}

// variant returns the module package at path as the unit sees it: the base
// variant, or — when it reaches an overridden package — a copy type-checked
// against the override.
func (u *unitImporter) variant(path string) (*types.Package, error) {
	if p, ok := u.variants[path]; ok {
		return p, nil
	}
	reaches, err := u.reachesOverride(path)
	if err != nil || !reaches {
		return u.l.loadBase(path)
	}
	files, err := u.l.parseBase(path)
	if err != nil {
		return nil, err
	}
	conf := &types.Config{Importer: u, Error: func(error) {}}
	tpkg, err := conf.Check(path, u.l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s for a test: %v", path, err)
	}
	if u.variants == nil {
		u.variants = map[string]*types.Package{}
	}
	u.variants[path] = tpkg
	return tpkg, nil
}

// reachesOverride reports whether the module package at path imports an
// overridden package, directly or through other module packages.
func (u *unitImporter) reachesOverride(path string) (bool, error) {
	if r, ok := u.depends[path]; ok {
		return r, nil
	}
	if u.depends == nil {
		u.depends = map[string]bool{}
	}
	u.depends[path] = false // an import cycle reaches nothing new
	files, err := u.l.parseBase(path)
	if err != nil {
		return false, err
	}
	l := u.l
	for _, f := range files {
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if _, ok := u.override[ip]; ok {
				u.depends[path] = true
				return true, nil
			}
			if ip == l.modPath || strings.HasPrefix(ip, l.modPath+"/") {
				r, err := u.reachesOverride(ip)
				if err != nil {
					return false, err
				}
				if r {
					u.depends[path] = true
					return true, nil
				}
			}
		}
	}
	return false, nil
}

// ---- stdlib export data ----

// primeExports records export-data files for the module's whole transitive
// dependency set (tests included) in one `go list` invocation.
func (l *Loader) primeExports() error {
	return l.runGoList("-deps", "-test", "./...")
}

// lookupExport feeds the gc importer. Unknown paths fall back to an
// on-demand `go list -export` for that single package, so testdata stubs
// may import any stdlib package, not just ones the module already uses.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		if err := l.runGoList(path); err != nil {
			return nil, fmt.Errorf("analysis: resolving import %q: %v", path, err)
		}
		l.mu.Lock()
		file, ok = l.exports[path]
		l.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
	}
	return os.Open(file)
}

func (l *Loader) runGoList(args ...string) error {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-json=ImportPath,Export"}, args...)...)
	cmd.Dir = l.modRoot
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = string(ee.Stderr)
		}
		return fmt.Errorf("go list: %s", msg)
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("go list output: %v", err)
		}
		// Test variants render as "pkg [pkg.test]"; plain paths only.
		if p.Export != "" && !strings.ContainsAny(p.ImportPath, " [") {
			l.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}
