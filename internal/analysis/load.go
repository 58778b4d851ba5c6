package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the module under analysis: the
// parsed syntax plus the go/types facts the analyzers consume.
type Package struct {
	// Path is the full import path (module path + "/" + RelPath).
	Path string
	// RelPath is the import path relative to the module root ("" for the
	// root package). Analyzer applicability is decided on this.
	RelPath string
	// Dir is the absolute directory the files were read from.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is a fully loaded and type-checked module: every non-test package
// reachable by walking the module root, in deterministic (sorted) order.
type Module struct {
	Path     string // module path from go.mod
	Root     string // absolute directory containing go.mod
	Fset     *token.FileSet
	Packages []*Package

	byPath map[string]*Package
}

// FindModuleRoot walks upward from dir to the first directory containing a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// modulePath extracts the module path from a go.mod file without any
// dependency on golang.org/x/mod: the first "module <path>" line wins.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// skippedDir reports directories the loader never descends into: VCS state,
// vendored code, analyzer fixtures and underscore/dot-prefixed trees, the
// same set the go tool itself ignores.
func skippedDir(name string) bool {
	return name == "testdata" || name == "vendor" || name == ".git" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// parsedDir is one directory's worth of parsed, non-test Go files.
type parsedDir struct {
	relPath string
	dir     string
	files   []*ast.File
	imports map[string]bool // local (module-internal) imports only
}

// LoadModule parses and type-checks every non-test package under root using
// one worker per available CPU. Type checking is pure stdlib: module-internal
// imports resolve against the packages being loaded (in dependency order) and
// standard-library imports resolve through the source importer, so the loader
// works without compiled export data and without any third-party dependency.
func LoadModule(root string) (*Module, error) {
	return LoadModuleJobs(root, 0)
}

// LoadModuleJobs is LoadModule with an explicit parallelism degree (jobs <= 0
// means GOMAXPROCS). Parsing fans out per directory; type checking fans out
// in dependency waves — every package whose module-internal imports are
// already checked runs concurrently. The result is independent of jobs: the
// package list is sorted, positions are per-file, and diagnostics sort by
// position, which the jobs=1-vs-4 determinism test pins.
func LoadModuleJobs(root string, jobs int) (*Module, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	root, err := FindModuleRoot(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	// Phase 1: walk (serial, cheap) then parse every directory in parallel.
	// token.FileSet is safe for concurrent AddFile, and file positions are
	// per-file, so registration order cannot leak into diagnostics.
	var dirPaths []string
	walk := func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skippedDir(d.Name()) {
			return filepath.SkipDir
		}
		dirPaths = append(dirPaths, path)
		return nil
	}
	if err := filepath.WalkDir(root, walk); err != nil {
		return nil, err
	}
	parsed := make([]*parsedDir, len(dirPaths))
	parseErrs := make([]error, len(dirPaths))
	var wg sync.WaitGroup
	sem := make(chan struct{}, jobs)
	for i, path := range dirPaths {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, path string) {
			defer wg.Done()
			defer func() { <-sem }()
			parsed[i], parseErrs[i] = parseDir(fset, path, modPath)
		}(i, path)
	}
	wg.Wait()
	var dirs []*parsedDir
	for i, pd := range parsed {
		if parseErrs[i] != nil {
			return nil, parseErrs[i] // lowest directory wins: deterministic
		}
		if pd == nil {
			continue
		}
		rel, err := filepath.Rel(root, dirPaths[i])
		if err != nil {
			return nil, err
		}
		if rel == "." {
			rel = ""
		}
		pd.relPath = filepath.ToSlash(rel)
		dirs = append(dirs, pd)
	}

	ordered, err := topoSort(dirs, modPath)
	if err != nil {
		return nil, err
	}

	// Phase 2: type-check in dependency waves. One shared source importer
	// behind a mutex keeps stdlib types.Package identity unique (two
	// importers would each check their own "fmt", breaking cross-package
	// type identity); the module map is read under the same lock.
	m := &Module{Path: modPath, Root: root, Fset: fset, byPath: map[string]*Package{}}
	imp := &lockedImporter{inner: &moduleImporter{mod: m, std: importer.ForCompiler(fset, "source", nil)}}
	byRel := make(map[string]*parsedDir, len(ordered))
	for _, d := range ordered {
		byRel[d.relPath] = d
	}
	checked := make(map[string]bool, len(ordered))
	remaining := ordered
	for len(remaining) > 0 {
		var wave, rest []*parsedDir
		for _, d := range remaining {
			ready := true
			for p := range d.imports {
				rel := strings.TrimPrefix(strings.TrimPrefix(p, modPath), "/")
				if _, inModule := byRel[rel]; inModule && !checked[rel] {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, d)
			} else {
				rest = append(rest, d)
			}
		}
		if len(wave) == 0 {
			return nil, fmt.Errorf("import cycle among %d remaining packages", len(remaining))
		}
		pkgs := make([]*Package, len(wave))
		checkErrs := make([]error, len(wave))
		for i, pd := range wave {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, pd *parsedDir) {
				defer wg.Done()
				defer func() { <-sem }()
				pkgs[i], checkErrs[i] = m.check(pd, imp)
			}(i, pd)
		}
		wg.Wait()
		for i, err := range checkErrs {
			if err != nil {
				return nil, err
			}
			imp.mu.Lock()
			m.Packages = append(m.Packages, pkgs[i])
			m.byPath[pkgs[i].Path] = pkgs[i]
			imp.mu.Unlock()
			checked[wave[i].relPath] = true
		}
		remaining = rest
	}
	sort.Slice(m.Packages, func(i, j int) bool { return m.Packages[i].Path < m.Packages[j].Path })
	return m, nil
}

// lockedImporter serializes all imports: the source importer is not safe for
// concurrent use, and the module package map is written between waves.
type lockedImporter struct {
	mu    sync.Mutex
	inner types.Importer
}

func (li *lockedImporter) Import(path string) (*types.Package, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.inner.Import(path)
}

// parseDir parses the non-test Go files of one directory. It returns nil when
// the directory holds no Go files, and an error when it holds more than one
// package (the go tool would reject that layout too).
func parseDir(fset *token.FileSet, dir, modPath string) (*parsedDir, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pd := &parsedDir{dir: dir, imports: map[string]bool{}}
	pkgName := ""
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if pkgName != f.Name.Name {
			return nil, fmt.Errorf("%s: multiple packages %q and %q", dir, pkgName, f.Name.Name)
		}
		pd.files = append(pd.files, f)
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			if p == modPath || strings.HasPrefix(p, modPath+"/") {
				pd.imports[p] = true
			}
		}
	}
	if len(pd.files) == 0 {
		return nil, nil
	}
	return pd, nil
}

// topoSort orders directories so every module-internal import is checked
// before its importer.
func topoSort(dirs []*parsedDir, modPath string) ([]*parsedDir, error) {
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].relPath < dirs[j].relPath })
	byRel := make(map[string]*parsedDir, len(dirs))
	for _, d := range dirs {
		byRel[d.relPath] = d
	}
	var ordered []*parsedDir
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(d *parsedDir) error
	visit = func(d *parsedDir) error {
		switch state[d.relPath] {
		case 1:
			return fmt.Errorf("import cycle through %q", d.relPath)
		case 2:
			return nil
		}
		state[d.relPath] = 1
		deps := make([]string, 0, len(d.imports))
		for p := range d.imports {
			deps = append(deps, p)
		}
		sort.Strings(deps)
		for _, p := range deps {
			rel := strings.TrimPrefix(strings.TrimPrefix(p, modPath), "/")
			if dep, ok := byRel[rel]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[d.relPath] = 2
		ordered = append(ordered, d)
		return nil
	}
	for _, d := range dirs {
		if err := visit(d); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// check type-checks one parsed directory against the module's already-checked
// packages.
func (m *Module) check(pd *parsedDir, imp types.Importer) (*Package, error) {
	path := m.Path
	if pd.relPath != "" {
		path = m.Path + "/" + pd.relPath
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, m.Fset, pd.files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, errs[0])
	}
	return &Package{
		Path:    path,
		RelPath: pd.relPath,
		Dir:     pd.dir,
		Fset:    m.Fset,
		Files:   pd.files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// moduleImporter resolves module-internal imports from the in-progress load
// and everything else (the standard library) from source.
type moduleImporter struct {
	mod *Module
	std types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := mi.mod.byPath[path]; ok {
		return pkg.Types, nil
	}
	if path == mi.mod.Path || strings.HasPrefix(path, mi.mod.Path+"/") {
		return nil, fmt.Errorf("module package %s not yet loaded (import cycle?)", path)
	}
	return mi.std.Import(path)
}
