package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/haechi-qos/haechi/internal/lint/stdimport"
)

// Loader parses and type-checks packages using only the standard
// library: module-internal imports are resolved against packages the
// loader has already checked, standard-library imports go through the
// process's one source importer (see stdimport), which checks each
// standard-library package once however many loaders ask for it. No
// go/packages, no export data, no network.
type Loader struct {
	fset    *token.FileSet
	checked map[string]*types.Package
}

// NewLoader returns a loader with an empty package cache.
func NewLoader() *Loader {
	return &Loader{
		fset:    stdimport.Fset(),
		checked: make(map[string]*types.Package),
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom, consulting the loader's own
// cache before falling back to the standard-library source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if tp, ok := l.checked[path]; ok {
		return tp, nil
	}
	return stdimport.ImportFrom(path, dir, mode)
}

// ModulePath reads the module path from root/go.mod.
func ModulePath(root string) (string, error) {
	f, err := os.Open(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod.
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
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// LoadModule loads every package under root (the module root), skipping
// testdata, vendor, and hidden directories, and _test.go files. Packages
// are type-checked in dependency order; the result is sorted by
// module-relative path.
func (l *Loader) LoadModule(root string) ([]*Package, error) {
	modPath, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	dirs, err := discoverPackageDirs(root)
	if err != nil {
		return nil, err
	}

	pkgs := make(map[string]*Package, len(dirs)) // by rel
	for _, rel := range dirs {
		p, err := l.parseDir(root, rel, modPath)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs[rel] = p
		}
	}

	order, err := topoSort(pkgs, modPath)
	if err != nil {
		return nil, err
	}
	for _, p := range order {
		if err := l.check(p); err != nil {
			return nil, err
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Rel < order[j].Rel })
	return order, nil
}

func discoverPackageDirs(root string) ([]string, error) {
	var rels []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rels = append(rels, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(rels)
	return rels, nil
}

func (l *Loader) parseDir(root, rel, modPath string) (*Package, error) {
	importPath := modPath
	if rel != "." {
		importPath = modPath + "/" + rel
	}
	return l.parseFiles(filepath.Join(root, filepath.FromSlash(rel)), importPath, rel)
}

// parseFiles parses the non-test Go files in dir; it returns nil (no
// error) when the directory contains none.
func (l *Loader) parseFiles(dir, importPath, rel string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &Package{Path: importPath, Rel: rel, Fset: l.fset}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// Only the files the go command builds on this platform: a
		// package may split one function across build-constrained files.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if p.Name == "" {
			p.Name = f.Name.Name
		} else if p.Name != f.Name.Name {
			return nil, fmt.Errorf("lint: %s: mixed packages %s and %s", dir, p.Name, f.Name.Name)
		}
		p.Files = append(p.Files, f)
	}
	if len(p.Files) == 0 {
		return nil, nil
	}
	return p, nil
}

func (p *Package) imports() []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range p.Files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// topoSort orders packages so every module-internal dependency precedes
// its importers.
func topoSort(pkgs map[string]*Package, modPath string) ([]*Package, error) {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(pkgs))
	var order []*Package
	var visit func(p *Package, chain []string) error
	visit = func(p *Package, chain []string) error {
		switch state[p.Path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(chain, p.Path), " -> "))
		}
		state[p.Path] = visiting
		for _, imp := range p.imports() {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep, append(chain, p.Path)); err != nil {
					return err
				}
			} else if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
				return fmt.Errorf("lint: %s imports %s, which is not in the module tree", p.Path, imp)
			}
		}
		state[p.Path] = done
		order = append(order, p)
		return nil
	}
	rels := make([]string, 0, len(pkgs))
	for rel := range pkgs {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		if err := visit(pkgs[rel], nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// check type-checks p and registers it for import by later packages.
func (l *Loader) check(p *Package) error {
	conf := types.Config{Importer: l}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := conf.Check(p.Path, l.fset, p.Files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", p.Path, err)
	}
	p.Types = tpkg
	p.Info = info
	l.checked[p.Path] = tpkg
	return nil
}
