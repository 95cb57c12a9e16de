package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit every analyzer
// operates on.
type Package struct {
	// Path is the package's import path.
	Path string
	// Files are the parsed non-test sources, comments included, each
	// named relative to the module root.
	Files []*ast.File
	// Pkg and Info are the go/types views of the package.
	Pkg  *types.Package
	Info *types.Info
}

// Loader parses and type-checks the packages of one module and of the
// modules nested in its tree. The go tool decides what a package is:
// `go list -export -deps -json` names each package's files for this
// platform (build constraints applied, tests and testdata left out) and
// the compiler's export data for every dependency, the standard library
// included, which the "gc" importer reads instead of re-checking source.
type Loader struct {
	Fset   *token.FileSet
	Root   string // absolute directory of the module
	Module string // module path
}

// NewLoader prepares a loader for the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	out, err := goList(dir, "-m", "-json")
	if err != nil {
		return nil, err
	}
	var m struct{ Path, Dir string }
	if err := json.Unmarshal(out, &m); err != nil {
		return nil, fmt.Errorf("lint: reading go list -m: %w", err)
	}
	return &Loader{Fset: token.NewFileSet(), Root: m.Dir, Module: m.Path}, nil
}

// listedPackage is the part of a `go list -json` record the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Match      []string // the patterns that named it
}

// Load resolves patterns ("./...", "dir/...", or package directories,
// all relative to the module root; none means "./...") and returns the
// parsed, type-checked packages sorted by import path. A directory with
// only test files is skipped under "...", and refused when named.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	mods, pats, err := l.assign(patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var listed []listedPackage
	for i, dir := range mods {
		if len(pats[i]) == 0 {
			continue
		}
		out, err := goList(dir, append([]string{"-export", "-deps", "-json"}, pats[i]...)...)
		if err != nil {
			return nil, err
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listedPackage
			if err := dec.Decode(&p); err != nil {
				return nil, fmt.Errorf("lint: reading go list output: %w", err)
			}
			exports[p.ImportPath] = p.Export
			switch {
			case p.DepOnly:
			case len(p.GoFiles) > 0:
				listed = append(listed, p)
			case !strings.Contains(strings.Join(p.Match, " "), "..."):
				return nil, fmt.Errorf("lint: no non-test Go files in %s", p.Dir)
			}
		}
	}
	imp := importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	pkgs := make([]*Package, 0, len(listed))
	for _, p := range listed {
		pkg, err := l.check(p, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// check parses and type-checks one listed package.
func (l *Loader) check(p listedPackage, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := filepath.Join(p.Dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		rel, err := filepath.Rel(l.Root, path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, rel, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(p.ImportPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", p.ImportPath, err)
	}
	return &Package{Path: p.ImportPath, Files: files, Pkg: pkg, Info: info}, nil
}

// assign finds the modules under the root and gives each the patterns
// it must list, rewritten relative to its directory. A pattern belongs
// to the innermost module holding its directory; one ending in "/..."
// also covers every module nested below that directory, which `go list`
// alone would not enter.
func (l *Loader) assign(patterns []string) (mods []string, pats [][]string, err error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if mods, err = moduleDirs(l.Root); err != nil {
		return nil, nil, err
	}
	pats = make([][]string, len(mods))
	for _, pat := range patterns {
		abs := pat
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(l.Root, pat)
		}
		base, tree := strings.CutSuffix(abs, string(filepath.Separator)+"...")
		owner := 0 // the root, first in walk order
		for i, m := range mods {
			if within(base, m) {
				owner = i
			} else if tree && within(m, base) {
				pats[i] = append(pats[i], "./...")
			}
		}
		rel, err := filepath.Rel(mods[owner], abs)
		if err != nil {
			return nil, nil, err
		}
		pats[owner] = append(pats[owner], "./"+filepath.ToSlash(rel))
	}
	return mods, pats, nil
}

// wholeTree reports whether patterns name the module's whole tree, as
// "./..." or no pattern at all does.
func (l *Loader) wholeTree(patterns []string) bool {
	for _, pat := range patterns {
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.Root, pat)
		}
		if pat == filepath.Join(l.Root, "...") {
			return true
		}
	}
	return len(patterns) == 0
}

// moduleDirs returns root and every directory below it holding a
// go.mod, skipping the trees the go tool ignores.
func moduleDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// within reports whether path is dir or lies below it.
func within(path, dir string) bool {
	return path == dir || strings.HasPrefix(path, dir+string(filepath.Separator))
}

// goList runs `go list args...` in dir and returns its standard output;
// a failure carries the go tool's own diagnostics, compile errors
// included.
func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %w\n%s", strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return out, nil
}
