// Package driver loads Go packages and runs cuckoovet analyzers over them.
//
// It is the offline replacement for x/tools' go/packages + multichecker
// pair: packages are enumerated with `go list -deps -export -json` (which
// needs only the local build cache, never the network), standard-library
// dependencies are imported from their compiled export data, and every
// package of this module is type-checked from source into one shared
// go/types universe. The single universe is what lets analyzers attach
// facts to types.Object values in one package and observe them from
// another without serialization.
package driver

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
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cuckoohash/internal/analysis"
)

// listPackage is the subset of `go list -json` output the driver consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// Package is one type-checked package of the loaded program.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Program is a load result: the module's packages in dependency order,
// sharing one FileSet and one types universe.
type Program struct {
	Fset     *token.FileSet
	Sizes    types.Sizes
	Packages []*Package
}

// Load lists patterns in dir with the go command and type-checks every
// non-standard-library package from source. Standard-library imports are
// satisfied from compiled export data, so loading works without network
// access.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Standard,Export,GoFiles,Imports,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("driver: go list failed: %v\n%s", err, stderr.String())
	}

	// -deps emits packages in dependency order: imports before importers.
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("driver: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("driver: package %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, &p)
	}

	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		exports: make(map[string]string),
		std:     make(map[string]*types.Package),
		source:  make(map[string]*types.Package),
	}
	ld.gc = importer.ForCompiler(fset, "gc", ld.lookup)
	ld.listDir = dir

	prog := &Program{
		Fset:  fset,
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	for _, p := range pkgs {
		if p.Standard {
			ld.exports[p.ImportPath] = p.Export
			continue
		}
		pkg, err := ld.checkFromSource(p, prog.Sizes)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// loader resolves imports for the single shared types universe.
type loader struct {
	fset    *token.FileSet
	exports map[string]string // stdlib import path -> export data file
	std     map[string]*types.Package
	source  map[string]*types.Package // in-module, checked from source
	gc      types.Importer
	listDir string // directory for fallback go list invocations
}

// lookup feeds compiled export data to the gc importer.
func (ld *loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := ld.exports[path]
	if !ok || file == "" {
		// Not part of the original -deps closure (the test harness hits
		// this for testdata-only imports): ask the go command directly.
		out, err := listExport(ld.listDir, path)
		if err != nil {
			return nil, fmt.Errorf("driver: no export data for %q: %v", path, err)
		}
		ld.exports[path] = out
		file = out
	}
	return os.Open(file)
}

// Import implements types.Importer over the mixed universe.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ld.source[path]; ok {
		return p, nil
	}
	if p, ok := ld.std[path]; ok {
		return p, nil
	}
	p, err := ld.gc.Import(path)
	if err != nil {
		return nil, err
	}
	ld.std[path] = p
	return p, nil
}

// checkFromSource parses and type-checks one module package.
func (ld *loader) checkFromSource(p *listPackage, sizes types.Sizes) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("driver: parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: ld, Sizes: sizes}
	tpkg, err := conf.Check(p.ImportPath, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("driver: type-checking %s: %v", p.ImportPath, err)
	}
	ld.source[p.ImportPath] = tpkg
	return &Package{
		ImportPath: p.ImportPath,
		Dir:        p.Dir,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// LoadDirs parses and type-checks directory packages (ignoring _test.go
// files) into one shared universe, in order, resolving imports through
// compiled export data. It is the loader of the analysistest harness for
// testdata packages, which `go list ./...` deliberately does not
// enumerate. Each package is registered under its base name as import
// path, so a later directory may import an earlier one by that name —
// this is how testdata packages obtain a stand-in lock/seqlock/transaction
// provider type declared outside their own package (the analyzers exempt
// the provider's package, so a one-package test could not exercise them).
func LoadDirs(dirs ...string) (*Program, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("driver: LoadDirs needs at least one directory")
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		exports: make(map[string]string),
		std:     make(map[string]*types.Package),
		source:  make(map[string]*types.Package),
		listDir: dirs[0],
	}
	ld.gc = importer.ForCompiler(fset, "gc", ld.lookup)

	prog := &Program{
		Fset:  fset,
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		lp := &listPackage{ImportPath: filepath.Base(dir), Dir: dir}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			lp.GoFiles = append(lp.GoFiles, name)
		}
		sort.Strings(lp.GoFiles)
		pkg, err := ld.checkFromSource(lp, prog.Sizes)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// listExport resolves one import path to its export data file via the go
// command (local build cache only).
func listExport(dir, path string) (string, error) {
	cmd := exec.Command("go", "list", "-export", "-json=ImportPath,Export", "--", path)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", err
	}
	var p listPackage
	if err := json.Unmarshal(out, &p); err != nil {
		return "", err
	}
	if p.Export == "" {
		return "", fmt.Errorf("no export data")
	}
	return p.Export, nil
}

// A Finding is one diagnostic after suppression processing, ready to print.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Message)
}

// Run executes the analyzers (plus their transitive requirements, in
// dependency order) over every package of prog, applies the
// //lint:allow cuckoovet:<name> suppression directives, and returns the
// surviving findings sorted by position.
func Run(prog *Program, analyzers []*analysis.Analyzer) ([]Finding, error) {
	findings, _, err := RunChecks(prog, analyzers, nil)
	return findings, err
}

// AnalyzerTime is one analyzer's wall time accumulated across every
// package of the load (plus its End hook, if any).
type AnalyzerTime struct {
	Name    string
	Elapsed time.Duration
}

// RunChecks is Run with two extras for the multichecker front end:
// knownChecks names every check the tool as a whole registers — so that
// when a -checks subset runs, an allow directive for an unselected check
// is neither misreported as "unknown check" nor as "suppresses nothing"
// (nil means the selected analyzers are the full registry) — and the
// returned AnalyzerTime slice reports per-analyzer wall time in run
// order.
func RunChecks(prog *Program, analyzers []*analysis.Analyzer, knownChecks []string) ([]Finding, []AnalyzerTime, error) {
	order, err := expand(analyzers)
	if err != nil {
		return nil, nil, err
	}
	facts := analysis.NewFactStore()
	var diags []analysis.Diagnostic
	report := func(d analysis.Diagnostic) { diags = append(diags, d) }
	elapsed := make(map[*analysis.Analyzer]time.Duration, len(order))
	for _, pkg := range prog.Packages {
		results := make(map[*analysis.Analyzer]any)
		for _, a := range order {
			pass := analysis.NewPass(a, prog.Fset, pkg.Files, pkg.Types, pkg.Info, prog.Sizes, results, facts, report)
			start := time.Now()
			res, err := a.Run(pass)
			elapsed[a] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("driver: %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
			results[a] = res
		}
	}
	// Whole-program End hooks: every package's summaries and facts are in
	// the store, so root-to-leaf walks and interface resolution see the
	// complete universe. The pass is bound to the last module package.
	if len(prog.Packages) > 0 {
		last := prog.Packages[len(prog.Packages)-1]
		for _, a := range order {
			if a.End == nil {
				continue
			}
			pass := analysis.NewPass(a, prog.Fset, last.Files, last.Types, last.Info, prog.Sizes, map[*analysis.Analyzer]any{}, facts, report)
			start := time.Now()
			err := a.End(pass)
			elapsed[a] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("driver: %s (end): %v", a.Name, err)
			}
		}
	}
	ran := make(map[string]bool, len(order))
	times := make([]AnalyzerTime, 0, len(order))
	for _, a := range order {
		ran[a.Name] = true
		times = append(times, AnalyzerTime{Name: a.Name, Elapsed: elapsed[a]})
	}
	known := ran
	if knownChecks != nil {
		known = make(map[string]bool, len(knownChecks))
		for _, name := range knownChecks {
			known[name] = true
		}
		for name := range ran {
			known[name] = true
		}
	}
	return applyAllows(prog, known, ran, diags), times, nil
}

// expand returns analyzers plus requirements in topological order.
func expand(roots []*analysis.Analyzer) ([]*analysis.Analyzer, error) {
	var order []*analysis.Analyzer
	seen := make(map[*analysis.Analyzer]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(a *analysis.Analyzer) error
	visit = func(a *analysis.Analyzer) error {
		switch seen[a] {
		case 1:
			return fmt.Errorf("driver: analyzer requirement cycle at %s", a.Name)
		case 2:
			return nil
		}
		seen[a] = 1
		for _, req := range a.Requires {
			if err := visit(req); err != nil {
				return err
			}
		}
		seen[a] = 2
		order = append(order, a)
		return nil
	}
	for _, a := range roots {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	pos    token.Position
	check  string
	reason string
	used   bool
}

const allowPrefix = "//lint:allow cuckoovet:"

// applyAllows filters diagnostics through the suppression directives and
// appends the driver's own findings about the directives themselves
// (unknown check names, missing reasons, unused allows) under the
// pseudo-check "allowcheck". known holds every registered check name;
// ran holds the checks that executed this run — a directive is judged
// stale only against checks that actually produced diagnostics to
// suppress.
func applyAllows(prog *Program, known, ran map[string]bool, diags []analysis.Diagnostic) []Finding {
	// directives indexed by file name and the line they govern.
	type key struct {
		file  string
		line  int
		check string
	}
	directives := make(map[key]*allowDirective)
	var all []*allowDirective
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, allowPrefix) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, allowPrefix)
					name, reason, _ := strings.Cut(rest, " ")
					pos := prog.Fset.Position(c.Pos())
					d := &allowDirective{pos: pos, check: name, reason: strings.TrimSpace(reason)}
					all = append(all, d)
					// A directive governs its own line (end-of-line form)
					// and the line below (own-line form).
					directives[key{pos.Filename, pos.Line, name}] = d
					directives[key{pos.Filename, pos.Line + 1, name}] = d
				}
			}
		}
	}

	var out []Finding
	for _, diag := range diags {
		pos := prog.Fset.Position(diag.Pos)
		if d, ok := directives[key{pos.Filename, pos.Line, diag.Category}]; ok && d.reason != "" {
			d.used = true
			continue
		}
		out = append(out, Finding{Pos: pos, Check: diag.Category, Message: diag.Message})
	}
	for _, d := range all {
		switch {
		case !known[d.check]:
			out = append(out, Finding{Pos: d.pos, Check: "allowcheck",
				Message: fmt.Sprintf("allow directive names unknown check %q", d.check)})
		case d.reason == "":
			out = append(out, Finding{Pos: d.pos, Check: "allowcheck",
				Message: fmt.Sprintf("allow directive for cuckoovet:%s must carry a reason (\"//lint:allow cuckoovet:%s why it is safe\")", d.check, d.check)})
		case !ran[d.check]:
			// The check exists but was excluded from this run (-checks
			// subset): no diagnostics were produced for it, so staleness
			// cannot be judged.
		case !d.used:
			out = append(out, Finding{Pos: d.pos, Check: "allowcheck",
				Message: fmt.Sprintf("allow directive for cuckoovet:%s suppresses nothing; delete it", d.check)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}
