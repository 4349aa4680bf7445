package mptcpsim_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mptcpsim/internal/faults"
)

// TestPackageComments gates the documentation pass: every package in the
// module must carry a real package comment ("Package <name> ..." for
// libraries, "Command <name> ..." for binaries), so godoc renders a
// description for each and a new package cannot land undocumented.
func TestPackageComments(t *testing.T) {
	var dirs []string
	for _, root := range []string{".", "internal", "cmd", "examples"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatalf("reading %s: %v", root, err)
		}
		if root == "." {
			dirs = append(dirs, ".")
			continue
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, filepath.Join(root, e.Name()))
			}
		}
	}

	fset := token.NewFileSet()
	for _, dir := range dirs {
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var sources []string
		for _, m := range matches {
			if !strings.HasSuffix(m, "_test.go") {
				sources = append(sources, m)
			}
		}
		if len(sources) == 0 {
			continue // no buildable package here (e.g. testdata-only dir)
		}
		var doc, pkgName string
		for _, src := range sources {
			f, err := parser.ParseFile(fset, src, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", src, err)
			}
			pkgName = f.Name.Name
			if f.Doc != nil {
				doc = f.Doc.Text()
				break
			}
		}
		if doc == "" {
			t.Errorf("%s: package %s has no package comment on any file", dir, pkgName)
			continue
		}
		want := "Package " + pkgName + " "
		if pkgName == "main" {
			want = "Command "
		}
		if !strings.HasPrefix(doc, want) {
			t.Errorf("%s: package comment starts %q, want %q", dir, firstLine(doc), want)
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// goPackageDirs returns every directory under the roots that holds a
// buildable (non-test) Go file, skipping testdata.
func goPackageDirs(t *testing.T, roots ...string) []string {
	t.Helper()
	var dirs []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			ents, err := os.ReadDir(path)
			if err != nil {
				return err
			}
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
					dirs = append(dirs, filepath.ToSlash(path))
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(dirs)
	return dirs
}

// TestSupervisionLivesInOnePlace keeps supervision and fan-out from growing
// second copies: outside internal/runner (supervise.Map's pool) and
// internal/supervise (the one fan-out, the retry loop, the classifier, the
// process boundary) no non-test code imports internal/runner, recovers a
// panic, sleeps on the wall clock, exits the process or builds an exit-code
// error by hand. The exceptions are the two main functions, which exit with
// supervise.ExitCode, and the chaos spin failpoint, whose job is to hang.
// benchmark/ is frozen and stands outside.
func TestSupervisionLivesInOnePlace(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range goPackageDirs(t, "internal", "cmd", "examples") {
		owner := dir == "internal/runner" || dir == "internal/supervise"
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatalf("parsing %s: %v", file, err)
			}
			file = filepath.ToSlash(file)
			for _, imp := range f.Imports {
				if imp.Path.Value == `"mptcpsim/internal/runner"` && !owner {
					t.Errorf("%s: imports internal/runner — fan out with supervise.Map (a nil Supervisor is fail-fast)", fset.Position(imp.Pos()))
				}
			}
			for _, decl := range f.Decls {
				fn, _ := decl.(*ast.FuncDecl)
				inMain := fn != nil && fn.Name.Name == "main" && fn.Recv == nil && strings.HasPrefix(dir, "cmd/")
				ast.Inspect(decl, func(n ast.Node) bool {
					var what string
					switch n := n.(type) {
					case *ast.CallExpr:
						switch fun := n.Fun.(type) {
						case *ast.Ident:
							if fun.Name == "recover" && !owner {
								what = "recover() — run it under internal/supervise instead"
							}
						case *ast.SelectorExpr:
							pkg, _ := fun.X.(*ast.Ident)
							switch {
							case pkg == nil:
							case pkg.Name == "time" && fun.Sel.Name == "Sleep" && file != "internal/chaos/scenario.go":
								what = "time.Sleep — a wait belongs to Supervisor.Run, which a cancellation can cut short"
							case pkg.Name == "os" && fun.Sel.Name == "Exit" && !inMain:
								what = "os.Exit — return an error; main exits with supervise.ExitCode"
							}
						}
					case *ast.CompositeLit:
						typ := n.Type
						if sel, ok := typ.(*ast.SelectorExpr); ok {
							typ = sel.Sel
						}
						if id, ok := typ.(*ast.Ident); ok && id.Name == "ExitCodeError" && dir != "internal/supervise" {
							what = "an ExitCodeError literal — use supervise.QuarantinedErr or supervise.InterruptedErr"
						}
					}
					if what != "" {
						t.Errorf("%s: %s", fset.Position(n.Pos()), what)
					}
					return true
				})
			}
		}
	}
}

// TestRunsRunInOnePlace keeps a run assembled and run in one place,
// backend.Run: no non-test code outside internal/backend calls backend.Wire
// or obsv.NewObserver, inside it only Run calls Wire, and the one
// NewObserver call is followed by its error check and then
// "defer obs.Abort()", so a run that panics or fails still leaves a record
// that parses. benchmark/ is frozen and stands outside.
func TestRunsRunInOnePlace(t *testing.T) {
	fset := token.NewFileSet()
	observers := 0
	for _, dir := range goPackageDirs(t, "internal", "cmd", "examples") {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatalf("parsing %s: %v", file, err)
			}
			for _, decl := range f.Decls {
				fn, _ := decl.(*ast.FuncDecl)
				ast.Inspect(decl, func(n ast.Node) bool {
					if block, ok := n.(*ast.BlockStmt); ok {
						for i, stmt := range block.List {
							if obs := newObserverResult(stmt); obs != "" {
								observers++
								if dir != "internal/backend" {
									t.Errorf("%s: obsv.NewObserver outside backend.Run", fset.Position(stmt.Pos()))
								} else if !defersAbort(block.List[i+1:], obs) {
									t.Errorf("%s: obsv.NewObserver not followed by its error check and defer %s.Abort()", fset.Position(stmt.Pos()), obs)
								}
							}
						}
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					switch fun := call.Fun.(type) {
					case *ast.SelectorExpr:
						if pkg, ok := fun.X.(*ast.Ident); ok && pkg.Name == "backend" && fun.Sel.Name == "Wire" {
							t.Errorf("%s: backend.Wire outside backend.Run", fset.Position(call.Pos()))
						}
					case *ast.Ident:
						if dir == "internal/backend" && fun.Name == "Wire" && (fn == nil || fn.Name.Name != "Run") {
							t.Errorf("%s: Wire called outside Run", fset.Position(call.Pos()))
						}
					}
					return true
				})
			}
		}
	}
	if observers != 1 {
		t.Errorf("found %d obsv.NewObserver calls, want the one in backend.Run", observers)
	}
}

// newObserverResult returns the variable stmt assigns obsv.NewObserver's
// observer to ("" when stmt is no such call; "_" when it drops it).
func newObserverResult(stmt ast.Stmt) string {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 {
		return ""
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewObserver" {
		return ""
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "obsv" {
		return ""
	}
	if id, ok := as.Lhs[0].(*ast.Ident); ok {
		return id.Name
	}
	return "_"
}

// defersAbort reports whether rest opens with an if statement (the error
// check) and then "defer obs.Abort()".
func defersAbort(rest []ast.Stmt, obs string) bool {
	if len(rest) < 2 {
		return false
	}
	if _, ok := rest[0].(*ast.IfStmt); !ok {
		return false
	}
	d, ok := rest[1].(*ast.DeferStmt)
	if !ok {
		return false
	}
	sel, ok := d.Call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Abort" || len(d.Call.Args) != 0 {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == obs
}

// TestAlgorithmHooksLiveInTcp keeps the transport the only place an algorithm
// hears from: outside internal/core and internal/tcp no non-test code calls
// OnAck, OnRound or OnPath, or type-asserts a value to AckObserver,
// RoundTuner or PathObserver. benchmark/ is frozen and stands outside.
func TestAlgorithmHooksLiveInTcp(t *testing.T) {
	hooks := map[string]bool{"OnAck": true, "OnRound": true, "OnPath": true}
	observers := map[string]bool{"AckObserver": true, "RoundTuner": true, "PathObserver": true}
	isObserver := func(e ast.Expr) bool {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			e = sel.Sel
		}
		id, ok := e.(*ast.Ident)
		return ok && observers[id.Name]
	}
	fset := token.NewFileSet()
	for _, dir := range goPackageDirs(t, "internal", "cmd", "examples") {
		if dir == "internal/core" || dir == "internal/tcp" {
			continue
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatalf("parsing %s: %v", file, err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var what string
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && hooks[sel.Sel.Name] {
						what = "a call to " + sel.Sel.Name
					}
				case *ast.TypeAssertExpr:
					if n.Type != nil && isObserver(n.Type) {
						what = "a type assertion to an algorithm hook interface"
					}
				case *ast.TypeSwitchStmt:
					for _, c := range n.Body.List {
						for _, typ := range c.(*ast.CaseClause).List {
							if isObserver(typ) {
								what = "a type switch on an algorithm hook interface"
							}
						}
					}
				}
				if what != "" {
					t.Errorf("%s: %s — the transport (internal/tcp) alone drives an algorithm's hooks", fset.Position(n.Pos()), what)
				}
				return true
			})
		}
	}
}

// selfSchedulers lists the functions TestPeriodicWorkUsesTicker lets schedule
// themselves, each with the reason neither sim.Ticker nor sim.Deadline can
// carry it.
var selfSchedulers = map[string]string{
	"internal/flows.streamChunk": "its flowSlot lives in a slice append may move, so it cannot be queued by address",
}

// TestPeriodicWorkUsesTicker keeps the hand-rolled tick loops sim.Ticker and
// sim.Deadline replaced from growing back: outside internal/sim no non-test
// function hands itself to Schedule, ScheduleAfter, At or After — by its own
// name, as a method value, through the <name>Fn field that holds it, or
// wrapped in a literal that calls it. benchmark/ is frozen and stands outside.
func TestPeriodicWorkUsesTicker(t *testing.T) {
	fset := token.NewFileSet()
	found := map[string]bool{}
	for _, dir := range goPackageDirs(t, "internal", "cmd", "examples") {
		if dir == "internal/sim" {
			continue
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatalf("parsing %s: %v", file, err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				for _, s := range selfScheduling(fn) {
					key := dir + "." + s.name
					if _, ok := selfSchedulers[key]; ok {
						found[key] = true
						continue
					}
					t.Errorf("%s: %s schedules itself — periodic work goes through sim.Ticker, a moving deadline through sim.Deadline", fset.Position(s.pos), s.name)
				}
			}
		}
	}
	for key := range selfSchedulers {
		if !found[key] {
			t.Errorf("selfSchedulers allows %s, which no longer schedules itself: drop the entry", key)
		}
	}
}

type selfScheduler struct {
	name string
	pos  token.Pos
}

// selfScheduling returns fn, and every function literal bound to a variable
// inside it, that passes itself to one of the engine's scheduling calls.
func selfScheduling(fn *ast.FuncDecl) []selfScheduler {
	// Literals bound to a name: tick = func() {…}, tick := func() {…}.
	litName := map[*ast.FuncLit]string{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				id, isID := as.Lhs[i].(*ast.Ident)
				if lit, isLit := rhs.(*ast.FuncLit); isID && isLit {
					litName[lit] = id.Name
				}
			}
		}
		return true
	})
	recv := "" // selectors count only on the method's own receiver
	if fn.Recv != nil && len(fn.Recv.List[0].Names) == 1 {
		recv = fn.Recv.List[0].Names[0].Name
	}
	// A scope is one enclosing function: fn itself or a named literal.
	type scope struct {
		name string
		body ast.Node
	}
	// self returns the enclosing function that e names, or is a literal that
	// calls.
	var self func(e ast.Expr, in []scope) *scope
	self = func(e ast.Expr, in []scope) *scope {
		switch e := e.(type) {
		case *ast.Ident:
			for i := range in {
				if e.Name == in[i].name || e.Name == in[i].name+"Fn" {
					return &in[i]
				}
			}
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok && x.Name == recv {
				return self(e.Sel, in)
			}
		case *ast.FuncLit:
			var hit *scope
			ast.Inspect(e.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && hit == nil {
					hit = self(call.Fun, in)
				}
				return hit == nil
			})
			return hit
		}
		return nil
	}
	var out []selfScheduler
	seen := map[ast.Node]bool{}
	var walk func(in []scope)
	walk = func(in []scope) {
		body := in[len(in)-1].body
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if name, ok := litName[n]; ok && n != body {
					walk(append(in[:len(in):len(in)], scope{name, n}))
					return false
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || len(n.Args) < 2 {
					break
				}
				switch sel.Sel.Name {
				case "Schedule", "ScheduleAfter", "At", "After":
					if s := self(n.Args[len(n.Args)-1], in); s != nil && !seen[s.body] {
						seen[s.body] = true
						out = append(out, selfScheduler{s.name, n.Pos()})
					}
				}
			}
			return true
		})
	}
	walk([]scope{{fn.Name.Name, fn.Body}})
	return out
}

// TestPackageMapCoversEveryPackage pins the README architecture block and
// the ARCHITECTURE.md package map to the package tree: every internal
// package and every command must be listed in both, so a new package
// cannot ship without its one-line role in the prose.
func TestPackageMapCoversEveryPackage(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range goPackageDirs(t, "internal", "cmd") {
		var wantReadme, wantArch string
		if strings.HasPrefix(dir, "cmd/") {
			wantReadme, wantArch = dir, "`"+dir+"`"
		} else {
			name := strings.TrimPrefix(dir, "internal/")
			// README lists bare names at two-space indent in the
			// architecture block; ARCHITECTURE uses the full path in code
			// font.
			wantReadme, wantArch = "\n  "+name+" ", "`internal/"+name+"`"
		}
		if !strings.Contains(string(readme), wantReadme) {
			t.Errorf("README.md architecture block does not list %s (looked for %q)", dir, wantReadme)
		}
		if !strings.Contains(string(arch), wantArch) {
			t.Errorf("ARCHITECTURE.md package map does not list %s (looked for %q)", dir, wantArch)
		}
	}
}

// cliFlags extracts the flag names a command file registers: any call
// shaped like <recv>.String("name", ...) (or Bool / Int / Int64 / Uint64 /
// Float64 / Duration) with a string-literal first argument. Matching on
// the method name alone covers both the flag.FlagSet style (mptcp-bench,
// mptcp-sim) and the package-level flag style.
func cliFlags(t *testing.T, file string) (names []string, doc string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if f.Doc != nil {
		doc = f.Doc.Text()
	}
	kinds := map[string]bool{
		"String": true, "Bool": true, "Int": true, "Int64": true,
		"Uint64": true, "Float64": true, "Duration": true,
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !kinds[sel.Sel.Name] || len(call.Args) < 3 {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if name, err := strconv.Unquote(lit.Value); err == nil && name != "" {
			names = append(names, name)
		}
		return true
	})
	sort.Strings(names)
	return names, doc
}

// TestCLIFlagsDocumented requires every flag a command registers to be
// mentioned as "-name" in that command's package comment — the text godoc
// and the README point at. A flag added without prose fails here. So does
// a -fault directive: each one the grammar accepts (faults.Directives) must
// be written as "kind@" in mptcp-sim's package comment and in the README.
func TestCLIFlagsDocumented(t *testing.T) {
	_, simDoc := cliFlags(t, "cmd/mptcp-sim/main.go")
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range faults.Directives {
		if !strings.Contains(simDoc, kind+"@") || !strings.Contains(string(readme), kind+"@") {
			t.Errorf("-fault directive %s@ is not described in both cmd/mptcp-sim's package comment and README.md", kind)
		}
	}

	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no cmd/*/main.go files found")
	}
	for _, file := range mains {
		names, doc := cliFlags(t, file)
		if len(names) == 0 {
			t.Errorf("%s: found no flag registrations; the extractor or the command is broken", file)
			continue
		}
		for _, name := range names {
			// Word-boundary match so -j is not satisfied by -json.
			re := regexp.MustCompile(`-` + regexp.QuoteMeta(name) + `\b`)
			if !re.MatchString(doc) {
				t.Errorf("%s: flag -%s is not mentioned in the package comment", file, name)
			}
		}
	}
}

var (
	// mdLinkRe matches markdown link targets: ](target).
	mdLinkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	// mdFileRefRe matches backticked repo-file references like
	// `docs/backends.md` — the cross-linking style these docs mostly use.
	mdFileRefRe = regexp.MustCompile("`([A-Za-z0-9_\\-./]+\\.(?:md|go|mod|json|txt|sh|ya?ml))`")
)

// TestMarkdownFileReferencesResolve checks every relative link and
// backticked file path in the core docs against the tree, so renaming or
// deleting a file flags the prose that still points at it. Planning docs
// (ROADMAP, PAPERS, SNIPPETS, CHANGES, ISSUE) reference external material
// and are deliberately out of scope.
func TestMarkdownFileReferencesResolve(t *testing.T) {
	docs := []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md"}
	extra, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, extra...)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var targets []string
		for _, m := range mdLinkRe.FindAllStringSubmatch(string(data), -1) {
			targets = append(targets, m[1])
		}
		for _, m := range mdFileRefRe.FindAllStringSubmatch(string(data), -1) {
			targets = append(targets, m[1])
		}
		for _, target := range targets {
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			// Templated or wildcard paths name generated artifacts
			// (campaign dirs, trace files), not checked-in sources.
			if strings.ContainsAny(target, "*<>$") || strings.HasPrefix(target, "/") {
				continue
			}
			// Bare filenames without a path separator are usually runtime
			// artifacts (results.txt, campaign.json) or files discussed in
			// the context of their package; only path-qualified references
			// are held to existence.
			if !strings.Contains(target, "/") {
				continue
			}
			if !fileExistsAt(doc, target) {
				t.Errorf("%s references %q, which exists neither relative to the doc nor to the repo root", doc, target)
			}
		}
	}
}

// fileExistsAt resolves target against the referencing doc's directory,
// then against the repo root.
func fileExistsAt(doc, target string) bool {
	for _, base := range []string{filepath.Dir(doc), "."} {
		if _, err := os.Stat(filepath.Join(base, target)); err == nil {
			return true
		}
	}
	return false
}

// typedPkg is one non-test package of the module, parsed and type-checked.
type typedPkg struct {
	dir   string
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
}

// moduleImporter type-checks the module's packages from source, each once,
// and the standard library through the source importer.
type moduleImporter struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path -> directory
	pkgs map[string]*types.Package
	typd map[string]*typedPkg
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.Import(path)
	}
	if pkg := m.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	tp := &typedPkg{dir: dir, fset: m.fset, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		tp.files = append(tp.files, f)
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, tp.files, tp.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.typd[path] = pkg, tp
	return pkg, nil
}

var (
	typedOnce sync.Once
	typed     map[string]*typedPkg // by directory
	typedErr  error
)

// typedModule type-checks every non-test package of the module once per
// test binary and returns them by directory.
func typedModule(t *testing.T) map[string]*typedPkg {
	t.Helper()
	typedOnce.Do(func() {
		fset := token.NewFileSet()
		m := &moduleImporter{
			fset: fset, std: importer.ForCompiler(fset, "source", nil),
			dirs: map[string]string{}, pkgs: map[string]*types.Package{}, typd: map[string]*typedPkg{},
		}
		dirs := goPackageDirs(t, "internal", "cmd", "examples", "benchmark")
		for _, dir := range dirs {
			m.dirs["mptcpsim/"+dir] = dir
		}
		for _, dir := range dirs {
			if _, typedErr = m.Import("mptcpsim/" + dir); typedErr != nil {
				return
			}
		}
		typed = map[string]*typedPkg{}
		for _, tp := range m.typd {
			typed[tp.dir] = tp
		}
	})
	if typedErr != nil {
		t.Fatal(typedErr)
	}
	return typed
}

// exportedWithoutCallers lists the exported functions and methods under
// internal/ that no non-test code calls yet, each with the reason it stays.
var exportedWithoutCallers = map[string]string{
	"check.Invariants.WatchLinks":  "per-link conservation for links no watched path crosses; ROADMAP item 4(c) wires it",
	"core.FriendlyThroughputBound": "the closed-form friendliness bound; ROADMAP item 10(b) checks the packet stack against it",
	"fluid.System.Equilibrium":     "the RK4 reference the Newton solve is held to; ROADMAP item 11 calls it",

	// Test surface other packages' tests drive.
	"pathsel.Selector.Stop":       "the owner contract TestStoppedOwnersOwnNoEvents holds every ticker owner to",
	"pathsel.Selector.Decisions":  "the tick count TestStoppedOwnersOwnNoEvents reads",
	"workload.CBR.Stop":           "the owner contract TestStoppedOwnersOwnNoEvents holds every ticker owner to",
	"workload.ParetoOnOff.Stop":   "the owner contract TestStoppedOwnersOwnNoEvents holds every ticker owner to",
	"workload.ParetoOnOff.Active": "the mid-burst state TestStoppedOwnersOwnNoEvents stops a source in",
	"workload.source.Sent":        "the tick count TestStoppedOwnersOwnNoEvents reads",
	"topo.FatTree.Links":          "flows' pinned-population test reads every fabric link's counters",
	"netem.Link.Down":             "the link state faults' tests assert a schedule left",
	"netem.Link.LossProb":         "the loss state faults' tests assert a schedule left",
	"netem.NewPacket":             "tcp's tests hand-build packets to feed a subflow",
	"netem.Pool.FreeLen":          "tcp's tests check a subflow recycles its packets",
	"sim.Engine.Drain":            "netem's tests run an engine to quiescence",
	"core.MustNew":                "the algorithm constructor seven packages' tests share",
	"obsv.ParseRecord":            "the record reader exp's golden-record tests parse with",
}

// implicitMethods are called by the standard library through interfaces
// the module never names: fmt, errors, encoding/json and sort.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Len": true, "Less": true, "Swap": true,
}

// TestExportedFuncsHaveCallers keeps the exported surface honest: an
// exported function or method under internal/ needs a caller outside the
// tests — the commands, the examples, the benchmark or another package —
// or an entry in exportedWithoutCallers saying why it waits. A method
// counts as called when code calls it, or calls an interface method of its
// name.
func TestExportedFuncsHaveCallers(t *testing.T) {
	pkgs := typedModule(t)
	used := map[*types.Func]bool{}
	viaInterface := map[string]bool{}
	for _, tp := range pkgs {
		for _, obj := range tp.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			used[fn.Origin()] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				viaInterface[fn.Name()] = true
			}
		}
	}
	seen := map[string]bool{}
	for dir, tp := range pkgs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range tp.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				name := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					switch ix := recv.(type) {
					case *ast.IndexExpr:
						recv = ix.X
					case *ast.IndexListExpr:
						recv = ix.X
					}
					name = f.Name.Name + "." + recv.(*ast.Ident).Name + "." + fd.Name.Name
					if viaInterface[fd.Name.Name] || implicitMethods[fd.Name.Name] {
						continue
					}
				}
				seen[name] = true
				fn := tp.info.Defs[fd.Name].(*types.Func)
				if _, allowed := exportedWithoutCallers[name]; !used[fn] && !allowed {
					t.Errorf("%s (%s) has no caller outside the tests: use it, delete it, move it into a _test.go file, or add it to exportedWithoutCallers with a reason", name, dir)
				}
			}
		}
	}
	for name := range exportedWithoutCallers {
		if !seen[name] {
			t.Errorf("exportedWithoutCallers lists %s, which is gone or now called through an interface: drop the entry", name)
		}
	}
}

// fieldsWithoutWriters lists the exported fields of internal/'s
// *Config/*Spec/*Options/*Params structs that no non-test code sets, each
// with the reason the field stays a knob instead of a constant.
var fieldsWithoutWriters = map[string]string{
	// Test seams.
	"campaign.Options.Exec":       "tests run units through a stub instead of the experiment registry",
	"campaign.Options.OnUnitDone": "tests interrupt a campaign at a chosen journal line",

	// Sizes tests shrink to stay fast.
	"backend.SweepSpec.Horizon": "sweep tests run 6 s points instead of the 60 s default",
	"backend.SweepSpec.Warmup":  "sweep tests warm up 2 s instead of the 20 s default",
	"flows.Config.BulkSizes":    "tests bound bulk flows so a population drains in a short run",
	"flows.Config.CheckSample":  "tests watch every 8th flow instead of every 64th",
	"campaign.Options.Retries":  "tests cut the retry budget to 1 to see a unit give up",
}

// TestConfigFieldsHaveWriters keeps the simulated world's knobs honest: an
// exported field of a *Config/*Spec/*Options/*Params struct under internal/
// needs a writer outside the tests — a keyed or positional composite
// literal, an assignment, an increment or an address taken — or an entry
// in fieldsWithoutWriters saying why it stays. Defaulting does not count:
// a write through a function's own receiver or parameter is a withDefaults
// or a constructor filling in the zero values of the config it was handed,
// and a field only those set is a constant with extra steps.
func TestConfigFieldsHaveWriters(t *testing.T) {
	pkgs := typedModule(t)
	written := map[*types.Var]bool{}
	for _, tp := range pkgs {
		for _, f := range tp.files {
			for _, d := range f.Decls {
				// Writes through the function's receiver or parameters do
				// not count.
				params := map[types.Object]bool{}
				if fd, ok := d.(*ast.FuncDecl); ok {
					for _, list := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
						if list == nil { // a function has no receiver list
							continue
						}
						for _, fl := range list.List {
							for _, n := range fl.Names {
								params[tp.info.Defs[n]] = true
							}
						}
					}
				}
				mark := func(e ast.Expr) {
					for {
						switch x := e.(type) {
						case *ast.IndexExpr:
							e = x.X
						case *ast.ParenExpr:
							e = x.X
						case *ast.SelectorExpr:
							if id, ok := x.X.(*ast.Ident); ok && params[tp.info.Uses[id]] {
								return
							}
							if v, ok := tp.info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
								written[v.Origin()] = true
							}
							return
						default:
							return
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						st, ok := derefType(tp.info.TypeOf(n)).Underlying().(*types.Struct)
						if !ok {
							return true
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if v, ok := tp.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
									written[v.Origin()] = true
								}
							} else {
								written[st.Field(i).Origin()] = true
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							mark(lhs)
						}
					case *ast.IncDecStmt:
						mark(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							mark(n.X)
						}
					}
					return true
				})
			}
		}
	}
	seen := map[string]bool{}
	for dir, tp := range pkgs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		pkg := tp.files[0].Name.Name
		for id, obj := range tp.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.Parent() != tn.Pkg().Scope() || !isKnobStruct(tn.Name()) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fld := st.Field(i)
				if !fld.Exported() {
					continue
				}
				name := pkg + "." + tn.Name() + "." + fld.Name()
				seen[name] = true
				if _, allowed := fieldsWithoutWriters[name]; !written[fld] && !allowed {
					t.Errorf("%s (%s) is set by no code outside the tests: fold it into the constant it always has, or add it to fieldsWithoutWriters with a reason", name, tp.fset.Position(id.Pos()))
				}
			}
		}
	}
	for name := range fieldsWithoutWriters {
		if !seen[name] {
			t.Errorf("fieldsWithoutWriters lists %s, which is gone: drop the entry", name)
		}
	}
}

// isKnobStruct reports whether a type name marks a bag of settings.
func isKnobStruct(name string) bool {
	for _, suffix := range []string{"Config", "Spec", "Options", "Params"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// derefType strips one pointer.
func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// mapOrderPackages are the packages whose iteration order reaches the event
// queue or the RNG, and so the digest of every run.
var mapOrderPackages = []string{"internal/topo", "internal/netem", "internal/tcp", "internal/mptcp", "internal/flows"}

// TestNoMapRangeInSimulationPackages fails on a range over a map-typed
// expression in the packages that schedule events and draw random numbers:
// Go randomises map order, so such a loop makes two runs of one seed differ.
// Sort the keys first; topo's (*graph).linksWhere is the one place that
// does, and the one exemption.
func TestNoMapRangeInSimulationPackages(t *testing.T) {
	pkgs := typedModule(t)
	for _, dir := range mapOrderPackages {
		tp := pkgs[dir]
		if tp == nil {
			t.Fatalf("package %s not found", dir)
		}
		for _, f := range tp.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || (dir == "internal/topo" && fd.Name.Name == "linksWhere") {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := tp.info.Types[rs.X].Type.Underlying().(*types.Map); isMap {
						t.Errorf("%s: range over a map in %s; iterate sorted keys instead", tp.fset.Position(rs.Pos()), fd.Name.Name)
					}
					return true
				})
			}
		}
	}
}
