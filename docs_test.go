package mptcpsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
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

// TestSupervisionLivesInOnePlace keeps the copies PR 23 deleted from growing
// back: outside internal/runner (the bare pool) and internal/supervise (the
// retry loop, the classifier, the process boundary) no non-test code
// recovers a panic, sleeps on the wall clock, exits the process or builds an
// exit-code error by hand. The exceptions are the two main functions, which
// exit with supervise.ExitCode, and the chaos spin failpoint, whose job is to
// hang. benchmark/ is frozen and stands outside.
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
