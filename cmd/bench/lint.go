package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// lintPackages are the packages whose exported API must be fully
// documented: the root package (the public v2 surface — Sweep,
// RunContext, Validate and friends), plus the packages whose doc
// comments carry behavioral contracts (determinism, recycling, cache
// layout, worker-pool panic propagation).
var lintPackages = []string{
	".",
	"internal/sim",
	"internal/netsim",
	"internal/faults",
	"internal/audit",
	"internal/campaign",
	"internal/server",
	"internal/stats",
	"internal/experiment",
	"internal/topo",
	"internal/workload",
}

// tablePackages are the packages that key state by flow or node ID on
// the packet path and in the runner. Both ID spaces are dense per run,
// so there the lint refuses a map keyed by either: transport.FlowTable
// and transport.HostTable index a slice instead.
var tablePackages = []string{
	"internal/transport",
	"internal/core",
	"internal/phost",
	"internal/homa",
	"internal/ndp",
	"internal/sird",
	"internal/dctcp",
	"internal/experiment",
}

// scenarioDirs are where a small topology may only be run through
// experiment.ScenarioHarness: the figure package (whose scenario.go is
// the harness) and every example.
func scenarioDirs() ([]string, error) {
	examples, err := filepath.Glob("examples/*")
	return append([]string{"internal/experiment"}, examples...), err
}

// runLint enforces the revive-style `exported` rule over lintPackages:
// every exported top-level type, function, method, and grouped
// const/var block needs a doc comment, and type/func comments must
// start with the identifier they document. Over tablePackages it
// enforces the no-ID-keyed-map rule, over scenarioDirs the
// one-small-topology-harness rule. Returns a process exit code.
func runLint() int {
	bad := 0
	dirs, err := scenarioDirs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lint: %v\n", err)
		return 2
	}
	for _, dir := range dirs {
		n, err := lintScenarioPreludes(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lint: %v\n", err)
			return 2
		}
		bad += n
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d hand-rolled small-topology preludes\n", bad)
		return 1
	}
	for _, dir := range tablePackages {
		n, err := lintIDMaps(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lint: %v\n", err)
			return 2
		}
		bad += n
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d maps keyed by a dense ID\n", bad)
		return 1
	}
	for _, dir := range lintPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, notTest, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lint: %v\n", err)
			return 2
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				bad += lintFile(fset, file)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d undocumented or misdocumented exported identifiers\n", bad)
		return 1
	}
	fmt.Println("lint: exported API fully documented")
	return 0
}

// notTest selects a directory's non-test files.
func notTest(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }

// lintIDMaps reports every map[netsim.FlowID] or map[netsim.NodeID]
// type in the non-test files of dir and returns how many it found.
func lintIDMaps(dir string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, notTest, 0)
	if err != nil {
		return 0, err
	}
	table := map[string]string{"FlowID": "transport.FlowTable", "NodeID": "transport.HostTable"}
	bad := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				m, ok := n.(*ast.MapType)
				if !ok {
					return true
				}
				key, ok := m.Key.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := key.X.(*ast.Ident); ok && x.Name == "netsim" && table[key.Sel.Name] != "" {
					fmt.Fprintf(os.Stderr, "lint: %s: map keyed by netsim.%s: IDs are dense per run, use %s\n",
						fset.Position(m.Pos()), key.Sel.Name, table[key.Sel.Name])
					bad++
				}
				return true
			})
		}
	}
	return bad, nil
}

// scenarioBuilders are the topo constructors of the small figure
// topologies; overlayFields are the three things a stack lays over one.
var (
	scenarioBuilders = map[string]bool{"NewChain": true, "NewFan": true, "NewFanN": true, "NewTestbedDynamic": true, "NewTestbedMultiBottleneck": true}
	overlayFields    = map[string]bool{"SwitchQueue": true, "HostQueue": true, "Marker": true}
)

// selName returns Sel of a selector expression x.Sel, else "".
func selName(e ast.Expr) string {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// lintScenarioPreludes reports, in the non-test files of dir other than
// the harness itself, every call of a small-topology constructor and
// every assignment that copies a stack's queue factory or marker
// (sc.SwitchQueue = st.SwitchQueue): both are the opening lines of a
// hand-rolled scenario run, which experiment.ScenarioHarness replaces.
// One call form is let through — inside the arguments of
// NewScenarioHarness, where a function literal binds NewFanN's pair
// count for the harness to call. It returns how many it found.
func lintScenarioPreludes(dir string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return notTest(fi) && !(dir == "internal/experiment" && fi.Name() == "scenario.go")
	}, 0)
	if err != nil {
		return 0, err
	}
	bad := 0
	complain := func(pos token.Pos, what string) {
		fmt.Fprintf(os.Stderr, "lint: %s: %s: run small topologies through experiment.NewScenarioHarness\n", fset.Position(pos), what)
		bad++
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "NewScenarioHarness" || selName(n.Fun) == "NewScenarioHarness" {
						return false
					}
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && scenarioBuilders[sel.Sel.Name] {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "topo" {
							complain(n.Pos(), "topo."+sel.Sel.Name+" call")
						}
					}
				case *ast.AssignStmt:
					for i := 0; i < len(n.Lhs) && len(n.Lhs) == len(n.Rhs); i++ {
						if from := selName(n.Rhs[i]); overlayFields[selName(n.Lhs[i])] && (overlayFields[from] || from == "NewMarker") {
							complain(n.Lhs[i].Pos(), "overlay assignment of ."+from)
						}
					}
				}
				return true
			})
		}
	}
	return bad, nil
}

func lintFile(fset *token.FileSet, file *ast.File) int {
	bad := 0
	complain := func(pos token.Pos, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "lint: %s: %s\n", fset.Position(pos), fmt.Sprintf(format, args...))
		bad++
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedRecv(d) {
				continue
			}
			if d.Doc == nil {
				complain(d.Pos(), "exported %s %s has no doc comment", declKind(d), d.Name.Name)
			} else if !docStartsWith(d.Doc, d.Name.Name) {
				complain(d.Pos(), "doc comment of %s %s should start with %q", declKind(d), d.Name.Name, d.Name.Name)
			} else if !docLineComments(d.Doc) {
				complain(d.Doc.Pos(), "doc comment of %s %s should use // line comments", declKind(d), d.Name.Name)
			}
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if !ts.Name.IsExported() {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = d.Doc
					}
					if doc == nil {
						complain(ts.Pos(), "exported type %s has no doc comment", ts.Name.Name)
					} else if !docStartsWith(doc, ts.Name.Name) {
						complain(ts.Pos(), "doc comment of type %s should start with %q", ts.Name.Name, ts.Name.Name)
					} else if !docLineComments(doc) {
						complain(doc.Pos(), "doc comment of type %s should use // line comments", ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				// A group doc covers the block; otherwise each exported
				// spec needs its own comment.
				if d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					if vs.Doc != nil || vs.Comment != nil {
						continue
					}
					for _, name := range vs.Names {
						if name.IsExported() {
							complain(name.Pos(), "exported %s %s has no doc comment", d.Tok, name.Name)
						}
					}
				}
			}
		}
	}
	return bad
}

// exportedRecv reports whether a method's receiver type is exported
// (functions without receivers count as exported scope).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if g, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = g.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}

func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

func docStartsWith(doc *ast.CommentGroup, name string) bool {
	return strings.HasPrefix(strings.TrimSpace(doc.Text()), name)
}

// docLineComments reports whether every comment in the group is a //
// line comment. A /* block */ doc comment parses and renders fine, but
// it is one stray keystroke away from the `/ text` form that silently
// detaches the doc from its declaration — the repo standardizes on line
// comments so the lint can catch that class of damage.
func docLineComments(doc *ast.CommentGroup) bool {
	for _, c := range doc.List {
		if !strings.HasPrefix(c.Text, "//") {
			return false
		}
	}
	return true
}
