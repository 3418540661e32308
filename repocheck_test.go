package amrt

// Repository checks that run with the tier-1 suite: the exported-doc
// lint, the dense-ID-map rule, the one-small-topology-harness rule and
// the stack-knob rule over the Go source, and the reference check over
// the prose. A test runs in its package directory, here the repository
// root, so every path below is relative to it. Each rule returns its
// findings as "file:line: message" strings; the repository tests report
// each with t.Error, and the fixture tests below trip every rule once on
// a tree of their own, through the same functions.
//
// The rules read the files they check, so `go test` re-runs them when a
// doc or a source file changes instead of reporting a cached pass.

import (
	"cmp"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"amrt/internal/experiment"
)

// TestRepoLint holds the Go source to the four lint rules: every
// exported identifier of every package of the module is documented, the
// packet-path packages key no map by a dense ID, small topologies run
// only through experiment.LeafSpineRun, and every field of a stack's
// Config is set by a caller outside the stack.
func TestRepoLint(t *testing.T) {
	pkgs, err := packageDirs(".")
	if err != nil {
		t.Fatal(err)
	}
	examples, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	rules := []struct {
		rule func(dir string) ([]string, error)
		dirs []string
	}{
		{lintExportedDocs, pkgs},
		{lintIDMaps, tablePackages},
		{lintScenarioPreludes, append([]string{runPackage}, examples...)},
		{lintStackConfigs, []string{"."}},
	}
	for _, r := range rules {
		for _, dir := range r.dirs {
			report(t, dir, r.rule)
		}
	}
}

// TestRepoDocs holds docs/*.md and the top-level guides to the
// reference check (docsFindings).
func TestRepoDocs(t *testing.T) {
	report(t, ".", docsFindings)
}

func report(t *testing.T, dir string, rule func(string) ([]string, error)) {
	t.Helper()
	findings, err := rule(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// packageDirs returns every directory under root that belongs to the
// module rooted there: it skips what the go tool skips (testdata, and
// names starting with "." or "_") and every nested module, such as
// benchmark/.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test files of dir that keep accepts.
func parseDir(dir string, keep func(fs.FileInfo) bool, mode parser.Mode) (*token.FileSet, []*ast.File, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && keep(fi)
	}, mode)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return fset, files, nil
}

func allFiles(fs.FileInfo) bool { return true }

// ---- lint ----

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

// runPackage holds experiment.LeafSpineRun in runner.go; the prelude
// rule covers it and every example.
const runPackage = "internal/experiment"

// lintIDMaps reports every map[netsim.FlowID] or map[netsim.NodeID]
// type in the non-test files of dir.
func lintIDMaps(dir string) ([]string, error) {
	fset, files, err := parseDir(dir, allFiles, 0)
	if err != nil {
		return nil, err
	}
	table := map[string]string{"FlowID": "transport.FlowTable", "NodeID": "transport.HostTable"}
	var out []string
	for _, file := range files {
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
				out = append(out, fmt.Sprintf("%s: map keyed by netsim.%s: IDs are dense per run, use %s",
					fset.Position(m.Pos()), key.Sel.Name, table[key.Sel.Name]))
			}
			return true
		})
	}
	return out, nil
}

// overlayFields are the three things a stack lays over a topology.
var overlayFields = map[string]bool{"SwitchQueue": true, "HostQueue": true, "Marker": true}

// selName returns Sel of a selector expression x.Sel, else "".
func selName(e ast.Expr) string {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// lintScenarioPreludes reports, in the non-test files of dir other than
// the runner itself, every call that builds a network — a topology's
// Build method or netsim.New — and every assignment that copies a
// stack's queue factory or marker out of its Overlay (ov.SwitchQueue =
// st.SwitchQueue): each is the opening line of a hand-rolled run, which
// experiment.LeafSpineRun replaces. A topology value (topo.Fan(16)) is
// data a run is given, and passes.
func lintScenarioPreludes(dir string) ([]string, error) {
	inRunPackage := strings.HasSuffix(filepath.ToSlash(dir), runPackage)
	fset, files, err := parseDir(dir, func(fi fs.FileInfo) bool {
		return !(inRunPackage && fi.Name() == "runner.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var out []string
	complain := func(pos token.Pos, what string) {
		out = append(out, fmt.Sprintf("%s: %s: run topologies through experiment.LeafSpineRun", fset.Position(pos), what))
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				if sel.Sel.Name == "Build" {
					complain(n.Pos(), "Build call")
				} else if x, ok := sel.X.(*ast.Ident); ok && x.Name == "netsim" && sel.Sel.Name == "New" {
					complain(n.Pos(), "netsim.New call")
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
	return out, nil
}

// stackPackages are the protocol stacks whose Config fields the
// stack-knob rule checks.
var stackPackages = []string{
	"internal/core",
	"internal/phost",
	"internal/homa",
	"internal/ndp",
	"internal/sird",
	"internal/dctcp",
}

// lintStackConfigs reports every non-embedded field of a Config struct
// in the stack packages under root that no non-test file outside its
// package sets: a knob with one value in use is a package constant. A
// file that imports the stack sets a field by keying it in a
// pkg.Config literal or by assigning to a selector of that name; the
// check is syntactic, so a same-named field of another type in such a
// file also counts.
func lintStackConfigs(root string) ([]string, error) {
	type field struct{ pos, pkg, name string }
	var fields []field
	for _, pkg := range stackPackages {
		fset, files, err := parseDir(filepath.Join(root, pkg), allFiles, 0)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, file := range files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "Config" {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						for _, name := range f.Names { // an embedded field has none
							fields = append(fields, field{fset.Position(name.Pos()).String(), filepath.Base(pkg), name.Name})
						}
					}
				}
				return false
			})
		}
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{} // "pkg.Field"
	for _, dir := range dirs {
		_, files, err := parseDir(dir, allFiles, 0)
		if err != nil {
			return nil, err
		}
		for _, file := range files {
			stacks := map[string]string{} // import name → stack package name
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if slices.Contains(stackPackages, strings.TrimPrefix(path, "amrt/")) {
					name := filepath.Base(path)
					if imp.Name != nil {
						name = imp.Name.Name
					}
					stacks[name] = filepath.Base(path)
				}
			}
			if len(stacks) == 0 {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					sel, ok := n.Type.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Config" {
						break
					}
					x, ok := sel.X.(*ast.Ident)
					if !ok || stacks[x.Name] == "" {
						break
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								set[stacks[x.Name]+"."+key.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if name := selName(lhs); name != "" {
							for _, pkg := range stacks {
								set[pkg+"."+name] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	var out []string
	for _, f := range fields {
		if !set[f.pkg+"."+f.name] {
			out = append(out, fmt.Sprintf("%s: %s.Config.%s is set only inside %s: make a knob no caller varies a constant",
				f.pos, f.pkg, f.name, f.pkg))
		}
	}
	return out, nil
}

// lintExportedDocs enforces the revive-style `exported` rule over the
// non-test files of dir: every exported top-level type, function,
// method, and grouped const/var block needs a doc comment, and
// type/func comments must start with the identifier they document.
func lintExportedDocs(dir string) ([]string, error) {
	fset, files, err := parseDir(dir, allFiles, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	complain := func(pos token.Pos, format string, args ...any) {
		out = append(out, fmt.Sprintf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...)))
	}
	for _, file := range files {
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
	}
	return out, nil
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

// ---- docs ----

// docsCheckFiles are the top-level guides checked alongside docs/*.md:
// together they form the complete prose surface of the repository.
var docsCheckFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// docsFindings checks docs/*.md under root plus the top-level guides
// (docsCheckFiles), so the documentation cannot silently rot as the
// code moves:
//
//  1. every `pkg.Identifier` reference inside backticks resolves to an
//     identifier that actually exists in that package (only packages of
//     the module are checked — shell commands, file names, and stdlib
//     calls in backticks are ignored);
//  2. every relative markdown link points at a file that exists;
//  3. every simulation-version literal (amrt-sim/vN) matches the
//     current SimVersion, so stale cache-key documentation is caught
//     the moment the version bumps;
//  4. every CLI flag mentioned in a code context (`-shards` inline, or
//     a command line inside a fenced block) is defined by the command
//     the context names (`figures`, `amrtsim sweep`), or by some binary
//     under cmd/ when it names none, so renaming or dropping a flag
//     cannot leave the docs advertising it. Lines invoking foreign tools (curl, the go tool,
//     pprof, `go run` of a package outside the module) are skipped, and
//     a short allowlist covers `go test` flags the docs mention bare,
//     like -race;
//  5. no line enumerates all-but-one of the protocol comparison set,
//     checked against the live stack table — that is the signature
//     of a full list that predates the newest protocol. Smaller
//     subsets (a two-way contrast, the receiver-driven baseline trio)
//     are legitimate prose and stay exempt;
//  6. every bare `TestX`, `FuzzX` or `BenchmarkX` inside backticks
//     names a test function of the module, and `TestX*` is the prefix
//     of one, so a renamed or deleted test cannot stay cited. A line
//     that says the test is retired or deleted is exempt.
func docsFindings(root string) ([]string, error) {
	idents, err := collectIdentifiers(root)
	if err != nil {
		return nil, err
	}
	tests, err := collectTestNames(root)
	if err != nil {
		return nil, err
	}
	flags, err := collectCLIFlags(root)
	if err != nil {
		return nil, err
	}
	files, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no docs/*.md files under %s", root)
	}
	for _, f := range docsCheckFiles {
		files = append(files, filepath.Join(root, f))
	}
	var out []string
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		out = append(out, checkDoc(path, string(raw), idents, tests, flags)...)
	}
	return out, nil
}

// checkDoc applies the six docs rules to one file.
func checkDoc(path, text string, idents map[string]map[string]bool, tests map[string]bool, flags cliFlags) []string {
	var out []string
	inFence := false
	for i, line := range strings.Split(text, "\n") {
		complain := func(format string, args ...any) {
			out = append(out, fmt.Sprintf("%s:%d: %s", path, i+1, fmt.Sprintf(format, args...)))
		}
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		refs := codeRefs(line)
		contexts := refs
		if inFence {
			contexts = []string{line}
		}
		for _, ctx := range contexts {
			if foreignToolRe.MatchString(ctx) {
				continue
			}
			allowed, by := flags.allowed(ctx)
			for _, name := range flagMentions(ctx) {
				if !allowed[name] && !goTestFlags[name] {
					complain("flag -%s is not defined by %s", name, by)
				}
			}
		}
		for _, ref := range refs {
			if testNameRe.MatchString(ref) {
				if !retiredRe.MatchString(line) && !citesTest(tests, ref) {
					complain("`%s` — no test function of the module matches", ref)
				}
				continue
			}
			pkg, names, ok := splitRef(ref)
			if !ok {
				continue
			}
			set := idents[pkg]
			if set == nil {
				continue // not a package of this repo
			}
			for _, name := range names {
				if !set[name] {
					complain("`%s` — %s has no identifier %q", ref, pkg, name)
				}
			}
		}
		for _, target := range relativeLinks(line) {
			dest := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(dest); err != nil {
				complain("broken link %q (%s does not exist)", target, dest)
			}
		}
		if ms := protocolMentions(line); len(ms) == len(protocolSet)-1 {
			complain("protocol list %v is missing %v (registry comparison set: %v)", ms, missingProtocols(ms), protocolSet)
		}
		for _, v := range simVersionRe.FindAllString(line, -1) {
			if v != SimVersion {
				complain("stale simulation version %q (current is %q)", v, SimVersion)
			}
		}
	}
	return out
}

// backtickRe captures inline code spans; refRe matches qualified
// identifier chains like sim.Engine, netsim.Packet.Release, or
// sim.Engine.Run() inside them.
var (
	backtickRe = regexp.MustCompile("`([^`]+)`")
	refRe      = regexp.MustCompile(`^([a-z][a-zA-Z0-9]*)((?:\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\(\))?$`)
	// linkRe captures markdown link targets; simVersionRe matches
	// simulation-version literals wherever they appear in prose.
	linkRe       = regexp.MustCompile(`\]\(([^)#]+)(?:#[^)]*)?\)`)
	simVersionRe = regexp.MustCompile(`amrt-sim/v\d+`)
	// testNameRe matches a code span that is one test, fuzz or
	// benchmark function name, or a prefix of one ending in `*`;
	// retiredRe exempts the line that records its removal.
	testNameRe = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*\*?$`)
	retiredRe  = regexp.MustCompile(`\b(?:retired|deleted)\b`)
)

// citesTest reports whether the test-name span ref matches a name in
// tests: exactly, or as a prefix when ref ends in `*`.
func citesTest(tests map[string]bool, ref string) bool {
	prefix, ok := strings.CutSuffix(ref, "*")
	if !ok {
		return tests[ref]
	}
	for name := range tests {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// relativeLinks extracts the markdown link targets of one line that
// point into the repository: absolute URLs and pure-anchor links are
// skipped.
func relativeLinks(line string) []string {
	var out []string
	for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
		target := strings.TrimSpace(m[1])
		if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue
		}
		out = append(out, target)
	}
	return out
}

// protocolSet is the live comparison set, straight from the stack
// table — the same list the figures and the public API derive from.
var protocolSet = experiment.ProtocolNames()

var protocolRes = func() []*regexp.Regexp {
	res := make([]*regexp.Regexp, len(protocolSet))
	for i, n := range protocolSet {
		res[i] = regexp.MustCompile(`\b` + regexp.QuoteMeta(n) + `\b`)
	}
	return res
}()

// protocolMentions returns the comparison protocols named on the line,
// in table order.
func protocolMentions(line string) []string {
	var out []string
	for i, re := range protocolRes {
		if re.MatchString(line) {
			out = append(out, protocolSet[i])
		}
	}
	return out
}

// missingProtocols returns the comparison protocols absent from the
// mentioned set.
func missingProtocols(mentioned []string) []string {
	have := map[string]bool{}
	for _, m := range mentioned {
		have[m] = true
	}
	var out []string
	for _, n := range protocolSet {
		if !have[n] {
			out = append(out, n)
		}
	}
	return out
}

func codeRefs(line string) []string {
	var out []string
	for _, m := range backtickRe.FindAllStringSubmatch(line, -1) {
		out = append(out, strings.TrimSpace(m[1]))
	}
	return out
}

// splitRef splits "pkg.A.B" into its package qualifier and the exported
// identifiers to verify. Lower-case path components (field access into
// unexported API) stop the chain; anything before the first dot must be
// a plain package name.
func splitRef(ref string) (pkg string, names []string, ok bool) {
	m := refRe.FindStringSubmatch(ref)
	if m == nil {
		return "", nil, false
	}
	for _, part := range strings.Split(strings.TrimPrefix(m[2], "."), ".") {
		if part == "" || part[0] < 'A' || part[0] > 'Z' {
			break
		}
		names = append(names, part)
	}
	if len(names) == 0 {
		return "", nil, false
	}
	return m[1], names, true
}

// collectIdentifiers parses every package of the module rooted at root
// and returns, per package name, the set of exported identifiers:
// top-level types, funcs, consts, vars, plus method and struct-field
// names (docs refer to those as pkg.Type.Method).
func collectIdentifiers(root string) (map[string]map[string]bool, error) {
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]bool{}
	for _, dir := range dirs {
		_, files, err := parseDir(dir, allFiles, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", dir, err)
		}
		for _, file := range files {
			set := out[file.Name.Name]
			if set == nil {
				set = map[string]bool{}
				out[file.Name.Name] = set
			}
			addFileIdentifiers(set, file)
		}
	}
	return out, nil
}

// collectTestNames returns the name of every top-level function in a
// _test.go file of the module. Only names of the test, fuzz and
// benchmark shape are ever looked up.
func collectTestNames(root string) (map[string]bool, error) {
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, dir := range dirs {
		paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			return nil, err
		}
		for _, path := range paths {
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					out[fn.Name.Name] = true
				}
			}
		}
	}
	return out, nil
}

// flagTokRe matches a flag mention in a code context: a -name or --name
// token at the start or after whitespace/quote/pipe/equals, so prose
// hyphenations (receiver-driven) and diagram rules (----) never match.
// foreignToolRe recognizes command lines that belong to other programs,
// whose flags are not ours to verify: `go run ./cmd/amrtsim` runs a
// binary of this module, `go run example.com/tool` does not.
// goTestFlags are `go test` flags the docs legitimately mention bare,
// outside any command line.
var (
	flagTokRe     = regexp.MustCompile("(?:^|[\\s\"'(|=`])--?([a-zA-Z][a-zA-Z0-9_-]*)")
	foreignToolRe = regexp.MustCompile(`\b(?:(?:curl|gofmt|pprof|go (?:test|tool|vet|build))\b|go run +[^.\s])`)
	goTestFlags   = map[string]bool{
		"race": true, "bench": true, "benchmem": true, "benchtime": true,
		"short": true, "run": true, "count": true, "v": true, "cover": true,
	}
)

// flagMentions extracts the flag names mentioned in one code context,
// with any =value suffix already stripped by the token pattern.
func flagMentions(ctx string) []string {
	var out []string
	for _, m := range flagTokRe.FindAllStringSubmatch(ctx, -1) {
		out = append(out, m[1])
	}
	return out
}

// flagDefName returns the flag-name argument of a flag-definition call
// (flag.String, fs.Duration, flag.IntVar, fs.Func, ...), or "" if the
// call is not one. Var-style definitions carry the name second.
func flagDefName(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	idx := 0
	switch sel.Sel.Name {
	case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration", "Func", "BoolFunc":
	case "StringVar", "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var",
		"Float64Var", "DurationVar", "Var", "TextVar":
		idx = 1
	default:
		return ""
	}
	if idx >= len(call.Args) {
		return ""
	}
	lit, ok := call.Args[idx].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return ""
	}
	return name
}

// cliFlags maps each command of the module — "figures", "amrtsim",
// "amrtsim sweep" — to the set of flags it defines.
type cliFlags map[string]map[string]bool

// allowed returns the flags a code context may mention, and who defines
// them for the finding's text: the flags of the commands the context
// names, or every command's when it names none. The longest name wins,
// so "amrtsim sweep -x" names `amrtsim sweep` and not also `amrtsim`.
func (c cliFlags) allowed(ctx string) (map[string]bool, string) {
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	slices.SortFunc(names, func(a, b string) int { return cmp.Or(len(b)-len(a), strings.Compare(a, b)) })
	allowed := map[string]bool{}
	var named []string
	for _, name := range names {
		re := regexp.MustCompile(`(?:^|[\s/])` + regexp.QuoteMeta(name) + `(?:\s|$)`)
		if loc := re.FindStringIndex(ctx); loc != nil {
			ctx = ctx[:loc[0]] + " " + ctx[loc[1]:]
			named = append(named, "`"+name+"`")
			maps.Copy(allowed, c[name])
		}
	}
	if len(named) > 0 {
		return allowed, strings.Join(named, " or ")
	}
	for _, set := range c {
		maps.Copy(allowed, set)
	}
	return allowed, "any cmd/ binary"
}

// collectCLIFlags parses every binary under root/cmd and returns the
// flags each of its commands defines. A flag on a flag.NewFlagSet
// belongs to the set's name ("amrtsim sweep"); a flag on the package's
// default set belongs to the directory's name. A flag registered on the
// *flag.FlagSet parameter of a helper (a binder such as bind(fs))
// belongs to every command whose set is passed to that helper, directly
// or through another helper; helpers are told apart by name alone.
func collectCLIFlags(root string) (cliFlags, error) {
	cmds, err := filepath.Glob(filepath.Join(root, "cmd", "*"))
	if err != nil {
		return nil, err
	}
	const helper = "func " // owner prefix of a helper's parameter
	out := cliFlags{}
	for _, dir := range cmds {
		_, files, err := parseDir(dir, allFiles, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", dir, err)
		}
		// defs maps an owner (a command, or helper+name) to the flags
		// defined on its set; passes maps a helper to the owners whose
		// sets are passed to it.
		defs, passes := map[string]map[string]bool{}, map[string][]string{}
		for _, file := range files {
			// sets maps a flag-set variable to its owner; an assignment
			// or parameter precedes its uses in the walk's source order.
			sets := map[string]string{}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					for _, p := range n.Type.Params.List {
						if isFlagSetPtr(p.Type) {
							for _, id := range p.Names {
								sets[id.Name] = helper + n.Name.Name
							}
						}
					}
				case *ast.AssignStmt:
					if id, name, ok := newFlagSet(n); ok {
						sets[id] = name
					}
				case *ast.CallExpr:
					if name := flagDefName(n); name != "" {
						owner := filepath.Base(dir)
						if id, ok := n.Fun.(*ast.SelectorExpr).X.(*ast.Ident); ok && sets[id.Name] != "" {
							owner = sets[id.Name]
						}
						if defs[owner] == nil {
							defs[owner] = map[string]bool{}
						}
						defs[owner][name] = true
						break
					}
					callee := helper
					switch f := n.Fun.(type) {
					case *ast.Ident:
						callee += f.Name
					case *ast.SelectorExpr:
						callee += f.Sel.Name
					}
					for _, arg := range n.Args {
						if id, ok := arg.(*ast.Ident); ok && sets[id.Name] != "" {
							passes[callee] = append(passes[callee], sets[id.Name])
						}
					}
				}
				return true
			})
		}
		var credit func(owner string, flags map[string]bool, seen map[string]bool)
		credit = func(owner string, flags map[string]bool, seen map[string]bool) {
			if !strings.HasPrefix(owner, helper) {
				if out[owner] == nil {
					out[owner] = map[string]bool{}
				}
				maps.Copy(out[owner], flags)
				return
			}
			if seen[owner] {
				return
			}
			seen[owner] = true
			for _, o := range passes[owner] {
				credit(o, flags, seen)
			}
		}
		for owner, flags := range defs {
			credit(owner, flags, map[string]bool{})
		}
	}
	return out, nil
}

// isFlagSetPtr reports whether a parameter type is *flag.FlagSet.
func isFlagSetPtr(typ ast.Expr) bool {
	star, ok := typ.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "FlagSet" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "flag"
}

// newFlagSet matches `v := flag.NewFlagSet("name", ...)` and returns the
// variable and the set's name.
func newFlagSet(a *ast.AssignStmt) (id, name string, ok bool) {
	if len(a.Lhs) != 1 || len(a.Rhs) != 1 {
		return "", "", false
	}
	v, ok := a.Lhs[0].(*ast.Ident)
	if !ok {
		return "", "", false
	}
	call, ok := a.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewFlagSet" {
		return "", "", false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", "", false
	}
	name, err := strconv.Unquote(lit.Value)
	return v.Name, name, err == nil
}

func addFileIdentifiers(set map[string]bool, file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			set[d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					set[s.Name.Name] = true
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, f := range st.Fields.List {
							for _, n := range f.Names {
								set[n.Name] = true
							}
						}
					}
					if it, ok := s.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, n := range m.Names {
								set[n.Name] = true
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						set[n.Name] = true
					}
				}
			}
		}
	}
}

// ---- every rule trips ----

// writeTree creates files (path → content) under a fresh temporary
// directory and returns it.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, content := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// expectOne fails unless findings is exactly one finding containing want.
func expectOne(t *testing.T, findings []string, err error, want string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], want) {
		t.Errorf("findings %q, want exactly one containing %q", findings, want)
	}
}

func TestLintRulesTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule func(string) ([]string, error)
		src  string
		want string
	}{
		{"undocumented export", lintExportedDocs,
			"func Exported() {}\n",
			"exported function Exported has no doc comment"},
		{"doc without its name", lintExportedDocs,
			"// does nothing.\ntype Exported int\n",
			`doc comment of type Exported should start with "Exported"`},
		{"block doc", lintExportedDocs,
			"/* Exported does nothing. */\nfunc Exported() {}\n",
			"should use // line comments"},
		{"map keyed by flow ID", lintIDMaps,
			"import \"amrt/internal/netsim\"\n\nvar byFlow map[netsim.FlowID]int\n",
			"map keyed by netsim.FlowID"},
		{"hand-rolled prelude", lintScenarioPreludes,
			"import \"amrt/internal/topo\"\n\nfunc run() { topo.Fan(2).Build(topo.Overlay{}) }\n",
			"Build call"},
		{"hand-rolled network", lintScenarioPreludes,
			"import \"amrt/internal/netsim\"\n\nfunc run() { netsim.New() }\n",
			"netsim.New call"},
		{"overlay copy", lintScenarioPreludes,
			"type ov struct{ SwitchQueue func() }\n\nfunc run(a, b *ov) { a.SwitchQueue = b.SwitchQueue }\n",
			"overlay assignment of .SwitchQueue"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeTree(t, map[string]string{"p/p.go": "package p\n\n" + tc.src})
			got, err := tc.rule(filepath.Join(dir, "p"))
			expectOne(t, got, err, tc.want)
		})
	}
}

// TestLintStackConfigsTrip: a Config field that only its own package
// and a test set is one finding; a field set by a literal or an
// assignment elsewhere, and an embedded field, are none.
func TestLintStackConfigsTrip(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"internal/core/core.go": "package core\n\ntype base struct{}\n\n// Config is three knobs.\n" +
			"type Config struct {\n\tbase\n\tAssigned, Keyed, Fixed int\n}\n\n" +
			"// DefaultConfig sets every knob.\nfunc DefaultConfig() Config { return Config{Assigned: 1, Keyed: 1, Fixed: 1} }\n",
		"internal/experiment/x.go": "package experiment\n\nimport amrt \"amrt/internal/core\"\n\n" +
			"func f(c amrt.Config) amrt.Config {\n\tc.Assigned = 2\n\treturn amrt.Config{Keyed: 2}\n}\n",
		"internal/experiment/x_test.go": "package experiment\n\nimport \"amrt/internal/core\"\n\nvar _ = core.Config{Fixed: 2}\n",
	})
	got, err := lintStackConfigs(dir)
	expectOne(t, got, err, "core.Config.Fixed is set only inside core")
}

// TestLintPreludeClean: a topology value is data, not a run, and the
// runner itself may build what it runs.
func TestLintPreludeClean(t *testing.T) {
	for name, tree := range map[string]map[string]string{
		"topology value": {"internal/experiment/fig.go": "package experiment\n\nimport \"amrt/internal/topo\"\n\nvar b = topo.Fan(16)\n"},
		"runner":         {"internal/experiment/runner.go": "package experiment\n\nimport \"amrt/internal/topo\"\n\nvar f = topo.Fan(16).Build(topo.Overlay{})\n"},
	} {
		got, err := lintScenarioPreludes(filepath.Join(writeTree(t, tree), runPackage))
		if err != nil || len(got) != 0 {
			t.Errorf("%s: findings %q, err %v", name, got, err)
		}
	}
}

func TestDocsRulesTrip(t *testing.T) {
	tree := func(doc string) map[string]string {
		return map[string]string{
			"internal/pkg/pkg.go":      "package pkg\n\n// Known is known.\ntype Known int\n",
			"internal/pkg/pkg_test.go": "package pkg\n\nimport \"testing\"\n\nfunc TestKnownShape(t *testing.T) {}\n\nfunc FuzzKnown(f *testing.F) {}\n",
			"cmd/tool/main.go":         "package main\n\nimport \"flag\"\n\nvar known = flag.Bool(\"known\", false, \"\")\n\nfunc init() { flag.Func(\"fn\", \"usage\", func(string) error { return nil }) }\n",
			"cmd/tool/sub.go":          "package main\n\nimport \"flag\"\n\nfunc sub() {\n\tfs := flag.NewFlagSet(\"tool sub\", flag.ExitOnError)\n\tfs.Int(\"depth\", 0, \"\")\n\tbind(fs)\n}\n",
			"cmd/tool/bind.go":         "package main\n\nimport \"flag\"\n\nfunc run() {\n\tfs := flag.NewFlagSet(\"tool\", flag.ExitOnError)\n\twrap(fs)\n}\n\nfunc wrap(set *flag.FlagSet) { bind(set) }\n\nfunc bind(fs *flag.FlagSet) { fs.String(\"shared\", \"\", \"\") }\n\nfunc unused(fs *flag.FlagSet) { fs.Bool(\"orphan\", false, \"\") }\n",
			"docs/guide.md":            doc,
			"README.md":                "",
			"DESIGN.md":                "",
			"EXPERIMENTS.md":           "",
		}
	}
	clean := "`pkg.Known` with `-known`, see [the guide](guide.md) and [the readme](../README.md).\n" +
		"Cache keys carry `" + SimVersion + "`; run `go test -race` or `curl -X POST`; `-depth` alone.\n" +
		"`TestKnownShape`, `TestKnown*` and `FuzzKnown` run; the retired `TestGone` does not.\n" +
		"```\ngo run ./cmd/tool -known -fn x -shared s\ngo run ./cmd/tool sub -depth 2 -shared s\ngo run example.com/tool -elsewhere\n```\n"
	t.Run("clean", func(t *testing.T) {
		got, err := docsFindings(writeTree(t, tree(clean)))
		if err != nil || len(got) != 0 {
			t.Errorf("clean fixture: findings %q, err %v", got, err)
		}
	})
	for _, tc := range []struct{ name, doc, want string }{
		{"unknown identifier", "`pkg.Unknown`", `pkg has no identifier "Unknown"`},
		{"broken link", "[gone](missing.md)", `broken link "missing.md"`},
		{"stale version", "amrt-sim/v1", `stale simulation version "amrt-sim/v1"`},
		{"unknown test", "`TestGone`", "`TestGone` — no test function"},
		{"unknown test prefix", "`BenchmarkKnown*`", "`BenchmarkKnown*` — no test function"},
		{"unknown flag inline", "`-bogus`", "flag -bogus is not defined"},
		{"unknown flag on go run", "```\ngo run ./cmd/tool -known -bogus 1\n```", "flag -bogus is not defined"},
		{"another command's flag", "`tool -depth 2`", "flag -depth is not defined by `tool`"},
		{"parent flag on a subcommand", "```\ntool sub -known\n```", "flag -known is not defined by `tool sub`"},
		{"Func flag on another command", "`tool sub -fn x`", "flag -fn is not defined by `tool sub`"},
		{"binder flag no command calls", "`-orphan`", "flag -orphan is not defined by any cmd/ binary"},
		{"all-but-one protocol list", strings.Join(protocolSet[1:], ", "), "is missing [" + protocolSet[0] + "]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := docsFindings(writeTree(t, tree(tc.doc)))
			expectOne(t, got, err, tc.want)
		})
	}
}
