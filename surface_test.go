package repro

// The surface tests pin what the stack exposes: the exported names,
// methods and struct fields of internal/ that no other package names,
// the exported names that only other packages' tests name, and the
// flags of cmd/. All may only shrink. A new exported name that only its
// own package uses is unexported, deleted, or allow-listed below with
// the reason it stays exported; a new flag names the CI job, test or
// document that exercises it.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// maxUnusedExported bounds the exported top-level names of internal/
// that no other package writes as pkg.Name. It may only fall.
const maxUnusedExported = 28

// maxUnusedMembers bounds the exported methods and struct fields of
// internal/ that no other package names (unusedMembers); maxTestOnly
// the exported names, top-level or member, that other packages name
// only in tests. Both may only fall.
const (
	maxUnusedMembers = 10
	maxTestOnly      = 30
)

// unusedMembers is every exported method and field that no other
// package names, with why it stays exported.
var unusedMembers = map[string]string{
	"exp.Axes.HomePolicies":          "one of the seven sweep axes other packages build an Axes from",
	"exp.Axes.Scales":                "one of the seven sweep axes other packages build an Axes from",
	"model.Costs.ApplyPerByte":       "a calibration constant: other packages build Costs and set its siblings",
	"model.Costs.DiffCreate":         "a calibration constant: other packages build Costs and set its siblings",
	"model.Costs.DiffPerByte":        "a calibration constant: other packages build Costs and set its siblings",
	"model.Costs.IntervalBytes":      "a calibration constant: other packages build Costs and set its siblings",
	"model.Costs.PackNanosPerByte":   "a calibration constant: other packages build Costs and set its siblings",
	"model.Costs.SerialNIC":          "a calibration constant: other packages build Costs and set its siblings",
	"model.Costs.UnpackNanosPerByte": "a calibration constant: other packages build Costs and set its siblings",
	"model.Costs.WriteNoticeBytes":   "a calibration constant: other packages build Costs and set its siblings",
}

// unusedExported is every such name, by package path under internal/,
// with why it stays exported. Uses in tests of other packages, cmd/,
// examples/ and bench/ count as uses.
var unusedExported = map[string]string{
	"core.Runtime":              "type of VersionInfo.Runtime",
	"core.VersionInfo":          "returned by Describe and VersionTable",
	"core.TmkRuntime":           "a Runtime value; its sibling SeqRuntime is named outside",
	"core.SPFRuntime":           "a Runtime value; its sibling SeqRuntime is named outside",
	"core.XHPFRuntime":          "a Runtime value; its sibling SeqRuntime is named outside",
	"core.PVMRuntime":           "a Runtime value; its sibling SeqRuntime is named outside",
	"fabric.Worker":             "returned by NewWorker",
	"harness.HandOptCase":       "element type of HandOptCases",
	"loopc.Extent":              "returned by Ext; type of Loop.Lo and Loop.Hi",
	"loopc.ReduceOp":            "type of Stmt.Op",
	"loopc.Reference":           "the sequential reference loopc's tests hold every backend to",
	"loopc.RowPartition":        "returned by PartitionFor, taken by Oracle",
	"loopc/difftest.Divergence": "returned by Check, taken by WriteRepro",
	"loopc/gen.ExtentSpec":      "type of LoopSpec.Lo and LoopSpec.Hi",
	"loopc/gen.IndexSpec":       "type of AccessSpec.Row and AccessSpec.Col",
	"loopc/gen.LoopSpec":        "type of NestSpec.Row and NestSpec.Col",
	"loopc/gen.StmtSpec":        "element type of NestSpec.Stmts",
	"obs.Type":                  "parameter type of Trace.Span and Trace.Instant",
	"proto.Host":                "parameter type of New",
	"pvm.Buffer":                "returned by Pack and NewBuffer",
	"spf.Dynamic":               "a Sched value; its sibling Block is named outside",
	"spf.LoopFunc":              "parameter type of Runtime.RegisterLoop",
	"spf.Sched":                 "parameter type of Runtime.ParallelDo",
	"store.VerifyReport":        "returned by Store.Verify",
	"tmk.Elem":                  "type constraint of Alloc and Region",
	"tmk.FrameCounters":         "returned by System.FrameCounters",
	"tmk.Option":                "returned by WithProtocol and WithHomePolicy, taken by NewSystem",
	"xhpf.System":               "returned by NewSystem",
}

// TestExportedSurface: the exported names of internal/ that no other
// package names are exactly the allow-list, and there are at most
// maxUnusedExported of them.
func TestExportedSurface(t *testing.T) {
	sf := scanSurface(t)
	var unused []string
	for name := range sf.declared {
		if !sf.used[name] && !sf.testUsed[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		if unusedExported[name] == "" {
			t.Errorf("%s is exported but no other package names it: unexport it, delete it, or allow-list it with a reason", name)
		}
	}
	for name := range unusedExported {
		if !sf.declared[name] {
			t.Errorf("allow-listed %s is not an exported name of internal/ any more: drop it from the list", name)
		} else if sf.used[name] || sf.testUsed[name] {
			t.Errorf("allow-listed %s is named outside its package now: drop it from the list", name)
		}
	}
	if len(unused) > maxUnusedExported {
		t.Errorf("%d exported names are used only by their own package, more than the %d allowed", len(unused), maxUnusedExported)
	}
	t.Logf("%d of %d exported names of internal/ are used only by their own package", len(unused), len(sf.declared))
}

// TestExportedMembers: the exported methods and struct fields of
// internal/ that no other package names number at most
// maxUnusedMembers, and the exported names, top-level or member, that
// only other packages' tests name at most maxTestOnly. Matching is by
// name: a member counts as named by another directory where one of its
// files writes .Name or a Name: composite-literal key, whatever the
// type. Both counts may only fall.
func TestExportedMembers(t *testing.T) {
	sf := scanSurface(t)
	outside := func(names map[string]map[string]bool, m member) bool {
		for dir := range names[m.name] {
			if dir != m.dir {
				return true
			}
		}
		return false
	}
	var unused, testOnly []string
	for key, m := range sf.members {
		switch {
		case outside(sf.selected, m):
		case outside(sf.testSelected, m):
			testOnly = append(testOnly, key)
		default:
			unused = append(unused, key)
		}
	}
	for name := range sf.declared {
		if !sf.used[name] && sf.testUsed[name] {
			testOnly = append(testOnly, name)
		}
	}
	sort.Strings(unused)
	sort.Strings(testOnly)
	for _, name := range unused {
		if unusedMembers[name] == "" {
			t.Errorf("%s is exported but no other package names it: unexport it, delete it, or allow-list it with a reason", name)
		}
	}
	for name := range unusedMembers {
		if _, ok := sf.members[name]; !ok {
			t.Errorf("allow-listed %s is not an exported method or field of internal/ any more: drop it from the list", name)
		} else if !slices.Contains(unused, name) {
			t.Errorf("allow-listed %s is named outside its package now: drop it from the list", name)
		}
	}
	if len(unused) > maxUnusedMembers {
		t.Errorf("%d exported methods and fields are named only by their own package, more than the %d allowed", len(unused), maxUnusedMembers)
	}
	if len(testOnly) > maxTestOnly {
		t.Errorf("%d exported names are named outside their package only by tests, more than the %d allowed: unexport, move or delete the new ones\n%s",
			len(testOnly), maxTestOnly, strings.Join(testOnly, "\n"))
	}
	t.Logf("%d of %d exported methods and fields of internal/ are named only by their own package; %d exported names only by other packages' tests",
		len(unused), len(sf.members), len(testOnly))
}

// member is an exported method or struct field of internal/.
type member struct {
	dir  string // the declaring package's directory
	name string
}

// surface is what scanSurface finds.
type surface struct {
	// declared holds the exported top-level names of internal/'s
	// non-test files as "pkg/path.Name" (the path under internal/);
	// used and testUsed hold those that some non-test or test file of
	// another package writes as pkg.Name.
	declared, used, testUsed map[string]bool
	// members holds the exported methods and fields of the named types
	// of internal/'s non-test files, keyed "pkg/path.Type.Name";
	// selected and testSelected map a name to the directories whose
	// non-test or test files write .Name or Name:.
	members                map[string]member
	selected, testSelected map[string]map[string]bool
}

// scanSurface parses every Go file of the repository. An external test
// package (package x_test beside x) is x's own.
func scanSurface(t *testing.T) surface {
	t.Helper()
	sf := surface{
		declared: map[string]bool{}, used: map[string]bool{}, testUsed: map[string]bool{},
		members: map[string]member{}, selected: map[string]map[string]bool{}, testSelected: map[string]map[string]bool{},
	}
	fset := token.NewFileSet()
	for _, path := range goFiles(t, ".") {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		isTest := strings.HasSuffix(path, "_test.go")
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok && !isTest {
			for _, name := range exportedDecls(f) {
				sf.declared[pkg+"."+name] = true
			}
			for _, name := range exportedMembers(f) {
				sf.members[pkg+"."+name] = member{dir, name[strings.LastIndex(name, ".")+1:]}
			}
		}
		imports := map[string]string{} // local name → path under internal/
		for _, im := range f.Imports {
			ipath, _ := strconv.Unquote(im.Path.Value)
			pkg, ok := strings.CutPrefix(ipath, "repro/internal/")
			if !ok || "repro/"+dir == ipath {
				continue
			}
			name := pkg[strings.LastIndex(pkg, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = pkg
		}
		used, selected := sf.used, sf.selected
		if isTest {
			used, selected = sf.testUsed, sf.testSelected
		}
		mark := func(name string) {
			if selected[name] == nil {
				selected[name] = map[string]bool{}
			}
			selected[name][dir] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				}
				mark(n.Sel.Name)
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					mark(k.Name)
				}
			}
			return true
		})
	}
	return sf
}

// exportedDecls lists f's exported top-level functions (not methods),
// types, variables and constants.
func exportedDecls(f *ast.File) []string {
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	return names
}

// exportedMembers lists f's exported methods and the exported named
// fields of its top-level struct types, as "Type.Name". A field with a
// json tag is left out: encoding/json names it, and it stays exported
// for that.
func exportedMembers(f *ast.File) []string {
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil && d.Name.IsExported() {
				names = append(names, recvType(d.Recv.List[0].Type)+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if jsonTagged(field) {
						continue
					}
					for _, n := range field.Names {
						if n.IsExported() {
							names = append(names, ts.Name.Name+"."+n.Name)
						}
					}
				}
			}
		}
	}
	return names
}

// jsonTagged reports whether field carries a json tag that encodes it.
func jsonTagged(field *ast.Field) bool {
	if field.Tag == nil {
		return false
	}
	tag, _ := strconv.Unquote(field.Tag.Value)
	name, ok := reflect.StructTag(tag).Lookup("json")
	return ok && name != "-"
}

// recvType names a method's receiver type: T for T, *T, T[P] and *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// goFiles lists the Go files under root, skipping testdata and hidden
// directories.
func goFiles(t *testing.T, root string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// maxFlags bounds the flags the binaries register. It may only fall.
const maxFlags = 38

// cliFlags is every flag of cmd/, by binary, with a file that exercises
// it: a CI job, a test, or a document that shows it in use. The
// deployment settings nothing runs — a path, an address or a timeout
// that differs between installations — name the binary's package doc.
var cliFlags = []struct{ cmd, flag, exerciser string }{
	{"benchtraj", "host", "EXPERIMENTS.md"},
	{"benchtraj", "result", "EXPERIMENTS.md"},
	{"benchtraj", "label", "EXPERIMENTS.md"},
	{"benchtraj", "commit", "EXPERIMENTS.md"},
	{"dsmrun", "app", ".github/workflows/ci.yml"},
	{"dsmrun", "version", ".github/workflows/ci.yml"},
	{"dsmrun", "procs", ".github/workflows/ci.yml"},
	{"dsmrun", "scale", ".github/workflows/ci.yml"},
	{"dsmrun", "protocol", "README.md"},
	{"dsmrun", "homepolicy", "EXPERIMENTS.md"},
	{"dsmrun", "contention", "README.md"},
	{"dsmrun", "json", ".github/workflows/ci.yml"},
	{"dsmrun", "speedup", ".github/workflows/ci.yml"},
	{"dsmrun", "sweep", ".github/workflows/ci.yml"},
	{"dsmrun", "workers", ".github/workflows/ci.yml"},
	{"dsmrun", "fabric", ".github/workflows/ci.yml"},
	{"dsmrun", "fabric-range", ".github/workflows/ci.yml"},
	{"dsmrun", "fabric-lease", ".github/workflows/ci.yml"},
	{"dsmrun", "trace", ".github/workflows/ci.yml"},
	{"dsmrun", "breakdown", ".github/workflows/ci.yml"},
	{"dsmrun", "store", ".github/workflows/ci.yml"},
	{"dsmrun", "metrics-addr", ".github/workflows/ci.yml"},
	{"dsmrun", "progress", ".github/workflows/ci.yml"},
	{"dsmrun", "metrics-dump", ".github/workflows/ci.yml"},
	{"dsmrun", "gen", ".github/workflows/ci.yml"},
	{"dsmrun", "genfile", "EXPERIMENTS.md"},
	{"dsmrun", "list", "README.md"},
	{"dsmrun", "tables", ".github/workflows/ci.yml"},
	{"sweepd", "listen", ".github/workflows/ci.yml"},
	{"sweepd", "store", ".github/workflows/ci.yml"},
	{"sweepd", "drain-timeout", "cmd/sweepd/main.go"},
	{"sweepd", "kill-after", ".github/workflows/ci.yml"},
	{"sweeplint", "n", ".github/workflows/ci.yml"},
	{"sweeplint", "speedup", ".github/workflows/ci.yml"},
	{"sweeplint", "require-schema", ".github/workflows/ci.yml"},
	{"sweeplint", "trace", ".github/workflows/ci.yml"},
	{"sweeplint", "metrics", ".github/workflows/ci.yml"},
	{"sweeplint", "store", ".github/workflows/ci.yml"},
}

// TestFlagsAreExercised: the flags the binaries register are exactly
// cliFlags, at most maxFlags of them, and each one's exerciser still
// mentions it.
func TestFlagsAreExercised(t *testing.T) {
	registered := scanFlags(t)
	listed := map[string]bool{}
	for _, f := range cliFlags {
		key := f.cmd + " -" + f.flag
		listed[key] = true
		if registered[key] == "" {
			t.Errorf("%s is listed but not registered: drop it from the list", key)
		}
		text, err := os.ReadFile(f.exerciser)
		if err != nil {
			t.Errorf("%s: %v", key, err)
			continue
		}
		if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(f.flag) + `([^\w-]|$)`).Match(text) {
			t.Errorf("%s: its exerciser %s no longer mentions it: delete the flag or name what exercises it", key, f.exerciser)
		}
	}
	for key := range registered {
		if !listed[key] {
			t.Errorf("%s is registered but not listed: name what exercises it, or delete it", key)
		}
	}
	if len(registered) > maxFlags {
		t.Errorf("%d flags, more than the %d allowed", len(registered), maxFlags)
	}
	t.Logf("%d flags over %d binaries", len(registered), len(scanDirs(t, "cmd")))
}

// scanFlags maps "binary -name" to Xxx for every flag.Xxx("name", …)
// call in the non-test files of cmd/.
func scanFlags(t *testing.T) map[string]string {
	t.Helper()
	flags := map[string]string{}
	fset := token.NewFileSet()
	for _, dir := range scanDirs(t, "cmd") {
		for _, path := range goFiles(t, filepath.Join("cmd", dir)) {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
					return true
				}
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					flags[dir+" -"+name] = sel.Sel.Name
				}
				return true
			})
		}
	}
	return flags
}

// scanDirs lists the subdirectories of root.
func scanDirs(t *testing.T, root string) []string {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	return dirs
}
