package repro

// The surface tests pin what the stack exposes: the exported names of
// internal/ that no other package names, and the flags of cmd/. Both
// lists may only shrink. A new exported name that only its own package
// uses is unexported, deleted, or allow-listed below with the reason an
// exported signature needs it; a new flag names the CI job, test or
// document that exercises it.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// maxUnusedExported bounds the exported top-level names of internal/
// that no other package writes as pkg.Name. It may only fall.
const maxUnusedExported = 36

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
	"loopc.ArrayUse":            "type of NestInfo.Uses",
	"loopc.Class":               "type of NestInfo.Class",
	"loopc.DOALL":               "a Class value; its sibling Serial is named outside",
	"loopc.Reduction":           "a Class value; its sibling Serial is named outside",
	"loopc.Dep":                 "type of NestInfo.Deps",
	"loopc.Extent":              "returned by Ext; type of Loop.Lo and Loop.Hi",
	"loopc.HaloNeed":            "type of Step.Halo",
	"loopc.NestInfo":            "returned by Analyze",
	"loopc.ReduceOp":            "type of Stmt.Op",
	"loopc.Reference":           "the sequential reference loopc's tests hold every backend to",
	"loopc.RowPartition":        "returned by PartitionFor, taken by Oracle",
	"loopc.Step":                "returned by Plan",
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
	declared, used := scanNames(t)
	var unused []string
	for name := range declared {
		if !used[name] {
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
		if !declared[name] {
			t.Errorf("allow-listed %s is not an exported name of internal/ any more: drop it from the list", name)
		} else if used[name] {
			t.Errorf("allow-listed %s is named outside its package now: drop it from the list", name)
		}
	}
	if len(unused) > maxUnusedExported {
		t.Errorf("%d exported names are used only by their own package, more than the %d allowed", len(unused), maxUnusedExported)
	}
	t.Logf("%d of %d exported names of internal/ are used only by their own package", len(unused), len(declared))
}

// scanNames parses every Go file of the repository. declared holds the
// exported top-level names of internal/'s non-test files as
// "pkg/path.Name" (the path under internal/); used holds those some
// file of another package writes as pkg.Name. An external test package
// (package x_test beside x) is x's own.
func scanNames(t *testing.T) (declared, used map[string]bool) {
	t.Helper()
	declared, used = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range goFiles(t, ".") {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if pkg, ok := strings.CutPrefix(dir, "internal/"); ok && !strings.HasSuffix(path, "_test.go") {
			for _, name := range exportedDecls(f) {
				declared[pkg+"."+name] = true
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
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return declared, used
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
const maxFlags = 40

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
	{"dsmrun", "store-max-bytes", "README.md"},
	{"dsmrun", "metrics-addr", ".github/workflows/ci.yml"},
	{"dsmrun", "progress", ".github/workflows/ci.yml"},
	{"dsmrun", "metrics-dump", ".github/workflows/ci.yml"},
	{"dsmrun", "gen", ".github/workflows/ci.yml"},
	{"dsmrun", "genfile", "EXPERIMENTS.md"},
	{"dsmrun", "list", "README.md"},
	{"dsmrun", "tables", ".github/workflows/ci.yml"},
	{"sweepd", "listen", ".github/workflows/ci.yml"},
	{"sweepd", "store", ".github/workflows/ci.yml"},
	{"sweepd", "store-max-bytes", "cmd/sweepd/main.go"},
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
		if !registered[key] {
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

// scanFlags returns "binary -name" for every flag.Xxx("name", …) call
// in the non-test files of cmd/.
func scanFlags(t *testing.T) map[string]bool {
	t.Helper()
	flags := map[string]bool{}
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
					flags[dir+" -"+name] = true
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
