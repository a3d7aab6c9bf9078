package repro

// The docs tests hold DESIGN.md, EXPERIMENTS.md and README.md to the
// tree: every test they cite exists, DESIGN.md is one section per
// top-level directory in import order within a line budget, README's
// package table covers internal/, neither design nor experiment notes
// carry per-change history, every go run ./cmd/… command they show
// parses with the binary's registered flags and values, and every go
// test command they show names packages and test patterns that exist.

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/harness"
)

// maxDesignLines bounds DESIGN.md. It may only fall.
const maxDesignLines = 900

// docs are the documents the tests read.
var docs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"}

var (
	citeRE        = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	placeholderRE = regexp.MustCompile(`\.\.\.|<[a-z-]+>`)
	assignRE      = regexp.MustCompile(`^([A-Z_]+)=(.*)$`)
	varRE         = regexp.MustCompile(`^\$(?:\{([A-Za-z_]\w*)\}|([A-Za-z_]\w*))`)
	testDeclRE    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDocsCiteExistingTests: every Test…, Benchmark… and Fuzz… name the
// documents cite is a function of some _test.go file.
func TestDocsCiteExistingTests(t *testing.T) {
	defined := definedTests(t)
	for _, doc := range docs {
		for i, line := range strings.Split(readDoc(t, doc), "\n") {
			for _, name := range citeRE.FindAllString(line, -1) {
				if !defined[name] {
					t.Errorf("%s:%d cites %s, which no _test.go file defines", doc, i+1, name)
				}
			}
		}
	}
}

// definedTests is the set of test, benchmark and fuzz functions of
// every _test.go file in the repository.
func definedTests(t *testing.T) map[string]bool {
	t.Helper()
	defined := map[string]bool{}
	for _, path := range goFiles(t, ".") {
		if strings.HasSuffix(path, "_test.go") {
			testFuncs(t, path, defined)
		}
	}
	return defined
}

// testFuncs adds the test, benchmark and fuzz functions of one
// _test.go file to names.
func testFuncs(t *testing.T, path string, names map[string]bool) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range testDeclRE.FindAllSubmatch(b, -1) {
		names[string(m[1])] = true
	}
}

// TestDesignSectionsFollowImports: DESIGN.md's ## sections name every
// top-level directory of internal/ and cmd, each once, in an order in
// which no section's package imports a later section's (apps and loopc
// import each other); each section ends with a Held by: line citing a
// test; and the file is at most maxDesignLines lines.
func TestDesignSectionsFollowImports(t *testing.T) {
	text := readDoc(t, "DESIGN.md")
	if n := strings.Count(text, "\n"); n > maxDesignLines {
		t.Errorf("DESIGN.md has %d lines, more than the %d allowed", n, maxDesignLines)
	}
	var want []string
	for _, d := range scanDirs(t, "internal") {
		want = append(want, "internal/"+d)
	}
	want = append(want, "cmd")
	sections := designSections(text)
	var got []string
	for _, s := range sections {
		got = append(got, s.dir)
	}
	for _, d := range want {
		if !slices.Contains(got, d) {
			t.Errorf("DESIGN.md has no section for %s", d)
		}
	}
	pos := map[string]int{}
	for i, d := range got {
		if !slices.Contains(want, d) {
			t.Errorf("DESIGN.md section %q names no top-level directory", d)
		}
		if _, dup := pos[d]; dup {
			t.Errorf("DESIGN.md has two sections for %s", d)
		}
		pos[d] = i
	}
	for _, s := range sections {
		if !strings.HasPrefix(s.heldBy, "Held by:") || !citeRE.MatchString(s.heldBy) {
			t.Errorf("DESIGN.md section %s does not end with a Held by: line citing a test", s.dir)
		}
		if !slices.Contains(want, s.dir) {
			continue
		}
		for imp := range dirImports(t, s.dir) {
			j, ok := pos[imp]
			mutual := (s.dir == "internal/apps" && imp == "internal/loopc") || (s.dir == "internal/loopc" && imp == "internal/apps")
			if ok && j > pos[s.dir] && !mutual {
				t.Errorf("DESIGN.md: %s imports %s, whose section comes later", s.dir, imp)
			}
		}
	}
}

// designSection is one ## section of DESIGN.md: the directory its
// heading names (its first `quoted` word) and its last paragraph.
type designSection struct {
	dir, heldBy string
}

func designSections(text string) []designSection {
	var out []designSection
	quoted := regexp.MustCompile("`([^`]+)`")
	for _, part := range strings.Split(text, "\n## ")[1:] {
		heading, body, _ := strings.Cut(part, "\n")
		dir := heading
		if m := quoted.FindStringSubmatch(heading); m != nil {
			dir = m[1]
		}
		paras := strings.Split(strings.TrimSpace(body), "\n\n")
		out = append(out, designSection{dir, paras[len(paras)-1]})
	}
	return out
}

// dirImports is the set of top-level directories (internal/x or cmd)
// that the non-test files under dir import, other than dir itself.
func dirImports(t *testing.T, dir string) map[string]bool {
	t.Helper()
	imports := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range goFiles(t, dir) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range f.Imports {
			ipath, _ := strconv.Unquote(im.Path.Value)
			rest, ok := strings.CutPrefix(ipath, "repro/")
			if !ok {
				continue
			}
			parts := strings.SplitN(rest, "/", 3)
			top := parts[0]
			if top == "internal" && len(parts) > 1 {
				top += "/" + parts[1]
			}
			if top != filepath.ToSlash(dir) {
				imports[top] = true
			}
		}
	}
	return imports
}

// TestReadmeTableCoversInternal: README's package table has a row for
// every top-level directory of internal/.
func TestReadmeTableCoversInternal(t *testing.T) {
	var firsts []string
	for _, line := range strings.Split(readDoc(t, "README.md"), "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && cells[0] == "" {
			firsts = append(firsts, cells[1])
		}
	}
	for _, d := range scanDirs(t, "internal") {
		row := func(cell string) bool {
			return strings.Contains(cell, "`internal/"+d+"`") || strings.Contains(cell, "`internal/"+d+"/")
		}
		if !slices.ContainsFunc(firsts, row) {
			t.Errorf("README.md's package table has no row for internal/%s", d)
		}
	}
}

// TestNoChangeHistoryInDocs: DESIGN.md and EXPERIMENTS.md describe the
// tree as it is; which change did what is CHANGES.md's.
func TestNoChangeHistoryInDocs(t *testing.T) {
	pr := regexp.MustCompile(`\bPRs? [0-9]+`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		for i, line := range strings.Split(readDoc(t, doc), "\n") {
			if m := pr.FindString(line); m != "" {
				t.Errorf("%s:%d names %q: per-change history belongs in CHANGES.md", doc, i+1, m)
			}
		}
	}
}

// TestDocCommandsParse: every go run ./cmd/… command of a fenced sh
// block uses only flags its binary registers, with a value where the
// flag takes one, and the values the engine resolves resolve: -app,
// -version, -tables and -sweep. A variable set earlier in the block is
// substituted; a line holding a placeholder (... or <name>) is skipped.
func TestDocCommandsParse(t *testing.T) {
	kinds := scanFlags(t)
	checked := 0
	docLines(t, func(doc, line string, words []string) {
		if placeholderRE.MatchString(line) {
			return
		}
		for _, cmd := range goRuns(words) {
			checked++
			if err := checkCommand(cmd[0], cmd[1:], kinds); err != nil {
				t.Errorf("%s: %q: %v", doc, line, err)
			}
		}
	})
	if checked == 0 {
		t.Error("no go run ./cmd/… command found in a fenced sh block")
	}
	t.Logf("%d commands checked", checked)
}

// TestDocGoTestCommandsResolve: every go test command of a fenced sh
// block names packages that exist (./dir/... expanded as go expands
// it), and each -run, -bench or -fuzz pattern other than ^$ and .
// matches a function of its kind in them: -run a Test or Fuzz
// function, -bench a Benchmark, -fuzz a Fuzz. A line holding a
// placeholder (<name>, or ... outside a ./dir/... pattern) is skipped.
func TestDocGoTestCommandsResolve(t *testing.T) {
	checked := 0
	docLines(t, func(doc, line string, words []string) {
		if placeholderRE.MatchString(strings.ReplaceAll(line, "/...", "/")) {
			return
		}
		for _, args := range goCommands(words, "test") {
			checked++
			if err := checkGoTest(t, args); err != nil {
				t.Errorf("%s: %q: %v", doc, line, err)
			}
		}
	})
	if checked == 0 {
		t.Error("no go test command found in a fenced sh block")
	}
	t.Logf("%d commands checked", checked)
}

// docLines calls f with the words of every logical line of every
// fenced sh block of the documents, after substituting the variables
// set earlier in its block; an assignment line itself is not passed.
func docLines(t *testing.T, f func(doc, line string, words []string)) {
	t.Helper()
	for _, doc := range docs {
		for _, block := range shBlocks(readDoc(t, doc)) {
			vars := map[string]string{}
			for _, line := range block {
				words, err := shellWords(line, vars)
				if err != nil {
					t.Errorf("%s: %q: %v", doc, line, err)
					continue
				}
				if len(words) == 1 {
					if m := assignRE.FindStringSubmatch(words[0]); m != nil {
						vars[m[1]] = m[2]
						continue
					}
				}
				f(doc, line, words)
			}
		}
	}
}

// goTestValueFlags and goTestBoolFlags are the go test flags the
// documents may show.
var (
	goTestValueFlags = []string{"bench", "benchtime", "count", "cpu", "fuzz", "fuzztime",
		"run", "skip", "timeout", "tags", "coverprofile", "cpuprofile", "memprofile"}
	goTestBoolFlags = []string{"benchmem", "cover", "failfast", "json", "race", "short", "v"}
)

// testKinds maps a pattern flag of go test to the function prefixes
// its pattern selects from.
var testKinds = map[string][]string{
	"run":   {"Test", "Fuzz"},
	"bench": {"Benchmark"},
	"fuzz":  {"Fuzz"},
}

// checkGoTest parses args as go test's, run from the repository root,
// and resolves its packages and patterns.
func checkGoTest(t *testing.T, args []string) error {
	t.Helper()
	var pkgs []string
	patterns := map[string]string{}
	for i := 0; i < len(args); i++ {
		name, ok := strings.CutPrefix(args[i], "-")
		if !ok {
			pkgs = append(pkgs, args[i])
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimPrefix(name, "-"), "=")
		takesVal := slices.Contains(goTestValueFlags, name)
		switch {
		case !takesVal && !slices.Contains(goTestBoolFlags, name):
			return fmt.Errorf("go test flag -%s is in neither goTestValueFlags nor goTestBoolFlags", name)
		case takesVal && !hasVal:
			if i+1 == len(args) {
				return fmt.Errorf("-%s needs a value", name)
			}
			i++
			val = args[i]
		}
		if testKinds[name] != nil {
			patterns[name] = val
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	funcs := map[string]bool{}
	for _, pkg := range pkgs {
		dirs := goTestDirs(t, pkg)
		if len(dirs) == 0 {
			return fmt.Errorf("package %s does not exist", pkg)
		}
		for _, dir := range dirs {
			paths, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
			for _, path := range paths {
				testFuncs(t, path, funcs)
			}
		}
	}
	for flag, pat := range patterns {
		if pat == "^$" || pat == "." {
			continue
		}
		// go test matches a top-level function against the pattern's
		// first /-separated element.
		re, err := regexp.Compile(strings.Split(pat, "/")[0])
		if err != nil {
			return fmt.Errorf("-%s %q: %v", flag, pat, err)
		}
		matched := false
		for name := range funcs {
			for _, kind := range testKinds[flag] {
				matched = matched || strings.HasPrefix(name, kind) && re.MatchString(name)
			}
		}
		if !matched {
			return fmt.Errorf("-%s %q matches no %s function in %s", flag, pat, strings.Join(testKinds[flag], " or "), strings.Join(pkgs, " "))
		}
	}
	return nil
}

// goTestDirs expands a go test package argument to the package
// directories it names, as go does from the module root: ./dir/... is
// every directory under dir holding a .go file, without testdata, dot
// and underscore directories and nested modules.
func goTestDirs(t *testing.T, pkg string) []string {
	t.Helper()
	root, all := strings.CutSuffix(pkg, "/...")
	isPkg := func(dir string) bool {
		paths, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		return len(paths) > 0
	}
	if !all {
		if isPkg(pkg) {
			return []string{pkg}
		}
		return nil
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if isPkg(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	return dirs
}

// shBlocks returns the logical lines of every ```sh block of text,
// with backslash-newline continuations joined.
func shBlocks(text string) [][]string {
	var blocks [][]string
	var block []string
	in, cont := false, ""
	for _, line := range strings.Split(text, "\n") {
		switch {
		case !in && strings.TrimSpace(line) == "```sh":
			in, block = true, nil
		case in && strings.TrimSpace(line) == "```":
			in = false
			blocks = append(blocks, block)
		case in:
			if s, ok := strings.CutSuffix(line, "\\"); ok {
				cont += s + " "
				continue
			}
			block = append(block, cont+line)
			cont = ""
		}
	}
	return blocks
}

// shellWords splits a shell line into words the way sh does for the
// lines the documents show: single and double quotes, $NAME and
// ${NAME} outside single quotes, # comments, and |, &, ;, < and > as
// words of their own.
func shellWords(line string, vars map[string]string) ([]string, error) {
	var words []string
	var w strings.Builder
	inWord := false
	flush := func() {
		if inWord {
			words = append(words, w.String())
			w.Reset()
			inWord = false
		}
	}
	var quote byte
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote == '\'':
			if c == '\'' {
				quote = 0
			} else {
				w.WriteByte(c)
			}
		case c == '$':
			m := varRE.FindStringSubmatch(line[i:])
			if m == nil {
				w.WriteByte(c)
				inWord = true
				continue
			}
			name := m[1] + m[2]
			val, ok := vars[name]
			if !ok {
				return nil, fmt.Errorf("$%s is not set earlier in its block", name)
			}
			w.WriteString(val)
			inWord = true
			i += len(m[0]) - 1
		case quote == '"':
			if c == '"' {
				quote = 0
			} else {
				w.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote = c
			inWord = true
		case c == '#' && !inWord:
			flush()
			return words, nil
		case c == ' ' || c == '\t':
			flush()
		case isOperator(string(c)):
			flush()
			words = append(words, string(c))
		default:
			w.WriteByte(c)
			inWord = true
		}
	}
	if quote != 0 {
		return nil, errors.New("unterminated quote")
	}
	flush()
	return words, nil
}

// isOperator reports whether w is one of the words that end a command.
func isOperator(w string) bool {
	return len(w) == 1 && strings.Contains("|&;<>", w)
}

// goCommands returns the arguments of each go <sub> command of a
// line's words, up to the next |, &, ;, < or >.
func goCommands(words []string, sub string) [][]string {
	var cmds [][]string
	for i := 0; i+1 < len(words); i++ {
		if words[i] != "go" || words[i+1] != sub {
			continue
		}
		var args []string
		for i += 2; i < len(words) && !isOperator(words[i]); i++ {
			args = append(args, words[i])
		}
		cmds = append(cmds, args)
	}
	return cmds
}

// goRuns returns each go run ./cmd/X command of a line's words as X
// followed by its arguments.
func goRuns(words []string) [][]string {
	var cmds [][]string
	for _, args := range goCommands(words, "run") {
		if len(args) == 0 {
			continue
		}
		if bin, ok := strings.CutPrefix(args[0], "./cmd/"); ok {
			cmds = append(cmds, append([]string{strings.TrimSuffix(bin, "/")}, args[1:]...))
		}
	}
	return cmds
}

// checkCommand parses args as the flags of binary bin and checks the
// values the engine resolves.
func checkCommand(bin string, args []string, kinds map[string]string) error {
	for i := 0; i < len(args); i++ {
		name, ok := strings.CutPrefix(args[i], "-")
		if !ok {
			return fmt.Errorf("argument %q is no flag", args[i])
		}
		name = strings.TrimPrefix(name, "-")
		name, val, hasVal := strings.Cut(name, "=")
		kind := kinds[bin+" -"+name]
		switch {
		case kind == "":
			return fmt.Errorf("%s registers no flag -%s", bin, name)
		case kind != "Bool" && !hasVal:
			if i+1 == len(args) {
				return fmt.Errorf("-%s needs a value", name)
			}
			i++
			val = args[i]
		}
		if bin == "dsmrun" {
			if err := checkDsmrunValue(name, val); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkDsmrunValue resolves the value of one of dsmrun's -app,
// -version, -tables and -sweep as dsmrun does.
func checkDsmrunValue(name, val string) error {
	version := func(v string) error {
		for _, row := range core.VersionTable() {
			if string(row.Version) == v {
				return nil
			}
		}
		return fmt.Errorf("version %q is not in core.VersionTable", v)
	}
	switch name {
	case "app":
		_, err := exp.AppByName(val)
		return err
	case "version":
		return version(val)
	case "tables":
		_, err := harness.Select(val)
		return err
	case "sweep":
		axes, err := exp.ParseAxes(strings.Fields(val))
		if err != nil {
			return err
		}
		for _, app := range axes.Apps {
			if _, err := exp.AppByName(app); err != nil {
				return err
			}
		}
		for _, v := range axes.Versions {
			if err := version(string(v)); err != nil {
				return err
			}
		}
	}
	return nil
}
