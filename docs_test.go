package repro

// The docs tests hold DESIGN.md, EXPERIMENTS.md and README.md to the
// tree: every test they cite exists, DESIGN.md is one section per
// top-level directory in import order within a line budget, README's
// package table covers internal/, neither design nor experiment notes
// carry per-change history, and every go run ./cmd/… command they show
// parses with the binary's registered flags and values.

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
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
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	defined := map[string]bool{}
	for _, path := range goFiles(t, ".") {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllSubmatch(b, -1) {
			defined[string(m[1])] = true
		}
	}
	return defined
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
				if placeholderRE.MatchString(line) {
					continue
				}
				for _, cmd := range goRuns(words) {
					checked++
					if err := checkCommand(cmd[0], cmd[1:], kinds); err != nil {
						t.Errorf("%s: %q: %v", doc, line, err)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no go run ./cmd/… command found in a fenced sh block")
	}
	t.Logf("%d commands checked", checked)
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

// goRuns returns each go run ./cmd/X command of a line's words as X
// followed by its arguments, up to the next |, &, ;, < or >.
func goRuns(words []string) [][]string {
	var cmds [][]string
	for i := 0; i+2 < len(words); i++ {
		bin, ok := strings.CutPrefix(words[i+2], "./cmd/")
		if words[i] != "go" || words[i+1] != "run" || !ok {
			continue
		}
		cmd := []string{strings.TrimSuffix(bin, "/")}
		for i += 3; i < len(words) && !isOperator(words[i]); i++ {
			cmd = append(cmd, words[i])
		}
		cmds = append(cmds, cmd)
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
