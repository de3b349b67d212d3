package mpeg2par_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The documents whose citations and backticked paths must resolve. A
// missing one is skipped: SKILL.md is a build note, not part of the module.
var citedDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", ".claude/skills/verify/SKILL.md"}

// A citation names a Markdown file and one of its headings:
// DESIGN.md, "Streaming pipeline". A path-qualified file resolves from the
// repository root, a bare one from the citing file's directory first.
var citationRE = regexp.MustCompile(`([\w./-]*\b[A-Z][A-Z0-9_]*\.md), "([^"]+)"`)

// TestDocCitations checks that the documents describe code that exists:
// every `NAME.md, "Heading"` citation in a non-test Go file (or in one of
// citedDocs) names a heading of that file, and every repository path a
// document puts in backticks exists.
func TestDocCitations(t *testing.T) {
	headings := map[string]map[string]bool{}
	headingsOf := func(path string) map[string]bool {
		if h, ok := headings[path]; ok {
			return h
		}
		h := map[string]bool{}
		if data, err := os.ReadFile(path); err == nil {
			for _, l := range strings.Split(string(data), "\n") {
				if strings.HasPrefix(l, "#") {
					h[squash(strings.TrimLeft(l, "#"))] = true
				}
			}
		} else {
			h = nil
		}
		headings[path] = h
		return h
	}
	// check reports each citation in text; at(i) names where byte i lies.
	check := func(at func(int) string, dir, text string) {
		for _, m := range citationRE.FindAllStringSubmatchIndex(text, -1) {
			name, heading := text[m[2]:m[3]], text[m[4]:m[5]]
			doc := filepath.Join(dir, name)
			if strings.Contains(name, "/") || headingsOf(doc) == nil {
				doc = filepath.Clean(name)
			}
			if h := headingsOf(doc); h == nil {
				t.Errorf("%s cites %s, which does not exist", at(m[0]), name)
			} else if !h[heading] {
				t.Errorf("%s cites %s, %q: no such heading", at(m[0]), name, heading)
			}
		}
	}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		text, lines := commentText(t, path)
		check(func(i int) string { return path + ":" + strconv.Itoa(lines[i]) }, filepath.Dir(path), text)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	top, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]bool{}
	for _, e := range top {
		roots[e.Name()] = true
	}
	tick := regexp.MustCompile("`([^`\\s]+)`")
	for _, doc := range citedDocs {
		data, err := os.ReadFile(doc)
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		check(func(int) string { return doc }, filepath.Dir(doc), joinWrapped(string(data)))
		for i, l := range strings.Split(string(data), "\n") {
			for _, m := range tick.FindAllStringSubmatch(l, -1) {
				p := strings.TrimPrefix(m[1], "./")
				if j := strings.IndexByte(p, ':'); j >= 0 {
					p = p[:j]
				}
				first, _, nested := strings.Cut(p, "/")
				if !nested || !roots[first] {
					continue // not a path into the repository
				}
				if matches, _ := filepath.Glob(p); len(matches) == 0 {
					t.Errorf("%s:%d: `%s` does not exist", doc, i+1, m[1])
				}
			}
		}
	}
}

// commentText returns the file's comment lines, the lines of one run of
// comments joined by blanks and runs separated by newlines, so that a
// citation wrapped across lines reads whole; lines[i] is the source line
// of byte i.
func commentText(t *testing.T, path string) (string, []int) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	var lines []int
	in := false
	for n, l := range strings.Split(string(data), "\n") {
		c, ok := strings.CutPrefix(strings.TrimSpace(l), "//")
		if !ok {
			in = false
			continue
		}
		sep := "\n"
		if in {
			sep = " "
		}
		in = true
		c = sep + squash(c)
		b.WriteString(c)
		for range len(c) {
			lines = append(lines, n+1)
		}
	}
	return b.String(), lines
}

// joinWrapped joins a Markdown document's lines within each paragraph.
func joinWrapped(doc string) string {
	paras := strings.Split(doc, "\n\n")
	for i, p := range paras {
		paras[i] = squash(p)
	}
	return strings.Join(paras, "\n")
}

// squash collapses every run of white space to one blank.
func squash(s string) string { return strings.Join(strings.Fields(s), " ") }
