package otisnet

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsBenchmarkNamesExist fails when README.md or DESIGN.md references
// a benchmark that no longer exists in the tree, so the docs cannot drift
// from bench_test.go (the CI docs job runs this explicitly).
func TestDocsBenchmarkNamesExist(t *testing.T) {
	defined := map[string]bool{}
	decl := regexp.MustCompile(`func (Benchmark[A-Za-z0-9_]+)\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("no benchmarks found in the tree")
	}
	// Uppercase after the prefix skips prose words like "Benchmarks".
	ref := regexp.MustCompile(`Benchmark[A-Z][A-Za-z0-9_]*`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, name := range ref.FindAllString(string(src), -1) {
			// Docs may reference a shared prefix ("BenchmarkT7 matches
			// BenchmarkT7SimThroughput") the way `go test -bench` does.
			ok := false
			for full := range defined {
				if strings.HasPrefix(full, name) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s references %s, which no longer exists", doc, name)
			}
		}
	}
}

// TestDocsTestNamesExist applies the same drift guard to the Test and
// Fuzz functions the docs cite as evidence for equivalence claims.
func TestDocsTestNamesExist(t *testing.T) {
	defined := map[string]bool{}
	decl := regexp.MustCompile(`func ((?:Test|Fuzz)[A-Za-z0-9_]+)\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`(?:Test|Fuzz)[A-Z][A-Za-z0-9_]*`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, name := range ref.FindAllString(string(src), -1) {
			ok := false
			for full := range defined {
				if strings.HasPrefix(full, name) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s references %s, which no longer exists", doc, name)
			}
		}
	}
}

// TestDocsFlagsExist applies the same drift guard to README's flag
// tables: every "| `-name` |" row must name a flag that cmd/netsim defines
// (a flag.X("name" or fs.X("name" call), so a deleted flag cannot keep
// its documentation row.
func TestDocsFlagsExist(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("cmd", "netsim", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	decl := regexp.MustCompile(`\b(?:flag|fs)\.[A-Z][A-Za-z0-9]*\("([A-Za-z0-9]+)"`)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
	}
	if len(defined) == 0 {
		t.Fatal("no flags found in cmd/netsim")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| `-([A-Za-z0-9]+)` \\|").FindAllStringSubmatch(string(readme), -1)
	if len(rows) == 0 {
		t.Fatal("no flag table rows found in README.md")
	}
	for _, m := range rows {
		if !defined[m[1]] {
			t.Errorf("README.md documents -%s, which cmd/netsim does not define", m[1])
		}
	}
}

// TestInternalPackagesHaveDocComments keeps every internal package
// documented: some file of each package must carry a line-start
// "// Package <name> " doc comment — the exact invariant the CI docs job
// greps for (`^// Package $pkg `), so the two checks cannot disagree.
func TestInternalPackagesHaveDocComments(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkg := d.Name()
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		docLine := regexp.MustCompile(`(?m)^// Package ` + regexp.QuoteMeta(pkg) + ` `)
		found := false
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if docLine.Match(src) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("internal/%s has no package doc comment", pkg)
		}
	}
}
