package pilotrf

// A CI-coverage gate: every fuzz target in the module runs in the CI
// fuzz tier. `go test ./...` runs a target's seed corpus only, so a
// target left out of the tier is never fuzzed.

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestEveryFuzzTargetRunsInCI fails on any `func FuzzX(` in the
// module's _test.go files that has no `-fuzz '^FuzzX$'` step for its
// package in .github/workflows/ci.yml.
func TestEveryFuzzTargetRunsInCI(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(ci), "\n")
	target := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := 0
	for _, path := range moduleGoFiles(t) {
		dir := filepath.Dir(path)
		if !strings.HasSuffix(path, "_test.go") || inNestedModule(dir) {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pkg := "./" + filepath.ToSlash(dir)
		if dir == "." {
			pkg = "."
		}
		for _, m := range target.FindAllSubmatch(src, -1) {
			found++
			flag := "-fuzz '^" + string(m[1]) + "$'"
			if !slices.ContainsFunc(lines, func(l string) bool {
				return strings.Contains(l, flag) && slices.Contains(strings.Fields(l), pkg)
			}) {
				t.Errorf("%s: %s has no `go test -run '^$' %s -fuzztime 20s %s` step in the CI fuzz tier",
					path, m[1], flag, pkg)
			}
		}
	}
	if found == 0 {
		t.Fatal("found no fuzz targets")
	}
}

// inNestedModule reports whether dir lies in a module of its own below
// the root, such as bench/.
func inNestedModule(dir string) bool {
	for ; dir != "."; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return true
		}
	}
	return false
}
