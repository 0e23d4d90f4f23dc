package memscale

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatterns keeps the CI workflow pointed at tests that exist.
// `go test -run <pattern>` passes with "no tests to run" when nothing
// matches, so a renamed test would silently drop out of CI. Every
// |-alternative of each -run and -fuzz pattern must match a Test, Fuzz
// or Example function in the packages its command names; '^$', which
// runs no tests on purpose (the fuzz and benchmark steps), is exempt.
func TestCIRunPatterns(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`-(?:run|fuzz)[= ]['"]?([^'" ]+)`)
	checked := 0
	for _, line := range strings.Split(string(data), "\n") {
		_, cmd, ok := strings.Cut(line, "run: go test ")
		if !ok {
			continue
		}
		var names []string
		pkgs := slices.DeleteFunc(strings.Fields(cmd), func(a string) bool { return !strings.HasPrefix(a, ".") })
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		for _, pkg := range pkgs {
			names = append(names, testFuncs(t, pkg)...)
		}
		for _, m := range flag.FindAllStringSubmatch(cmd, -1) {
			if m[1] == "^$" {
				continue
			}
			for _, alt := range alternatives(m[1]) {
				checked++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: %v", cmd, err)
				} else if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("%s: %q matches no Test, Fuzz or Example function", cmd, alt)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz pattern in ci.yml")
	}
}

// alternatives splits a -run pattern's top level (before any subtest
// '/') into its |-alternatives, keeping the pattern's anchors on each:
// "^(A|B)$" gives "^A$" and "^B$".
func alternatives(p string) []string {
	p, _, _ = strings.Cut(p, "/")
	var pre, post string
	if strings.HasPrefix(p, "^") {
		pre, p = "^", p[1:]
	}
	if strings.HasSuffix(p, "$") {
		post, p = "$", p[:len(p)-1]
	}
	alts := strings.Split(strings.TrimSuffix(strings.TrimPrefix(p, "("), ")"), "|")
	for i := range alts {
		alts[i] = pre + alts[i] + post
	}
	return alts
}

var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)

// testFuncs lists the Test, Fuzz and Example functions declared in the
// package pkg names ("./dir" or "./dir/...").
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	root, recursive := strings.CutSuffix(pkg, "...")
	root = filepath.Clean(root)
	var names []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && !recursive && path != root:
			return filepath.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
