package analysis

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture tests: each checker runs over a "bad" package whose every
// violation carries a `// want "substring"` expectation, plus a "good"
// package that must produce no diagnostics. Expectations and diagnostics
// must match one-to-one per line.

func fixtureDir(elem ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, elem...)...)
}

func loadFixture(t *testing.T, specs ...DirSpec) *Program {
	t.Helper()
	prog, err := LoadDirs(specs)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// wantExp is one `// want "..."` expectation from a fixture source line.
type wantExp struct {
	file string
	line int
	text string
	hit  bool
}

var (
	wantRE   = regexp.MustCompile(`// want (.*)$`)
	quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

// collectWants scans the fixture sources for want expectations.
func collectWants(t *testing.T, dirs ...string) []*wantExp {
	t.Helper()
	var wants []*wantExp
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				m := wantRE.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				quoted := quotedRE.FindAllStringSubmatch(m[1], -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted expectation", path, i+1)
				}
				for _, q := range quoted {
					wants = append(wants, &wantExp{file: filepath.Clean(path), line: i + 1, text: q[1]})
				}
			}
		}
	}
	return wants
}

// checkFixture runs the checkers over the fixture packages and requires the
// diagnostics to line up exactly with the want expectations.
func checkFixture(t *testing.T, checkers []Checker, specs ...DirSpec) {
	t.Helper()
	prog := loadFixture(t, specs...)
	diags := Run(prog, checkers)
	dirs := make([]string, 0, len(specs))
	for _, s := range specs {
		dirs = append(dirs, s.Dir)
	}
	wants := collectWants(t, dirs...)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == filepath.Clean(d.Pos.Filename) && w.line == d.Pos.Line && strings.Contains(d.Message, w.text) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic containing %q", w.file, w.line, w.text)
		}
	}
}

func TestLockCheckFixtures(t *testing.T) {
	checkFixture(t, []Checker{LockCheck{}},
		DirSpec{ImportPath: "fix/lockbad", Dir: fixtureDir("lockbad")},
		DirSpec{ImportPath: "fix/lockgood", Dir: fixtureDir("lockgood")},
	)
}

func TestErrCheckFixtures(t *testing.T) {
	checkFixture(t, []Checker{ErrCheck{}},
		DirSpec{ImportPath: "fix/errbad", Dir: fixtureDir("errbad")},
		DirSpec{ImportPath: "fix/errgood", Dir: fixtureDir("errgood")},
	)
}

func TestCtxCheckFixtures(t *testing.T) {
	chk := CtxCheck{
		TargetPkgs:     []string{"fix/ctxbad", "fix/ctxgood"},
		BlockingIfaces: []string{"fix/ctxbad.Sender"},
		Exempt:         []string{"Close", "Stop", "String", "Error", "Unwrap"},
	}
	checkFixture(t, []Checker{chk},
		DirSpec{ImportPath: "fix/ctxbad", Dir: fixtureDir("ctxbad")},
		DirSpec{ImportPath: "fix/ctxgood", Dir: fixtureDir("ctxgood")},
	)
}

func wireFixtureCheck(base string) WireCheck {
	return WireCheck{
		WirePath:   "fix/" + base + "/wire",
		ClientPath: "fix/" + base + "/client",
		OpTypeName: "Op",
		SkipOps:    []string{"OpInvalid"},
	}
}

func wireFixtureSpecs(base string) []DirSpec {
	return []DirSpec{
		{ImportPath: "fix/" + base + "/wire", Dir: fixtureDir(base, "wire")},
		{ImportPath: "fix/" + base + "/client", Dir: fixtureDir(base, "client")},
	}
}

func TestWireCheckFixtures(t *testing.T) {
	checkFixture(t, []Checker{wireFixtureCheck("wirebad")}, wireFixtureSpecs("wirebad")...)
	checkFixture(t, []Checker{wireFixtureCheck("wiregood")}, wireFixtureSpecs("wiregood")...)
}

func TestLeakCheckFixtures(t *testing.T) {
	chk := LeakCheck{TargetPkgs: []string{"fix/leakbad", "fix/leakgood"}}
	checkFixture(t, []Checker{chk},
		DirSpec{ImportPath: "fix/leakbad", Dir: fixtureDir("leakbad")},
		DirSpec{ImportPath: "fix/leakgood", Dir: fixtureDir("leakgood")},
	)
}

func TestLeakCheckMembershipFixtures(t *testing.T) {
	chk := LeakCheck{TargetPkgs: []string{"fix/memberbad", "fix/membergood"}}
	checkFixture(t, []Checker{chk},
		DirSpec{ImportPath: "fix/memberbad", Dir: fixtureDir("memberbad")},
		DirSpec{ImportPath: "fix/membergood", Dir: fixtureDir("membergood")},
	)
}

func TestClockCheckFixtures(t *testing.T) {
	chk := ClockCheck{Policies: map[string]ClockPolicy{
		"fix/clockbad":  {NoRawTime: true, NoGlobalRand: true},
		"fix/clockgood": {NoRawTime: true, NoGlobalRand: true},
	}}
	checkFixture(t, []Checker{chk},
		DirSpec{ImportPath: "fix/clockbad", Dir: fixtureDir("clockbad")},
		DirSpec{ImportPath: "fix/clockgood", Dir: fixtureDir("clockgood")},
	)
}

func TestDirectives(t *testing.T) {
	prog := loadFixture(t, DirSpec{ImportPath: "fix/dirfix", Dir: fixtureDir("dirfix")})
	diags := Run(prog, []Checker{ErrCheck{}})
	var unused, missingReason, emptyName int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "unused //lint:ignore directive for errcheck"):
			unused++
		case strings.Contains(d.Message, "needs a checker name and a justification"):
			missingReason++
		case strings.Contains(d.Message, "empty checker name"):
			emptyName++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if unused != 1 || missingReason != 1 || emptyName != 1 {
		t.Errorf("directive diagnostics = %d unused, %d missing-reason, %d empty-name; want 1, 1 and 1",
			unused, missingReason, emptyName)
	}
}

func TestLoadErrorCarriesPackagePath(t *testing.T) {
	_, err := LoadDirs([]DirSpec{{ImportPath: "fix/typeerr", Dir: fixtureDir("typeerr")}})
	if err == nil {
		t.Fatal("loading fix/typeerr succeeded; want a type-check failure")
	}
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("error %v (%T) is not a *LoadError", err, err)
	}
	if le.Path != "fix/typeerr" {
		t.Errorf("LoadError.Path = %q, want fix/typeerr", le.Path)
	}
	if le.Unwrap() == nil {
		t.Error("LoadError.Unwrap() = nil, want the underlying type error")
	}
}

func TestMatchAny(t *testing.T) {
	cases := []struct {
		rel, pat string
		want     bool
	}{
		{"internal/wire", "./...", true},
		{"internal/wire", "...", true},
		{"internal/wire", "./internal/...", true},
		{"internal/wire", "internal/wire", true},
		{"internal/wirecheck", "./internal/wire", false},
		{"cmd/rls", "./internal/...", false},
	}
	for _, c := range cases {
		if got := matchAny(c.rel, []string{c.pat}); got != c.want {
			t.Errorf("matchAny(%q, %q) = %v, want %v", c.rel, c.pat, got, c.want)
		}
	}
}

func TestFindModuleRoot(t *testing.T) {
	root, modPath, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if modPath != "repro" {
		t.Errorf("module path = %q, want repro", modPath)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("root %q has no go.mod: %v", root, err)
	}
}
