package main

import (
	"bufio"
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// The benchmark may use the product packages it measures and nothing else of
// this repository: a later change to the repo's own load generators, harness
// or metrics code must not be able to move the ruler.
func TestImportsAllowlist(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"core", "client", "wire", "lrc", "rli", "rdb", "storage", "btree", "bloom", "ring", "disk", "netsim"} {
		allowed["repro/internal/"+p] = true
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for file, f := range pkg.Files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				first, _, _ := strings.Cut(path, "/")
				switch {
				case first == "repro":
					if !allowed[path] {
						t.Errorf("%s imports %s, which is not a measured product package", file, path)
					}
				case strings.Contains(first, "."):
					t.Errorf("%s imports %s from outside the standard library", file, path)
				}
			}
		}
	}
}

// liar answers every call successfully and wrongly.
type liar struct{}

func (liar) GetTargets(context.Context, string) ([]string, error) {
	return []string{"gsiftp://elsewhere.example.org/wrong"}, nil
}

func (liar) RLIQuery(context.Context, string) ([]string, error) {
	return []string{"rls://some-other-lrc"}, nil
}

func (liar) BulkCreate(context.Context, []wire.Mapping) ([]wire.BulkFailure, error) {
	return []wire.BulkFailure{{Index: 0, Msg: "exists"}}, nil
}

func (liar) BulkDelete(context.Context, []wire.Mapping) ([]wire.BulkFailure, error) {
	return []wire.BulkFailure{{Index: 0, Msg: "not found"}}, nil
}

// BulkGetTargets answers correctly but in reverse order.
func (liar) BulkGetTargets(_ context.Context, names []string) ([]wire.BulkNameResult, error) {
	out := make([]wire.BulkNameResult, len(names))
	for i, n := range names {
		out[len(names)-1-i] = wire.BulkNameResult{Name: n, Found: true, Values: []string{strings.Replace(n, "lfn://", "gsiftp://site0.example.org/", 1)}}
	}
	return out, nil
}

func TestWrongAnswersCountAsFailures(t *testing.T) {
	e := env{catalog: 2000, seed: 1}
	keys := newKeyspace(newTable("liar", e.catalog), e.seed)
	rli := &rliRig{e: e, keys: keys, lrcURL: "rls://lrc0"}
	// Only the database-backed RLI's answers are exact; pin the caller to it.
	rliCallers := []caller{}
	for i := 0; i < 2; i++ {
		rliCallers = append(rliCallers, &dbOnly{rliCaller{rig: rli, conns: [2]rliReader{liar{}, liar{}}, rng: callerRand(e, i)}})
	}
	shard := &shardRig{e: e, keys: keys}
	for name, callers := range map[string][]caller{
		"get": {&getCaller{conn: liar{}, keys: keys, rng: callerRand(e, 0)}},
		"rli": rliCallers,
		"bulk": {&bulkCaller{rig: shard, conn: liar{}, rng: callerRand(e, 0),
			names: make([]string, bulkGetSize), idxs: make([]int, bulkGetSize)}},
	} {
		p := runPhase(context.Background(), callers, 50*time.Millisecond, nil, spanRef{})
		if p.attempted == 0 || p.failed != p.attempted {
			t.Errorf("%s: %d of %d ops failed against a lying connection, want all (first: %v)", name, p.failed, p.attempted, p.firstErr)
		}
		if len(p.lat) != 0 {
			t.Errorf("%s: %d latency samples from failed ops", name, len(p.lat))
		}
	}
}

type dbOnly struct{ rliCaller }

func (c *dbOnly) prepare() {
	c.rliCaller.prepare()
	c.bloom = false
}

// A key the catalog lost behind the model's back is a durability miss.
func TestChurnEndStateMismatchCounts(t *testing.T) {
	ctx := context.Background()
	r, err := setupLRCChurn(ctx, env{catalog: 2000, seed: 1, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	callers := newCallers(r, 4)
	if p := runPhase(ctx, callers, 300*time.Millisecond, nil, spanRef{}); p.failed != 0 {
		t.Fatalf("%d of %d ops failed: %v", p.failed, p.attempted, p.firstErr)
	}
	var victim *churnCaller
	for _, c := range r.(*churnRig).callers {
		if c.next > c.head {
			victim = c
		}
	}
	if victim == nil {
		t.Fatal("no caller has a live key")
	}
	lfn, pfn := victim.names(victim.head)
	node, _ := r.deployment().Node("lrc0")
	if err := node.LRC.DeleteMapping(ctx, lfn, pfn); err != nil {
		t.Fatal(err)
	}
	checks, failed, err := r.finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 2 { // the key itself, and the catalog's count
		t.Errorf("%d of %d end-state checks failed, want 2", failed, checks)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(v); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, vals map[string][]float64) string {
		path := filepath.Join(dir, name)
		n := len(vals["ops_per_s"])
		for i := 0; i < n; i++ {
			rec := record{Workload: "w1", Seed: int64(i), Result: result{Metrics: map[string]metric{}}}
			for m, v := range vals {
				rec.Result.Metrics[m] = metric{Value: v[i]}
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	man := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(man, []byte(`{"workloads":[{"name":"w1"}],"end_to_end":[
		{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"p50_us","unit":"us","better":"lower","bound":0.1},
		{"name":"noisy_us","unit":"us","better":"lower","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.1}]}`), 0o644)
	old := write("old.json", map[string][]float64{
		"ops_per_s": {100, 101, 99, 100, 100}, "p50_us": {10, 10, 10, 10, 10},
		"noisy_us": {50, 20, 80, 30, 60}, "setup_s": {1, 1, 1, 1, 1}})
	worse := write("new.json", map[string][]float64{
		"ops_per_s": {80, 81, 79, 80, 80}, "p50_us": {8, 8, 8, 8, 8},
		"noisy_us": {50, 20, 80, 30, 60}, "setup_s": {1.05, 1.05, 1.05, 1.05, 1.05}})
	var out strings.Builder
	if code := compareFiles(&out, man, old, worse); code != 1 {
		t.Errorf("exit code %d for a regressed metric, want 1", code)
	}
	for metric, want := range map[string]string{
		"ops_per_s": "regressed", "p50_us": "improved", "noisy_us": "unresolved", "setup_s": "unchanged"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " "+metric+" ") && strings.Contains(line, "  "+want+" (") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %q row in:\n%s", metric, want, out.String())
		}
	}
	out.Reset()
	if code := compareFiles(&out, man, old, old); code != 0 {
		t.Errorf("exit code %d comparing a file with itself, want 0", code)
	}
}

// benchmarkJSON is the declared contract at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// Every workload runs at toy scale, and emits exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	check := func(t *testing.T, label string, res *result, want map[string]string) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", label, res.Failed, res.Attempted, res.firstErr)
		}
		for name, m := range res.Metrics {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q", label, name)
			}
			if unit, ok := want[name]; !ok {
				t.Errorf("%s: emits undeclared metric %s", label, name)
			} else if unit != m.Unit {
				t.Errorf("%s: %s has unit %q, declared %q", label, name, m.Unit, unit)
			}
		}
		for name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s: declared metric %s not emitted", label, name)
			}
		}
	}
	for _, d := range decl.Workloads {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("workload name %q", d.Name)
		}
		w, ok := findWorkload(d.Name)
		if !ok {
			t.Errorf("declared workload %s does not exist", d.Name)
			continue
		}
		// The phases are timed, not counted, so two workloads at a time take
		// half as long; at toy scale only presence and signs are checked.
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			cfg := config{env: env{catalog: 2000, seed: 7, workdir: t.TempDir()}, measure: 400 * time.Millisecond}
			res, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "end to end", res, endToEnd)
			for name := range endToEnd {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			cfg.trace = true
			cfg.spans = filepath.Join(cfg.workdir, "spans")
			res, err = runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			check(t, "traced", res, perLayer)
			checkSpans(t, cfg.spans)
		})
	}
}

// checkSpans parses a span file and requires every span's parent to be in it.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	var all []spanJSON
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanJSON
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if seen[s.Span] {
			t.Errorf("%s: span %s recorded twice", path, s.Span)
		}
		seen[s.Span] = true
		all = append(all, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(all) < 1000 {
		t.Errorf("%s: only %d spans", path, len(all))
	}
	for _, s := range all {
		if s.End < s.Start {
			t.Errorf("%s: span %s ends before it starts", path, s.Span)
		}
		if s.Parent != "" && !seen[s.Parent] {
			t.Errorf("%s: span %s has parent %s, which is not in the file", path, s.Span, s.Parent)
			return
		}
	}
}
