// Command benchmark is the repository's ruler: five closed-loop RLS workloads
// driven through the public APIs over TCP loopback, five end-to-end metrics per
// workload, and (with -trace 1) a per-layer cost ladder. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes carry sample counts and phase facts for the human-readable table.
	notes    map[string]string
	firstErr error
}

func (r *result) set(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// finish runs the rig's end-state check and counts it like a phase.
func (r *result) finish(ctx context.Context, rg rig) error {
	checks, failed, err := rg.finish(ctx)
	if err != nil {
		return fmt.Errorf("end-state check: %w", err)
	}
	r.Attempted += checks
	r.Failed += failed
	if failed > 0 && r.firstErr == nil {
		r.firstErr = fmt.Errorf("%d of %d end-state checks failed", failed, checks)
	}
	return nil
}

func (r *result) count(p phaseResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if r.firstErr == nil {
		r.firstErr = p.firstErr
	}
}

// record is one line of a -json file: what -compare reads.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Seconds  int    `json:"seconds"`
	Result   result `json:"result"`
}

type config struct {
	env
	measure time.Duration // measured time per workload; the phases are shares of it
	trace   bool
	spans   string
}

const (
	defaultSeconds = 15
	// defaultCatalog is how many mappings every workload preloads; only the
	// tests run another size. checkpointEvery and each workload's tailQ are
	// set for it and for defaultSeconds.
	defaultCatalog = 20000
	// setupReps set-ups are timed per run; setup_s is their median.
	setupReps = 3
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		cfg      config
		secs     = fs.Int("seconds", defaultSeconds, "measured seconds per workload, warm-up and set-up excluded")
		name     = fs.String("workload", "", "run this workload and print its result as the last line (default: all, as a table)")
		trace    = fs.Int("trace", 0, "1: traced run, reports the per-layer metrics instead of the end-to-end ones")
		jsonPath = fs.String("json", "", "append one record per workload run to this file (input of -compare)")
		compare  = fs.Bool("compare", false, "compare two -json files: benchmark -compare old.json new.json")
		manifest = fs.String("manifest", "BENCHMARK.json", "metric directions and bounds for -compare")
	)
	fs.Int64Var(&cfg.seed, "seed", 1, "fixes key order, op choice and absent names")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for data files of durable workloads")
	fs.StringVar(&cfg.spans, "spans", "", "with -trace 1: write the spans to this file, one JSON object per line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, *manifest, fs.Arg(0), fs.Arg(1))
	}
	cfg.trace = *trace == 1
	cfg.catalog = defaultCatalog
	cfg.measure = time.Duration(*secs) * time.Second
	if *secs < 1 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: need -seconds >= 1 and no positional arguments")
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)

	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	fmt.Printf("# GOMAXPROCS=%d conns/server=%d catalog=%d seed=%d seconds=%d trace=%d\n",
		procs, conns, cfg.catalog, cfg.seed, *secs, *trace)
	code := 0
	for _, w := range todo {
		res, err := runWorkload(context.Background(), w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		printTable(w.name, res)
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d failed, first: %v\n", w.name, res.Failed, res.Attempted, res.firstErr)
			code = 1
		}
		if *jsonPath != "" {
			rec := record{Workload: w.name, Seed: cfg.seed, Trace: *trace, Seconds: *secs, Result: *res}
			if err := appendRecord(*jsonPath, rec); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		if *name != "" {
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			fmt.Println(string(line))
		}
	}
	return code
}

func runWorkload(ctx context.Context, w workload, cfg config) (*result, error) {
	res := &result{Metrics: map[string]metric{}, notes: map[string]string{}}
	var err error
	if cfg.trace {
		err = runTraced(ctx, w, cfg, res)
	} else {
		err = runEndToEnd(ctx, w, cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func newCallers(r rig, n int) []caller {
	out := make([]caller, n)
	for i := range out {
		out[i] = r.newCaller(i)
	}
	return out
}

func share(d time.Duration, of float64) time.Duration {
	return time.Duration(float64(d) * of)
}

// runEndToEnd is the untraced run: set up (timed, several times), warm up,
// saturate, then lock-step, then check the end state. The lock-step phase
// gets two thirds of the measured time: a median needs more samples than a
// rate to repeat, and two of the workloads make under 200 lock-step ops a
// second.
func runEndToEnd(ctx context.Context, w workload, cfg config, res *result) error {
	var (
		r      rig
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if r, err = w.setup(ctx, cfg.env); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { r.close() }()
	callers := newCallers(r, w.satCallers)

	res.count(runPhase(ctx, callers, share(cfg.measure, 1.0/8), nil, spanRef{}))
	runtime.GC()
	sat := runPhase(ctx, callers, share(cfg.measure, 1.0/3), nil, spanRef{})
	res.count(sat)
	runtime.GC()
	lock := runPhase(ctx, callers[:w.lockCallers], share(cfg.measure, 2.0/3), nil, spanRef{})
	res.count(lock)
	if sat.ok() == 0 || lock.ok() == 0 {
		return fmt.Errorf("no successful op in a measured phase: %v", res.firstErr)
	}

	runtime.GC()
	runtime.GC()
	heap := memNow().HeapAlloc

	if err := res.finish(ctx, r); err != nil {
		return err
	}

	res.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", setupReps))
	res.set("ops_per_s", sat.opsPerSec(), "1/s", fmt.Sprintf("n=%d, %d callers", sat.ok(), w.satCallers))
	res.set("cpu_us_per_op", float64(sat.cpu.Microseconds())/float64(sat.ok()), "us",
		fmt.Sprintf("cpu_util=%.2f", sat.cpu.Seconds()/(sat.elapsed.Seconds()*float64(runtime.GOMAXPROCS(0)))))
	res.set("p50_us", float64(quantile(lock.lat, 0.5))/1e3, "us", fmt.Sprintf("n=%d, %d callers", lock.ok(), w.lockCallers))
	res.set("live_heap_mb", float64(heap)/(1<<20), "MB", "HeapAlloc after two GCs, catalog resident")
	return nil
}

func printTable(workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-10s %-32s %16.4f %-6s %s\n", workload, n, m.Value, m.Unit, res.notes[n])
	}
	fmt.Printf("%-10s %-32s %16d %-6s of %d attempted\n", workload, "failed", res.Failed, "count", res.Attempted)
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
