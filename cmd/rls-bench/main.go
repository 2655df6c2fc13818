// Command rls-bench regenerates the tables and figures of the paper's
// evaluation section (§5). Each experiment builds an in-process RLS
// deployment with the appropriate database personality, simulated 2004-era
// disk, and LAN/WAN network shaping, then prints a table shaped like the
// paper's figure.
//
// Usage:
//
//	rls-bench [flags] [experiment ...]
//
// With no experiment arguments, every registered experiment runs. Use
// -list to see the available ids (fig4 ... fig13, table3, ablate-*).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/harness"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		scale      = flag.Float64("scale", 0.02, "fraction of the paper's database sizes (1.0 = 1M-entry LRCs)")
		trials     = flag.Int("trials", 3, "trials per measured point (paper used 5)")
		warmup     = flag.Int("warmup", 1, "discarded warmup trials per measured point")
		ops        = flag.Float64("ops", 1.0, "multiplier on per-point operation counts")
		pipeline   = flag.Int("pipeline", 0, "wire-protocol pipeline depth (0 or 1 = paper's lock-step protocol)")
		quick      = flag.Bool("quick", false, "preset: -scale 0.005 -trials 1 -warmup 0 -ops 0.3")
		noDisk     = flag.Bool("no-disk-model", false, "disable the simulated 2004-era disk costs")
		noNet      = flag.Bool("no-net-model", false, "disable LAN/WAN network shaping")
		verbose    = flag.Bool("v", false, "print per-experiment timing")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
		jsonPath   = flag.String("json", "", "write scenario results as a BENCH_*.json snapshot to this file")
		benchIdx   = flag.Int("bench", 6, "trajectory index recorded in -json snapshots")
		checkJSON  = flag.String("validate-json", "", "validate a BENCH_*.json snapshot and exit")
	)
	flag.Parse()

	if *checkJSON != "" {
		s, err := benchfmt.Load(*checkJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rls-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid %s snapshot (bench %d, rev %s, %d scenarios)\n",
			*checkJSON, s.Schema, s.Bench, s.GitRev, len(s.Scenarios))
		return
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-22s %s\n%-22s   paper: %s\n", e.ID, e.Title, "", e.Paper)
		}
		return
	}

	p := harness.DefaultParams(os.Stdout)
	p.Scale = *scale
	p.Trials = *trials
	p.Warmup = *warmup
	p.Ops = *ops
	if *quick {
		p.Scale = 0.005
		p.Trials = 1
		p.Warmup = 0
		p.Ops = 0.3
	}
	p.DiskModel = !*noDisk
	p.NetModel = !*noNet
	p.Pipeline = *pipeline
	if *jsonPath != "" {
		p.Bench = benchfmt.NewSnapshot(*benchIdx, benchfmt.RunParams{
			Scale: p.Scale, Trials: p.Trials, Ops: p.Ops,
			Pipeline: p.Pipeline, DiskModel: p.DiskModel, NetModel: p.NetModel,
		})
	}

	ids := flag.Args()
	var experiments []harness.Experiment
	if len(ids) == 0 {
		experiments = harness.All()
	} else {
		for _, id := range ids {
			e, ok := harness.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "rls-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			experiments = append(experiments, e)
		}
	}

	stopCPU := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rls-bench: cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rls-bench: cpuprofile: %v\n", err)
			os.Exit(2)
		}
		// os.Exit skips deferred calls, so the profile is stopped
		// explicitly after the run loop rather than via defer.
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	failed := 0
	for _, e := range experiments {
		start := time.Now()
		if err := e.Run(p); err != nil {
			fmt.Fprintf(os.Stderr, "rls-bench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		if *verbose {
			fmt.Printf("   [%s completed in %.1fs]\n", e.ID, time.Since(start).Seconds())
		}
	}

	stopCPU()

	if *jsonPath != "" {
		// WriteFile validates first, so a run that produced no scenario
		// results (e.g. only fig* experiments selected) fails loudly rather
		// than emitting an empty trajectory point.
		if err := p.Bench.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "rls-bench: -json: %v (include scen-* experiments in the run)\n", err)
			failed++
		} else if *verbose {
			fmt.Printf("   [wrote %s: %d scenarios at rev %s]\n", *jsonPath, len(p.Bench.Scenarios), p.Bench.GitRev)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rls-bench: memprofile: %v\n", err)
			os.Exit(2)
		}
		runtime.GC() // settle the heap so the profile reflects live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "rls-bench: memprofile: %v\n", err)
			os.Exit(2)
		}
		f.Close()
	}

	if failed > 0 {
		os.Exit(1)
	}
}
