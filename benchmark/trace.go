package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"repro/internal/core"
)

// runTraced is the traced run. The benchmark cannot wrap calls inside the
// program, so "tracing" has two parts:
//
//   - the workload's saturation phase is run twice, once plain and once with
//     a span per op, which gives the whole-process (proc.*) metrics, the
//     Stats() counter deltas of every layer, and the tracing overhead; a
//     lock-step phase follows for the latency tail, which repeats too poorly
//     between runs to carry a regression bound;
//   - the ladder (ladder.go) times the same ops at each layer boundary of a
//     fixed rig, Fig. 7 generalised. It does not depend on the workload, so
//     every traced run reports every per-layer metric.
func runTraced(ctx context.Context, w workload, cfg config, res *result) error {
	tr := newTracer()
	runRef, closeRun := tr.open("run", spanRef{})

	r, err := w.setup(ctx, cfg.env)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	callers := newCallers(r, w.satCallers)
	res.count(runPhase(ctx, callers, share(cfg.measure, 1.0/8), nil, spanRef{}))
	runtime.GC()
	plain := runPhase(ctx, callers, share(cfg.measure, 0.25), nil, spanRef{})
	res.count(plain)
	runtime.GC()
	before := readCounters(r.deployment())
	satRef, closeSat := tr.open("sat", runRef)
	traced := runPhase(ctx, callers, share(cfg.measure, 0.25), tr, satRef)
	closeSat()
	delta := readCounters(r.deployment()).minus(before)
	res.count(traced)
	runtime.GC()
	lock := runPhase(ctx, callers[:w.lockCallers], share(cfg.measure, 3.0/8), nil, spanRef{})
	res.count(lock)
	err = res.finish(ctx, r)
	r.close()
	if err != nil {
		return err
	}
	if plain.ok() == 0 || traced.ok() == 0 || lock.ok() == 0 {
		return fmt.Errorf("no successful op in a measured phase: %v", res.firstErr)
	}

	ops := float64(traced.ok())
	n := fmt.Sprintf("n=%d", traced.ok())
	res.set("proc.alloc_bytes_per_op", float64(traced.mem.bytes)/ops, "B", n)
	res.set("proc.allocs_per_op", float64(traced.mem.mallocs)/ops, "count", n)
	res.set("proc.gc_cycles_per_kop", float64(traced.mem.gcCycles)/ops*1000, "count", n)
	res.set("proc.gc_pause_ms_per_s", float64(traced.mem.pauseNS)/1e6/traced.elapsed.Seconds(), "ms/s", "")
	res.set("proc.cpu_util", plain.cpu.Seconds()/(plain.elapsed.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio",
		"CPU / (wall x GOMAXPROCS), plain saturation phase")
	res.set("proc.sat_p99_us", float64(quantile(plain.lat, 0.99))/1e3, "us", fmt.Sprintf("n=%d", plain.ok()))
	res.set("proc.lock_tail_us", float64(quantile(lock.lat, w.tailQ))/1e3, "us",
		fmt.Sprintf("p%.0f of the lock-step phase, n=%d, %d callers", w.tailQ*100, lock.ok(), w.lockCallers))
	meanOp := plain.elapsed.Seconds() * float64(w.satCallers) / float64(plain.ok()) * 1e9
	res.set("proc.gen_ns_per_op", float64(traced.genNS)/ops, "ns", fmt.Sprintf("%.1f%% of the mean op time", float64(traced.genNS)/ops/meanOp*100))
	res.set("proc.trace_overhead_ratio", plain.opsPerSec()/traced.opsPerSec()-1, "ratio", "plain / traced throughput - 1")
	delta.report(res, ops, traced.elapsed.Seconds())

	runtime.GC()
	ladRef, closeLadder := tr.open("ladder", runRef)
	err = runLadder(ctx, cfg.env, tr, ladRef, res)
	closeLadder()
	closeRun()
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	if cfg.spans != "" {
		return writeSpans(cfg.spans, tr.spans)
	}
	return nil
}

// counters are the public Stats() of every server and engine of a
// deployment, summed.
type counters [ctrCount]float64

const (
	ctrWALBytes = iota
	ctrFsyncs
	ctrCommits
	ctrBatches
	ctrLatchWaitNS
	ctrVersions
	ctrSnapshots
	ctrFlushes
	ctrFlushesAvoided
	ctrDepth0 // first of the server's seven dispatch-depth histogram buckets
	ctrCount  = ctrDepth0 + len(depthMid)
)

// depthMid is a representative depth per server histogram bucket, whose upper
// bounds are 1, 2, 4, 8, 16, 64 and beyond.
var depthMid = [7]float64{1, 2, 3.5, 6.5, 12.5, 40, 96}

func readCounters(dep *core.Deployment) counters {
	var c counters
	for _, n := range dep.Nodes() {
		ss := n.Server.StatsSnapshot()
		for i, v := range [...]int64{
			ctrWALBytes: ss.WALBytes, ctrFsyncs: ss.WALFlushes,
			ctrCommits: ss.GroupCommitCommits, ctrBatches: ss.GroupCommitBatches,
			ctrLatchWaitNS: ss.LatchWaitNS, ctrVersions: ss.VersionsPublished, ctrSnapshots: ss.SnapshotsTaken,
			ctrFlushes: ss.RespFlushes, ctrFlushesAvoided: ss.RespFlushesAvoided,
		} {
			c[i] += float64(v)
		}
		for i := range depthMid {
			if i < len(ss.PipelineDepths) {
				c[ctrDepth0+i] += float64(ss.PipelineDepths[i])
			}
		}
	}
	return c
}

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report turns the deltas over a phase of ops successful ops and secs seconds
// into per-op counts. A layer the workload does not reach reports 0.
func (c counters) report(res *result, ops, secs float64) {
	var depthN, depthSum float64
	for i, mid := range depthMid {
		depthN += c[ctrDepth0+i]
		depthSum += c[ctrDepth0+i] * mid
	}
	res.set("server.dispatch_depth_mean", ratio(depthSum, depthN), "count", "pipelined serve loop only")
	res.set("server.flushes_avoided_ratio", ratio(c[ctrFlushesAvoided], c[ctrFlushes]+c[ctrFlushesAvoided]), "ratio", "")
	res.set("storage.wal_bytes_per_op", c[ctrWALBytes]/ops, "B", "")
	res.set("storage.fsyncs_per_op", c[ctrFsyncs]/ops, "count", "")
	res.set("storage.gc_batch_mean", ratio(c[ctrCommits], c[ctrBatches]), "count", "commits per group-commit sync")
	res.set("storage.latch_wait_ratio", c[ctrLatchWaitNS]/1e9/secs, "ratio", "blocked-on-latch seconds per second")
	res.set("storage.versions_per_op", c[ctrVersions]/ops, "count", "")
	res.set("storage.snapshots_per_op", c[ctrSnapshots]/ops, "count", "")
}

// spanJSON is the on-disk form of a span.
type spanJSON struct {
	Span   string `json:"span"`
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		ref := spanRef{s.name, s.id}
		if err := enc.Encode(spanJSON{ref.String(), s.name, s.id, s.parent.String(), s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
