package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// caller is one closed-loop requester: the paper's §4 client thread, which
// submits a request and waits for the reply before the next. The driver times
// exec alone; prepare (choosing the op from the seeded stream) and verify
// (checking the answer against the generator's model and advancing the model)
// are generator work and stay outside the latency sample.
type caller interface {
	prepare()
	exec(ctx context.Context)
	// verify reports a wrong answer or an unexpected error as a failure.
	verify() error
}

// phaseResult is what one measured phase yields.
type phaseResult struct {
	attempted, failed int64
	lat               []int64 // ns per successful op, sorted
	elapsed           time.Duration
	cpu               time.Duration // process user+sys over the phase
	mem               memDelta
	genNS             int64 // prepare+verify time; traced phases only
	firstErr          error
}

func (p phaseResult) ok() int64 { return p.attempted - p.failed }

func (p phaseResult) opsPerSec() float64 { return float64(p.ok()) / p.elapsed.Seconds() }

// memDelta is the change in runtime.MemStats across a phase.
type memDelta struct {
	mallocs, bytes, gcCycles, pauseNS uint64
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(a runtime.MemStats) memDelta {
	b := memNow()
	return memDelta{
		mallocs:  b.Mallocs - a.Mallocs,
		bytes:    b.TotalAlloc - a.TotalAlloc,
		gcCycles: uint64(b.NumGC - a.NumGC),
		pauseNS:  b.PauseTotalNs - a.PauseTotalNs,
	}
}

// cpuNow returns the process's user+sys CPU time (getrusage).
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase drives every caller in its own goroutine for d, then waits for the
// ops in flight. An op that starts before the deadline is counted even if it
// completes after it; elapsed runs to the last completion. With tr set, each
// op is recorded as a span under parent and generator time is measured.
func runPhase(ctx context.Context, callers []caller, d time.Duration, tr *tracer, parent spanRef) phaseResult {
	type part struct {
		attempted, failed int64
		lat               []int64
		spans             []span
		genNS             int64
		last              time.Time
		err               error
	}
	parts := make([]part, len(callers))
	opName := parent.name + ".op"
	mem0, cpu0 := memNow(), cpuNow()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func(c caller, p *part, id int64) {
			defer wg.Done()
			for seq := int64(0); ; seq++ {
				tp := time.Now()
				if !tp.Before(deadline) {
					return
				}
				c.prepare()
				t0 := time.Now()
				c.exec(ctx)
				t1 := time.Now()
				err := c.verify()
				p.attempted++
				p.last = t1
				if err != nil {
					p.failed++
					if p.err == nil {
						p.err = err
					}
					continue
				}
				p.lat = append(p.lat, int64(t1.Sub(t0)))
				if tr != nil {
					p.genNS += int64(t0.Sub(tp)) + int64(time.Since(t1))
					p.spans = append(p.spans, span{
						name: opName, id: id<<32 | seq, parent: parent,
						start: tr.rel(t0), end: tr.rel(t1),
					})
				}
			}
		}(callers[i], &parts[i], int64(i))
	}
	wg.Wait()
	res := phaseResult{cpu: cpuNow() - cpu0, mem: memSince(mem0)}
	end := start
	for i := range parts {
		p := &parts[i]
		res.attempted += p.attempted
		res.failed += p.failed
		res.lat = append(res.lat, p.lat...)
		res.genNS += p.genNS
		if p.last.After(end) {
			end = p.last
		}
		if res.firstErr == nil {
			res.firstErr = p.err
		}
		if tr != nil {
			tr.add(p.spans)
		}
	}
	res.elapsed = end.Sub(start)
	sort.Slice(res.lat, func(i, j int) bool { return res.lat[i] < res.lat[j] })
	return res
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spanRef names a span: the layer boundary it was taken at and the op id.
type spanRef struct {
	name string
	id   int64
}

func (r spanRef) String() string {
	if r.name == "" {
		return ""
	}
	return fmt.Sprintf("%s#%d", r.name, r.id)
}

// span is one timed call at a layer boundary. Spans of one op share the id;
// parent is the span of the boundary above that caused it.
type span struct {
	name       string
	id         int64
	parent     spanRef
	start, end int64 // ns since the tracer's origin
}

// tracer holds spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) rel(at time.Time) int64 { return int64(at.Sub(t.origin)) }

func (t *tracer) add(s []span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// open records a span that encloses later ones and returns its reference and
// a function that closes it.
func (t *tracer) open(name string, parent spanRef) (spanRef, func()) {
	start := time.Now()
	ref := spanRef{name: name}
	return ref, func() {
		t.add([]span{{name: name, parent: parent, start: t.rel(start), end: t.rel(time.Now())}})
	}
}
