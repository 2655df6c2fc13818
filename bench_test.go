// Package repro's top-level benchmarks exercise the core code path behind
// every table and figure of the paper's evaluation, one benchmark per
// artifact. They use small fixed catalog sizes and cost-free simulated
// disks (except where the disk IS the result, as in Figure 4) so that
// `go test -bench=. -benchmem` finishes quickly; the full parameter sweeps
// with the 2004 device and network models live in `cmd/rls-bench`.
package repro

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bloom"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/workload"
)

const benchCatalog = 10_000

// benchLRC builds a single-LRC deployment preloaded with benchCatalog
// mappings on a cost-free disk.
func benchLRC(b *testing.B, personality storage.Personality) (*core.Deployment, *core.Node, workload.Names) {
	ctx := context.Background()
	b.Helper()
	dep := core.NewDeployment()
	fast := disk.Fast()
	node, err := dep.AddServer(core.ServerSpec{Name: "lrc", LRC: true, Personality: personality, Disk: &fast})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.Names{Space: "bench"}
	c, err := dep.Dial("lrc")
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.Load(ctx, c, gen, benchCatalog, 1000); err != nil {
		b.Fatal(err)
	}
	c.Close()
	b.Cleanup(dep.Close)
	return dep, node, gen
}

func benchDial(b *testing.B, dep *core.Deployment, name string) *client.Client {
	b.Helper()
	c, err := dep.Dial(name)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkFig4AddFlushDisabled measures the add path with commit flushes
// batched (the paper's recommended configuration).
func BenchmarkFig4AddFlushDisabled(b *testing.B) {
	ctx := context.Background()
	dep, _, _ := benchLRC(b, storage.PersonalityMySQL)
	c := benchDial(b, dep, "lrc")
	gen := workload.Names{Space: "fig4off"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.CreateMapping(ctx, gen.Logical(i), gen.Target(i, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4AddFlushEnabled measures the add path when every commit pays
// a simulated 2004-era disk flush — the other line of Figure 4. Expect
// ~8ms/op.
func BenchmarkFig4AddFlushEnabled(b *testing.B) {
	ctx := context.Background()
	dep := core.NewDeployment()
	defer dep.Close()
	model := disk.DefaultParams()
	node, err := dep.AddServer(core.ServerSpec{Name: "lrc", LRC: true, Disk: &model})
	if err != nil {
		b.Fatal(err)
	}
	node.LRCEngine.SetFlushOnCommit(true)
	c := benchDial(b, dep, "lrc")
	gen := workload.Names{Space: "fig4on"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.CreateMapping(ctx, gen.Logical(i), gen.Target(i, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Query measures the LRC query path.
func BenchmarkFig5Query(b *testing.B) {
	ctx := context.Background()
	dep, _, gen := benchLRC(b, storage.PersonalityMySQL)
	c := benchDial(b, dep, "lrc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetTargets(ctx, gen.Logical(i*7919%benchCatalog)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6ParallelQuery measures query throughput with many requesting
// threads, each on its own connection (the Figure 6 configuration).
func BenchmarkFig6ParallelQuery(b *testing.B) {
	ctx := context.Background()
	dep, _, gen := benchLRC(b, storage.PersonalityMySQL)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c, err := dep.Dial("lrc")
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		i := 0
		for pb.Next() {
			i++
			if _, err := c.GetTargets(ctx, gen.Logical(i*7919%benchCatalog)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkFig7NativeQuery measures the same lookup issued directly against
// the database layer — the "native MySQL" baseline of Figure 7.
func BenchmarkFig7NativeQuery(b *testing.B) {
	dep, node, gen := benchLRC(b, storage.PersonalityMySQL)
	_ = dep
	db := node.LRC.DB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.GetTargets(gen.Logical(i * 7919 % benchCatalog)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8PostgresChurn measures add+delete cycles of the same name
// under the PostgreSQL personality, with a vacuum every 1000 cycles — the
// workload whose bloat produces the Figure 8 sawtooth.
func BenchmarkFig8PostgresChurn(b *testing.B) {
	ctx := context.Background()
	dep, node, _ := benchLRC(b, storage.PersonalityPostgres)
	c := benchDial(b, dep, "lrc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.CreateMapping(ctx, "lfn://churn", "pfn://churn"); err != nil {
			b.Fatal(err)
		}
		if err := c.DeleteMapping(ctx, "lfn://churn", "pfn://churn"); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			if _, err := node.LRCEngine.VacuumAll(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchRLI builds an RLI preloaded via one full uncompressed update.
func benchRLI(b *testing.B) (*core.Deployment, workload.Names) {
	ctx := context.Background()
	b.Helper()
	dep := core.NewDeployment()
	fast := disk.Fast()
	if _, err := dep.AddServer(core.ServerSpec{Name: "lrc", LRC: true, Disk: &fast}); err != nil {
		b.Fatal(err)
	}
	if _, err := dep.AddServer(core.ServerSpec{Name: "rli", RLI: true, Disk: &fast}); err != nil {
		b.Fatal(err)
	}
	if err := dep.Connect("lrc", "rli", false); err != nil {
		b.Fatal(err)
	}
	gen := workload.Names{Space: "bench"}
	c, err := dep.Dial("lrc")
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.Load(ctx, c, gen, benchCatalog, 1000); err != nil {
		b.Fatal(err)
	}
	c.Close()
	node, _ := dep.Node("lrc")
	for _, res := range node.LRC.ForceUpdate(ctx) {
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
	b.Cleanup(dep.Close)
	return dep, gen
}

// BenchmarkFig9RLIQuery measures queries against a database-backed RLI.
func BenchmarkFig9RLIQuery(b *testing.B) {
	ctx := context.Background()
	dep, gen := benchRLI(b)
	c := benchDial(b, dep, "rli")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RLIQuery(ctx, gen.Logical(i*7919%benchCatalog)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBloomRLI builds an RLI holding `filters` in-memory Bloom filters.
func benchBloomRLI(b *testing.B, filters int) *core.Deployment {
	ctx := context.Background()
	b.Helper()
	dep := core.NewDeployment()
	fast := disk.Fast()
	node, err := dep.AddServer(core.ServerSpec{Name: "rli", RLI: true, Disk: &fast})
	if err != nil {
		b.Fatal(err)
	}
	for f := 0; f < filters; f++ {
		bf := bloom.New(benchCatalog)
		gen := workload.Names{Space: fmt.Sprintf("lrc%03d", f)}
		for i := 0; i < benchCatalog; i++ {
			bf.Add(gen.Logical(i))
		}
		data, err := bf.Bitmap().MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		if err := node.RLI.HandleBloom(ctx, fmt.Sprintf("rls://lrc%03d", f), data); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(dep.Close)
	return dep
}

// BenchmarkFig10BloomQuery measures RLI queries against 1, 10 and 100
// resident Bloom filters (the Figure 10 series).
func BenchmarkFig10BloomQuery(b *testing.B) {
	ctx := context.Background()
	for _, filters := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("filters=%d", filters), func(b *testing.B) {
			dep := benchBloomRLI(b, filters)
			c := benchDial(b, dep, "rli")
			gen := workload.Names{Space: "lrc000"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.RLIQuery(ctx, gen.Logical(i*7919%benchCatalog)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11BulkQuery measures one 1000-name bulk query per iteration
// (throughput per individual lookup is rate * 1000).
func BenchmarkFig11BulkQuery(b *testing.B) {
	ctx := context.Background()
	dep, _, gen := benchLRC(b, storage.PersonalityMySQL)
	c := benchDial(b, dep, "lrc")
	names := make([]string, 1000)
	for i := range names {
		names[i] = gen.Logical(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.BulkGetTargets(ctx, names); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12UncompressedUpdate measures one full uncompressed soft
// state update of the whole catalog per iteration.
func BenchmarkFig12UncompressedUpdate(b *testing.B) {
	ctx := context.Background()
	dep, _ := benchRLI(b)
	node, _ := dep.Node("lrc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range node.LRC.ForceUpdate(ctx) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// benchBloomLink builds an LRC->RLI pair using Bloom updates.
func benchBloomLink(b *testing.B, lrcs int) *core.Deployment {
	ctx := context.Background()
	b.Helper()
	dep := core.NewDeployment()
	fast := disk.Fast()
	if _, err := dep.AddServer(core.ServerSpec{Name: "rli", RLI: true, Disk: &fast}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < lrcs; i++ {
		name := fmt.Sprintf("lrc%d", i)
		if _, err := dep.AddServer(core.ServerSpec{Name: name, LRC: true, Disk: &fast, BloomSizeHint: benchCatalog}); err != nil {
			b.Fatal(err)
		}
		if err := dep.Connect(name, "rli", true); err != nil {
			b.Fatal(err)
		}
		c, err := dep.Dial(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := workload.Load(ctx, c, workload.Names{Space: name}, benchCatalog, 1000); err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
	b.Cleanup(dep.Close)
	return dep
}

// BenchmarkTable3BloomUpdate measures one Bloom filter soft state update per
// iteration (Table 3, second column).
func BenchmarkTable3BloomUpdate(b *testing.B) {
	ctx := context.Background()
	dep := benchBloomLink(b, 1)
	node, _ := dep.Node("lrc0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := node.LRC.ForceUpdateTo(ctx, "rls://rli")
		if err != nil || res.Err != nil {
			b.Fatalf("%v / %v", err, res.Err)
		}
	}
}

// BenchmarkTable3BloomGenerate measures recomputing the Bloom filter from
// the catalog (Table 3, third column: the one-time cost).
func BenchmarkTable3BloomGenerate(b *testing.B) {
	ctx := context.Background()
	dep := benchBloomLink(b, 1)
	node, _ := dep.Node("lrc0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := node.LRC.RebuildFilter(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13ConcurrentBloomUpdates measures four LRCs pushing Bloom
// updates to one RLI concurrently — the contention of Figure 13.
func BenchmarkFig13ConcurrentBloomUpdates(b *testing.B) {
	ctx := context.Background()
	const lrcs = 4
	dep := benchBloomLink(b, lrcs)
	nodes := make([]*core.Node, lrcs)
	for i := range nodes {
		nodes[i], _ = dep.Node(fmt.Sprintf("lrc%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, n := range nodes {
			wg.Add(1)
			go func(n *core.Node) {
				defer wg.Done()
				res, err := n.LRC.ForceUpdateTo(ctx, "rls://rli")
				if err != nil || res.Err != nil {
					b.Errorf("%v / %v", err, res.Err)
				}
			}(n)
		}
		wg.Wait()
	}
}

// BenchmarkAblationBloomAdd measures incremental Bloom filter maintenance
// (one Add per new name), the property that makes updates a serialization
// cost rather than a recomputation cost.
func BenchmarkAblationBloomAdd(b *testing.B) {
	f := bloom.New(b.N + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(fmt.Sprintf("lfn://bench/%09d", i))
	}
}

// BenchmarkAblationWirePing isolates the protocol + transport round trip.
func BenchmarkAblationWirePing(b *testing.B) {
	ctx := context.Background()
	dep := core.NewDeployment()
	defer dep.Close()
	fast := disk.Fast()
	if _, err := dep.AddServer(core.ServerSpec{Name: "lrc", LRC: true, Disk: &fast}); err != nil {
		b.Fatal(err)
	}
	c := benchDial(b, dep, "lrc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Ping(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPartitionedUpdate measures a partitioned full update
// (regex filtering on the send path) against the same catalog.
func BenchmarkAblationPartitionedUpdate(b *testing.B) {
	ctx := context.Background()
	dep := core.NewDeployment()
	defer dep.Close()
	fast := disk.Fast()
	if _, err := dep.AddServer(core.ServerSpec{Name: "lrc", LRC: true, Disk: &fast}); err != nil {
		b.Fatal(err)
	}
	if _, err := dep.AddServer(core.ServerSpec{Name: "rli", RLI: true, Disk: &fast}); err != nil {
		b.Fatal(err)
	}
	if err := dep.Connect("lrc", "rli", false, `[0-4]$`); err != nil {
		b.Fatal(err)
	}
	c, err := dep.Dial("lrc")
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.Load(ctx, c, workload.Names{Space: "part"}, benchCatalog, 1000); err != nil {
		b.Fatal(err)
	}
	c.Close()
	node, _ := dep.Node("lrc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range node.LRC.ForceUpdate(ctx) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkAblationBulkVsSingle contrasts 1000 singleton queries with one
// 1000-name bulk query (the Figure 11 effect at benchmark granularity).
func BenchmarkAblationBulkVsSingle(b *testing.B) {
	ctx := context.Background()
	dep, _, gen := benchLRC(b, storage.PersonalityMySQL)
	names := make([]string, 1000)
	for i := range names {
		names[i] = gen.Logical(i)
	}
	b.Run("single-x1000", func(b *testing.B) {
		c := benchDial(b, dep, "lrc")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, n := range names {
				if _, err := c.GetTargets(ctx, n); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("bulk-1000", func(b *testing.B) {
		c := benchDial(b, dep, "lrc")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.BulkGetTargets(ctx, names); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// countingConn counts the Write calls that reach a transport, for the
// writes/frame metric: 1 means every frame paid its own write (a syscall, on
// a socket), less means frames shared one.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// benchCountedDial connects a client to the node over the same in-process
// pipe Deployment.Dial uses, with both ends counting their writes.
func benchCountedDial(b *testing.B, node *core.Node, maxInFlight int) (*client.Client, *atomic.Int64) {
	b.Helper()
	writes := new(atomic.Int64)
	c, err := client.Dial(context.Background(), client.Options{
		MaxInFlight: maxInFlight,
		Dialer: func() (net.Conn, error) {
			mine, theirs := net.Pipe()
			go node.Server.ServeConn(countingConn{theirs, writes})
			return countingConn{mine, writes}, nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c, writes
}

// reportWritesPerFrame reports the writes since base over the 2·b.N frames
// (a request and a response per call) the timed loop exchanged.
func reportWritesPerFrame(b *testing.B, writes *atomic.Int64, base int64) {
	b.ReportMetric(float64(writes.Load()-base)/float64(2*b.N), "writes/frame")
}

// BenchmarkRoundTripSerial measures the lock-step wire round trip: one
// connection, one outstanding request — the baseline the pipelining work
// must not regress (writes/frame stays 1: a lone call shares nothing).
func BenchmarkRoundTripSerial(b *testing.B) {
	ctx := context.Background()
	_, node, gen := benchLRC(b, storage.PersonalityMySQL)
	c, writes := benchCountedDial(b, node, 0)
	base := writes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetTargets(ctx, gen.Logical(i*7919%benchCatalog)); err != nil {
			b.Fatal(err)
		}
	}
	reportWritesPerFrame(b, writes, base)
}

// BenchmarkRoundTripPipelined measures the same round trip with requests
// multiplexed over a single connection: a pipelined server (MaxInFlight 32)
// and concurrent callers sharing one demultiplexed client.
func BenchmarkRoundTripPipelined(b *testing.B) {
	ctx := context.Background()
	dep := core.NewDeployment()
	fast := disk.Fast()
	node, err := dep.AddServer(core.ServerSpec{
		Name: "lrc", LRC: true, Disk: &fast, MaxInFlight: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Close)
	gen := workload.Names{Space: "bench-pipe"}
	load, err := dep.Dial("lrc")
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.Load(ctx, load, gen, benchCatalog, 1000); err != nil {
		b.Fatal(err)
	}
	load.Close()
	c, writes := benchCountedDial(b, node, 32)
	base := writes.Load()
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(seq.Add(1))
			if _, err := c.GetTargets(ctx, gen.Logical(i*7919%benchCatalog)); err != nil {
				b.Fatal(err)
			}
		}
	})
	reportWritesPerFrame(b, writes, base)
}

// BenchmarkConnWriteParallel measures wire.Conn's combining writer alone:
// 1, 4 and 16 goroutines writing small request frames to one TCP loopback
// connection whose peer discards them. One writer pays a write per frame;
// concurrent writers queue behind the one in its syscall and share its next
// write.
func BenchmarkConnWriteParallel(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers-%d", writers), func(b *testing.B) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go func() {
				if peer, err := l.Accept(); err == nil {
					_, _ = io.Copy(io.Discard, peer) // until the writer closes
					peer.Close()
				}
			}()
			raw, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			var writes atomic.Int64
			c := wire.NewConn(countingConn{raw, &writes})
			defer c.Close()
			body := make([]byte, 40) // a GetTargets request's size
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				n := b.N / writers
				if w < b.N%writers {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := c.WriteRequest(&wire.Request{ID: uint64(i), Op: wire.OpLRCGetTargets, Body: body}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(writes.Load())/float64(b.N), "writes/frame")
		})
	}
}
