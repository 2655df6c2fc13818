package storage

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
)

func benchSchema(name string) Schema {
	return Schema{
		Name: name,
		Columns: []Column{
			{Name: "id", Kind: KindInt},
			{Name: "name", Kind: KindString},
		},
		Indexes: []IndexSpec{{Name: "by_id", Columns: []string{"id"}, Unique: true}},
	}
}

func benchEngine(b *testing.B, tables int) (*Engine, []string) {
	b.Helper()
	e := OpenMemory(fastOpts())
	names := make([]string, tables)
	for i := range names {
		names[i] = fmt.Sprintf("bench_t%d", i)
		if err := e.CreateTable(benchSchema(names[i])); err != nil {
			b.Fatalf("CreateTable: %v", err)
		}
	}
	b.Cleanup(func() { e.Close() })
	return e, names
}

// BenchmarkTxInsertParallel commits single-insert transactions from many
// goroutines, each declaring one of several disjoint tables. With per-table
// latches the commits only share the WAL append; throughput should scale
// with GOMAXPROCS rather than serialize on an engine-wide lock.
func BenchmarkTxInsertParallel(b *testing.B) {
	const tables = 8
	e, names := benchEngine(b, tables)
	var gid, rowid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tbl := names[int(gid.Add(1))%tables]
		for pb.Next() {
			id := rowid.Add(1)
			tx, err := e.Begin(tbl)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := tx.Insert(tbl, Row{Int64(id), String(fmt.Sprintf("n-%d", id))}); err != nil {
				tx.Rollback()
				b.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkViewParallel runs point lookups from many goroutines against one
// table. Snapshot views take no latch, so readers should not contend.
func BenchmarkViewParallel(b *testing.B) {
	e, names := benchEngine(b, 1)
	tbl := names[0]
	const rows = 1000
	tx, err := e.Begin(tbl)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tx.Insert(tbl, Row{Int64(int64(i)), String(fmt.Sprintf("n-%d", i))}); err != nil {
			tx.Rollback()
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := gid.Add(1)
		for pb.Next() {
			i++
			err := e.SnapshotView(func(r *Reader) error {
				got, err := r.Lookup(tbl, "by_id", Int64(i%rows))
				if err != nil {
					return err
				}
				if len(got) != 1 {
					return fmt.Errorf("lookup returned %d rows", len(got))
				}
				return nil
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkGroupCommitFlushOn commits flush-on transactions from many
// goroutines against a device with a real (small) sync latency. Group commit
// lets concurrent committers share one sync, so the measured per-commit cost
// should be well under one full sync latency once parallelism exceeds one.
// The syncs-avoided ratio is reported as a metric.
func BenchmarkGroupCommitFlushOn(b *testing.B) {
	e := OpenMemory(Options{Device: disk.New(disk.Params{SyncLatency: 200 * time.Microsecond})})
	const tbl = "bench_gc"
	if err := e.CreateTable(benchSchema(tbl)); err != nil {
		b.Fatalf("CreateTable: %v", err)
	}
	b.Cleanup(func() { e.Close() })
	e.SetFlushOnCommit(true)
	var rowid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := rowid.Add(1)
			tx, err := e.Begin(tbl)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := tx.Insert(tbl, Row{Int64(id), String(fmt.Sprintf("n-%d", id))}); err != nil {
				tx.Rollback()
				b.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	gc := e.Stats().GroupCommit
	if gc.Commits > 0 {
		b.ReportMetric(float64(gc.SyncsAvoided)/float64(gc.Commits), "syncs-avoided/commit")
	}
}

// BenchmarkTxUpdate updates one non-unique indexed column of rows in a
// populated four-index table (the RLI t_map shape: a soft-state refresh
// moves one index entry of four), 100 row updates per transaction.
func BenchmarkTxUpdate(b *testing.B) {
	e := OpenMemory(fastOpts())
	b.Cleanup(func() { e.Close() })
	schema := Schema{
		Name: "bench_map",
		Columns: []Column{
			{Name: "lfn_id", Kind: KindInt},
			{Name: "lrc_id", Kind: KindInt},
			{Name: "stamp", Kind: KindInt},
		},
		Indexes: []IndexSpec{
			{Name: "by_pair", Columns: []string{"lfn_id", "lrc_id"}, Unique: true},
			{Name: "by_lfn", Columns: []string{"lfn_id"}},
			{Name: "by_lrc", Columns: []string{"lrc_id"}},
			{Name: "by_stamp", Columns: []string{"stamp"}},
		},
	}
	if err := e.CreateTable(schema); err != nil {
		b.Fatal(err)
	}
	const rows, perTx = 10000, 100
	tx, err := e.Begin(schema.Name)
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(1); i <= rows; i++ {
		if _, err := tx.Insert(schema.Name, Row{Int64(i), Int64(1), Int64(0)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += perTx {
		tx, err := e.Begin(schema.Name)
		if err != nil {
			b.Fatal(err)
		}
		for j := i; j < i+perTx && j < b.N; j++ {
			rowid := int64(j%rows) + 1 // inserted in order: rowid = lfn_id
			if ok, err := tx.Update(schema.Name, rowid, Row{Int64(rowid), Int64(1), Int64(int64(j))}); !ok || err != nil {
				b.Fatalf("Update(%d) = %v, %v", rowid, ok, err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
