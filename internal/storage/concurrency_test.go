package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
)

// TestParallelDisjointTables commits from many goroutines, each owning a
// distinct table, and checks every committed row landed. Run under -race
// this exercises the per-table latch paths end to end.
func TestParallelDisjointTables(t *testing.T) {
	const (
		workers = 8
		rows    = 50
	)
	e := OpenMemory(fastOpts())
	defer e.Close()
	names := make([]string, workers)
	for i := range names {
		names[i] = fmt.Sprintf("t_w%d", i)
		mustCreate(t, e, benchSchema(names[i]))
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tbl := names[w]
			for i := 0; i < rows; i++ {
				tx, err := e.Begin(tbl)
				if err != nil {
					errs[w] = err
					return
				}
				if _, err := tx.Insert(tbl, Row{Int64(int64(i)), String(fmt.Sprintf("w%d-%d", w, i))}); err != nil {
					tx.Rollback()
					errs[w] = err
					return
				}
				if err := tx.Commit(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for _, tbl := range names {
		err := e.SnapshotView(func(r *Reader) error {
			n, err := r.Count(tbl)
			if err != nil {
				return err
			}
			if n != rows {
				return fmt.Errorf("table %s has %d rows, want %d", tbl, n, rows)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestUndeclaredTableRejected verifies that every Tx accessor touching a
// table outside the declared set fails with ErrTableNotDeclared, that a
// truly missing table still reports ErrNoSuchTable, and that the declared
// table works. This run-time check is the only enforcer of the declared
// write set, so a caller that touches a table its Begin left out fails
// its own tests rather than a lint.
func TestUndeclaredTableRejected(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, benchSchema("t_a"))
	mustCreate(t, e, benchSchema("t_b"))

	row := Row{Int64(1), String("x")}
	accessors := []struct {
		name string
		call func(tx *Tx, table string) error
	}{
		{"Insert", func(tx *Tx, table string) error { _, err := tx.Insert(table, row); return err }},
		{"Update", func(tx *Tx, table string) error { _, err := tx.Update(table, 1, row); return err }},
		{"Delete", func(tx *Tx, table string) error { _, err := tx.Delete(table, 1); return err }},
		{"Lookup", func(tx *Tx, table string) error { _, err := tx.Lookup(table, "by_id", Int64(1)); return err }},
		{"LookupIDs", func(tx *Tx, table string) error {
			_, _, err := tx.LookupIDs(table, "by_id", Int64(1))
			return err
		}},
		{"ScanPrefix", func(tx *Tx, table string) error {
			return tx.ScanPrefix(table, "by_id", nil, func(int64, Row) bool { return true })
		}},
	}
	for _, a := range accessors {
		tx, err := e.Begin("t_a")
		if err != nil {
			t.Fatal(err)
		}
		if err := a.call(tx, "t_b"); !errors.Is(err, ErrTableNotDeclared) {
			t.Errorf("%s on an undeclared table: err = %v, want ErrTableNotDeclared", a.name, err)
		}
		if err := a.call(tx, "t_missing"); !errors.Is(err, ErrNoSuchTable) {
			t.Errorf("%s on a missing table: err = %v, want ErrNoSuchTable", a.name, err)
		}
		if err := a.call(tx, "t_a"); err != nil {
			t.Errorf("%s on the declared table: %v", a.name, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// A snapshot reader declares nothing: every table is visible, and only a
	// truly missing one is an error.
	err := e.SnapshotView(func(r *Reader) error {
		if _, err := r.Lookup("t_b", "by_id", Int64(1)); err != nil {
			return fmt.Errorf("lookup outside the writer's declared set: %v", err)
		}
		if _, err := r.Count("t_missing"); !errors.Is(err, ErrNoSuchTable) {
			return fmt.Errorf("missing-table count: err = %v, want ErrNoSuchTable", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitTelemetry drives concurrent flush-on commits and checks the
// group-commit accounting is internally consistent: every commit is in some
// batch, and syncs avoided is exactly commits minus batches.
func TestGroupCommitTelemetry(t *testing.T) {
	e := OpenMemory(Options{Device: disk.New(disk.Params{SyncLatency: time.Millisecond})})
	defer e.Close()
	mustCreate(t, e, benchSchema("t_gc"))
	e.SetFlushOnCommit(true)

	const (
		workers = 4
		commits = 10
	)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				tx, err := e.Begin("t_gc")
				if err != nil {
					errs[w] = err
					return
				}
				id := int64(w*commits + i)
				if _, err := tx.Insert("t_gc", Row{Int64(id), String(fmt.Sprintf("r%d", id))}); err != nil {
					tx.Rollback()
					errs[w] = err
					return
				}
				if err := tx.Commit(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	gc := e.Stats().GroupCommit
	if gc.Commits != workers*commits {
		t.Fatalf("gc.Commits = %d, want %d", gc.Commits, workers*commits)
	}
	if gc.Batches < 1 || gc.Batches > gc.Commits {
		t.Fatalf("gc.Batches = %d out of range [1, %d]", gc.Batches, gc.Commits)
	}
	if gc.SyncsAvoided != gc.Commits-gc.Batches {
		t.Fatalf("gc.SyncsAvoided = %d, want commits-batches = %d", gc.SyncsAvoided, gc.Commits-gc.Batches)
	}
	var hist int64
	for _, n := range gc.BatchSizes {
		hist += n
	}
	if hist != gc.Batches {
		t.Fatalf("batch-size histogram sums to %d, want %d batches", hist, gc.Batches)
	}
	if gc.MaxBatch < 1 || gc.MaxBatch > gc.Commits {
		t.Fatalf("gc.MaxBatch = %d out of range", gc.MaxBatch)
	}
}

// TestLatchWaitTelemetry makes two transactions contend on one table and
// checks the blocked acquisition is counted with a nonzero wait time.
func TestLatchWaitTelemetry(t *testing.T) {
	e := OpenMemory(fastOpts())
	defer e.Close()
	mustCreate(t, e, benchSchema("t_lw"))

	tx, err := e.Begin("t_lw")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		tx2, err := e.Begin("t_lw") // blocks until tx commits
		if err != nil {
			done <- err
			return
		}
		done <- tx2.Commit()
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the second Begin reach the latch
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	var waits, waitNS int64
	for _, ts := range st.Tables {
		waits += ts.LatchWaits
		waitNS += ts.LatchWaitNS
	}
	if waits < 1 {
		t.Fatalf("latch waits = %d, want >= 1", waits)
	}
	if waitNS <= 0 {
		t.Fatalf("latch wait time = %dns, want > 0", waitNS)
	}
}

// TestConcurrentCommitsSurviveReopen commits flush-on transactions from many
// goroutines against a file-backed engine, closes it, and reopens: every
// commit that returned success must be present. This is the crash-consistency
// contract group commit must preserve.
func TestConcurrentCommitsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, e, benchSchema("t_cr"))
	e.SetFlushOnCommit(true)

	const (
		workers = 6
		rows    = 20
	)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rows; i++ {
				tx, err := e.Begin("t_cr")
				if err != nil {
					errs[w] = err
					return
				}
				id := int64(w*rows + i)
				if _, err := tx.Insert("t_cr", Row{Int64(id), String(fmt.Sprintf("r%d", id))}); err != nil {
					tx.Rollback()
					errs[w] = err
					return
				}
				if err := tx.Commit(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.Close()
	err = e2.SnapshotView(func(r *Reader) error {
		n, err := r.Count("t_cr")
		if err != nil {
			return err
		}
		if n != workers*rows {
			return fmt.Errorf("after reopen: %d rows, want %d", n, workers*rows)
		}
		for id := int64(0); id < workers*rows; id++ {
			got, err := r.Lookup("t_cr", "by_id", Int64(id))
			if err != nil {
				return err
			}
			if len(got) != 1 {
				return fmt.Errorf("after reopen: row %d missing", id)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
