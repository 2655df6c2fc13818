package storage

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/disk"
)

// pumpClock advances the fake clock whenever a sleeper is parked, until stop
// closes — the test's stand-in for time passing while goroutines wait on the
// simulated device.
func pumpClock(fc *clock.Fake, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
			if fc.Pending() > 0 {
				fc.Advance(disk.DefaultSyncLatency)
			} else {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
}

// TestCommitCtxFollowerCancellation is the regression test for group commit
// under cancellation: a follower whose context expires while its leader's
// fsync is in flight must report ctx.Err() — not success-without-durability
// — and the abandoned wait must not strand the batch: the leader, other
// followers, and subsequent commits all complete normally.
func TestCommitCtxFollowerCancellation(t *testing.T) {
	fc := clock.NewFake(time.Unix(1000, 0))
	// A real sync latency on a fake clock parks the leader in dev.Sync until
	// the clock advances — a deterministic window in which followers pile up.
	dev := disk.New(disk.Params{SyncLatency: disk.DefaultSyncLatency, Clock: fc})
	e := OpenMemory(Options{Device: dev})
	defer e.Close()
	e.SetFlushOnCommit(true)
	mustCreate(t, e, benchSchema("t_a"))
	mustCreate(t, e, benchSchema("t_b"))
	mustCreate(t, e, benchSchema("t_c"))

	commit := func(table string, v int64, ctx context.Context) error {
		tx, err := e.Begin(table)
		if err != nil {
			return err
		}
		if _, err := tx.Insert(table, Row{Int64(v), String("x")}); err != nil {
			tx.Rollback()
			return err
		}
		return tx.CommitCtx(ctx)
	}

	// The leader parks in the device sync (fake clock, nobody advancing yet).
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- commit("t_a", 1, context.Background()) }()
	waitFor(t, func() bool { return fc.Pending() > 0 })

	// A follower joins the next batch, then its context is cancelled while
	// the leader is still mid-sync. It must return promptly with ctx.Err(),
	// with no clock advance needed.
	fctx, fcancel := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	var joined sync.WaitGroup
	joined.Add(1)
	go func() {
		joined.Done()
		followerErr <- commit("t_b", 2, fctx)
	}()
	joined.Wait()
	waitFor(t, func() bool { return e.wal.stats().gcCommits >= 2 })
	fcancel()
	select {
	case err := <-followerErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled follower returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower still blocked on its leader's sync")
	}

	// Let simulated time flow: the leader finishes its batch, then drains
	// the abandoned follower's batch (its buffered channel absorbs the
	// outcome nobody is waiting for).
	stop := make(chan struct{})
	defer close(stop)
	go pumpClock(fc, stop)
	select {
	case err := <-leaderErr:
		if err != nil {
			t.Fatalf("leader commit = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leader never completed: abandoned follower stranded the batch")
	}

	// The engine keeps working: a fresh flush-on-commit transaction
	// completes, proving the group-commit machinery was not wedged.
	if err := commit("t_c", 3, context.Background()); err != nil {
		t.Fatalf("post-cancellation commit = %v", err)
	}

	// The cancelled follower's mutation was logged and applied — it rode the
	// leader's sync; only its durability confirmation was abandoned.
	err := e.SnapshotView(func(r *Reader) error {
		n, err := r.Count("t_b")
		if err != nil {
			return err
		}
		if n != 1 {
			t.Fatalf("follower's row count = %d, want 1", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
