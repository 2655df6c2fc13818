package lrc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/wire"
)

// asyncUpdater extends fakeUpdater with the batchStarter capability the
// windowed full-update path probes for. It tracks how many batches were
// started but not yet acknowledged so tests can assert real overlap and
// that every batch settles before the end marker.
type asyncUpdater struct {
	*fakeUpdater
	mu             sync.Mutex
	outstanding    int
	maxOutstanding int
	endedEarly     bool // SSFullEnd arrived with unacknowledged batches
}

func newAsyncUpdater() *asyncUpdater {
	return &asyncUpdater{fakeUpdater: newFakeUpdater()}
}

func (a *asyncUpdater) SSFullBatchStart(ctx context.Context, lrcURL string, names []string) (func(context.Context) error, error) {
	if err := a.fakeUpdater.SSFullBatch(ctx, lrcURL, names); err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.outstanding++
	if a.outstanding > a.maxOutstanding {
		a.maxOutstanding = a.outstanding
	}
	a.mu.Unlock()
	return func(context.Context) error {
		a.mu.Lock()
		a.outstanding--
		a.mu.Unlock()
		return nil
	}, nil
}

func (a *asyncUpdater) SSFullEnd(ctx context.Context, lrcURL string) error {
	a.mu.Lock()
	if a.outstanding > 0 {
		a.endedEarly = true
	}
	a.mu.Unlock()
	return a.fakeUpdater.SSFullEnd(ctx, lrcURL)
}

// populate registers n names and one plain RLI target.
func populate(t *testing.T, s *Service, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.CreateMapping(ctx, fmt.Sprintf("lfn://%03d", i), fmt.Sprintf("pfn://%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli"}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowedFullUpdateOverlapsBatches verifies that with UpdateWindow > 1
// and an async-capable connection, several batches are genuinely in flight
// at once, FIFO acknowledgement drains them all before SSFullEnd, and the
// delivered name set is complete.
func TestWindowedFullUpdateOverlapsBatches(t *testing.T) {
	up := newAsyncUpdater()
	dials := 0
	s := newTestService(t, nil, func(c *Config) {
		c.FullBatch = 5
		c.UpdateWindow = 3
		c.Dial = func(ctx context.Context, url string) (Updater, error) {
			dials++
			return up, nil
		}
	})
	const n = 40 // 8 batches of 5 against a window of 3
	populate(t, s, n)
	res := s.ForceUpdate(ctx)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if res[0].Names != n || len(up.fullSets["rls://lrc-test"]) != n {
		t.Fatalf("delivered %d names (result %d), want %d", len(up.fullSets["rls://lrc-test"]), res[0].Names, n)
	}
	if up.maxOutstanding != 3 {
		t.Fatalf("max outstanding batches = %d, want the full window of 3", up.maxOutstanding)
	}
	if up.endedEarly {
		t.Fatal("SSFullEnd overtook unacknowledged batches")
	}
	if up.closed {
		t.Fatal("link closed after an update")
	}
	if dials != 1 {
		t.Fatalf("dials = %d, want 1", dials)
	}
}

// TestWindowedFallsBackWithoutBatchStarter: UpdateWindow > 1 with a plain
// synchronous updater degrades to lock-step batches over the same link.
func TestWindowedFallsBackWithoutBatchStarter(t *testing.T) {
	up := newFakeUpdater()
	dials := 0
	s := newTestService(t, nil, func(c *Config) {
		c.FullBatch = 7
		c.UpdateWindow = 8
		c.Dial = func(ctx context.Context, url string) (Updater, error) {
			dials++
			return up, nil
		}
	})
	const n = 30
	populate(t, s, n)
	for pass := 0; pass < 2; pass++ {
		if res := s.ForceUpdate(ctx); res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
	}
	if got := up.fullSets["rls://lrc-test"]; len(got) != n {
		t.Fatalf("last full set carried %d names, want %d", len(got), n)
	}
	if dials != 1 {
		t.Fatalf("dials across two passes = %d, want 1", dials)
	}
	if up.closed {
		t.Fatal("link closed between passes")
	}
}

// TestUpdaterKeptAcrossErrors: a failed send neither closes nor replaces the
// target's link — the Updater heals itself — whatever the window.
func TestUpdaterKeptAcrossErrors(t *testing.T) {
	for _, window := range []int{0, 4} {
		var ups []*fakeUpdater
		s := newTestService(t, nil, func(c *Config) {
			c.UpdateWindow = window
			c.Dial = func(ctx context.Context, url string) (Updater, error) {
				up := newFakeUpdater()
				ups = append(ups, up)
				return up, nil
			}
		})
		populate(t, s, 10)
		if res := s.ForceUpdate(ctx); res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
		ups[0].failNext = errors.New("rli unreachable")
		if res := s.ForceUpdate(ctx); res[0].Err == nil {
			t.Fatal("expected the injected failure to surface")
		}
		if ups[0].closed {
			t.Fatalf("window %d: a failed send closed the link", window)
		}
		if res := s.ForceUpdate(ctx); res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
		if len(ups) != 1 {
			t.Fatalf("window %d: dials = %d, want 1 across a failure", window, len(ups))
		}
		if got := ups[0].fullSets["rls://lrc-test"]; len(got) != 10 {
			t.Fatalf("window %d: recovered full set carried %d names, want 10", window, len(got))
		}
	}
}

// TestTargetRemovalClosesUpdater: the link lives exactly as long as its
// target — removing the target and closing the service each close the link
// they retire, at any window, and a re-registered target gets a fresh one.
func TestTargetRemovalClosesUpdater(t *testing.T) {
	for _, window := range []int{0, 2} {
		var ups []*fakeUpdater
		s := newTestService(t, nil, func(c *Config) {
			c.UpdateWindow = window
			c.Dial = func(ctx context.Context, url string) (Updater, error) {
				up := newFakeUpdater()
				ups = append(ups, up)
				return up, nil
			}
		})
		populate(t, s, 5)
		update := func() {
			t.Helper()
			if res := s.ForceUpdate(ctx); res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
		}
		update()
		if ups[0].closed {
			t.Fatal("link closed while target still registered")
		}
		if err := s.RemoveRLITarget(ctx, "rls://rli"); err != nil {
			t.Fatal(err)
		}
		if !ups[0].closed {
			t.Fatalf("window %d: link survived target removal", window)
		}
		if err := s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli", Bloom: true}); err != nil {
			t.Fatal(err)
		}
		update()
		if len(ups) != 2 || ups[1].closed {
			t.Fatalf("window %d: re-registered target has %d links, want a second, open one", window, len(ups))
		}
		s.Close()
		if !ups[1].closed {
			t.Fatalf("window %d: link survived Service.Close", window)
		}
	}
}
