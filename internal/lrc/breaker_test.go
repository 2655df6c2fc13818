package lrc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/clock"
	"repro/internal/disk"
	"repro/internal/rdb"
	"repro/internal/storage"
	"repro/internal/wire"
)

// flakyDialer simulates an RLI that is down (every dial fails) until healed.
type flakyDialer struct {
	mu    sync.Mutex
	down  bool
	dials int
	up    *fakeUpdater
}

func (d *flakyDialer) dial(ctx context.Context, url string) (Updater, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dials++
	if d.down {
		return nil, errors.New("rli unreachable")
	}
	return d.up, nil
}

func (d *flakyDialer) setDown(down bool) {
	d.mu.Lock()
	d.down = down
	d.mu.Unlock()
}

func (d *flakyDialer) dialCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials
}

func newBreakerTestService(t *testing.T, fc *clock.Fake, d *flakyDialer, mutate func(*Config)) *Service {
	t.Helper()
	eng := storage.OpenMemory(storage.Options{Device: disk.New(disk.Fast())})
	t.Cleanup(func() { eng.Close() })
	db, err := rdb.NewLRCDB(eng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		URL:   "rls://lrc-test",
		DB:    db,
		Dial:  d.dial,
		Clock: fc,
		// Deterministic breaker: 2 strikes, 1-minute probe spacing, no jitter.
		FailThreshold: 2,
		Backoff:       backoff.Policy{Base: time.Minute, Max: 10 * time.Minute, Multiplier: 2, Jitter: 0},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func targetStat(t *testing.T, s *Service, url string) TargetStats {
	t.Helper()
	for _, ts := range s.TargetStats() {
		if ts.URL == url {
			return ts
		}
	}
	t.Fatalf("no TargetStats for %s", url)
	return TargetStats{}
}

// TestBreakerQuarantinesDeadTarget is the regression test for the
// redial-every-round loop: once a target trips the failure threshold, the
// scheduled update passes skip it without dialing until the next half-open
// probe is due, and redial attempts against the dead target stay bounded.
func TestBreakerQuarantinesDeadTarget(t *testing.T) {
	fc := clock.NewFake(time.Unix(1000, 0))
	d := &flakyDialer{down: true, up: newFakeUpdater()}
	s := newBreakerTestService(t, fc, d, nil)
	if err := s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli"}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateMapping(ctx, "lfn://a", "pfn://a1"); err != nil {
		t.Fatal(err)
	}

	// Two failed rounds trip the threshold: healthy → degraded → quarantined.
	s.ForceUpdate(ctx)
	if st := targetStat(t, s, "rls://rli"); st.State != "degraded" {
		t.Fatalf("after 1 failure state = %s, want degraded", st.State)
	}
	s.ForceUpdate(ctx)
	if st := targetStat(t, s, "rls://rli"); st.State != "quarantined" {
		t.Fatalf("after 2 failures state = %s, want quarantined", st.State)
	}
	if d.dialCount() != 2 {
		t.Fatalf("dials = %d, want 2", d.dialCount())
	}

	// While quarantined every scheduled round is skipped: no dials at all.
	for i := 0; i < 5; i++ {
		res := s.ForceUpdate(ctx)
		if len(res) != 1 || !res[0].Skipped {
			t.Fatalf("round %d: result = %+v, want skipped", i, res[0])
		}
	}
	if d.dialCount() != 2 {
		t.Fatalf("dials while quarantined = %d, want 2 (no redials)", d.dialCount())
	}
	st := targetStat(t, s, "rls://rli")
	if st.Skipped != 5 || st.Failed != 2 {
		t.Fatalf("stats = %+v, want Skipped=5 Failed=2", st)
	}

	// After the probe delay one half-open probe is admitted; it fails and
	// the target re-quarantines with a doubled delay.
	fc.Advance(time.Minute)
	res := s.ForceUpdate(ctx)
	if res[0].Skipped || res[0].Err == nil {
		t.Fatalf("probe result = %+v, want a failed send", res[0])
	}
	if d.dialCount() != 3 {
		t.Fatalf("dials after probe = %d, want 3", d.dialCount())
	}
	if st := targetStat(t, s, "rls://rli"); st.State != "quarantined" || st.Probes != 1 {
		t.Fatalf("after failed probe: %+v, want quarantined with Probes=1", st)
	}
	// The next probe is now 2 minutes out: at +1 minute it is still skipped.
	fc.Advance(time.Minute)
	if res := s.ForceUpdate(ctx); !res[0].Skipped {
		t.Fatalf("probe admitted before backed-off deadline: %+v", res[0])
	}

	// Heal the RLI; the next due probe succeeds and restores the target.
	d.setDown(false)
	fc.Advance(time.Minute)
	res = s.ForceUpdate(ctx)
	if res[0].Skipped || res[0].Err != nil {
		t.Fatalf("recovery probe = %+v, want success", res[0])
	}
	st = targetStat(t, s, "rls://rli")
	if st.State != "healthy" || st.ConsecFails != 0 {
		t.Fatalf("after recovery: %+v, want healthy", st)
	}
	// Normal service resumed: the following round sends without skipping.
	if res := s.ForceUpdate(ctx); res[0].Skipped || res[0].Err != nil {
		t.Fatalf("post-recovery round = %+v", res[0])
	}
	// Dial was retried only until it first succeeded (3 failures + 1).
	if d.dialCount() != 4 {
		t.Fatalf("dials = %d, want 4: none once the target has its link", d.dialCount())
	}
}

// TestBreakerSkipRequeuesIncrementalDeltas: deltas destined for a
// quarantined target are not lost — they are re-queued for the next flush,
// exactly as for a failed send, just without paying for the dial.
func TestBreakerSkipRequeuesIncrementalDeltas(t *testing.T) {
	fc := clock.NewFake(time.Unix(1000, 0))
	d := &flakyDialer{down: true, up: newFakeUpdater()}
	s := newBreakerTestService(t, fc, d, func(c *Config) {
		c.ImmediateMode = true
		c.ImmediateThreshold = 1
	})
	if err := s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli"}); err != nil {
		t.Fatal(err)
	}

	// Two threshold-triggered flushes fail and trip the breaker.
	if err := s.CreateMapping(ctx, "lfn://a", "pfn://a1"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateMapping(ctx, "lfn://b", "pfn://b1"); err != nil {
		t.Fatal(err)
	}
	if st := targetStat(t, s, "rls://rli"); st.State != "quarantined" {
		t.Fatalf("state = %s, want quarantined", st.State)
	}
	dials := d.dialCount()
	requeued := targetStat(t, s, "rls://rli").Requeued

	// The next flush is suppressed by the breaker: no dial, deltas kept.
	if err := s.CreateMapping(ctx, "lfn://c", "pfn://c1"); err != nil {
		t.Fatal(err)
	}
	if d.dialCount() != dials {
		t.Fatalf("quarantined flush dialed (%d -> %d)", dials, d.dialCount())
	}
	if got := s.PendingCount(); got == 0 {
		t.Fatal("deltas for quarantined target were dropped, want requeued")
	}
	st := targetStat(t, s, "rls://rli")
	if st.Requeued <= requeued {
		t.Fatalf("Requeued = %d, want > %d", st.Requeued, requeued)
	}

	// Heal and let the probe deliver the backlog.
	d.setDown(false)
	fc.Advance(time.Minute)
	if err := s.CreateMapping(ctx, "lfn://d", "pfn://d1"); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingCount(); got != 0 {
		t.Fatalf("PendingCount after recovery flush = %d, want 0", got)
	}
	if st := targetStat(t, s, "rls://rli"); st.State != "healthy" {
		t.Fatalf("state after recovery = %s, want healthy", st.State)
	}
}

// TestForceUpdateToBypassesBreaker: an explicit targeted push acts as an
// operator-initiated probe even while the target is quarantined.
func TestForceUpdateToBypassesBreaker(t *testing.T) {
	fc := clock.NewFake(time.Unix(1000, 0))
	d := &flakyDialer{down: true, up: newFakeUpdater()}
	s := newBreakerTestService(t, fc, d, nil)
	if err := s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli"}); err != nil {
		t.Fatal(err)
	}
	s.ForceUpdate(ctx)
	s.ForceUpdate(ctx)
	if st := targetStat(t, s, "rls://rli"); st.State != "quarantined" {
		t.Fatalf("state = %s, want quarantined", st.State)
	}
	d.setDown(false)
	res, err := s.ForceUpdateTo(ctx, "rls://rli")
	if err != nil || res.Err != nil {
		t.Fatalf("ForceUpdateTo = %+v, %v", res, err)
	}
	if st := targetStat(t, s, "rls://rli"); st.State != "healthy" {
		t.Fatalf("state after explicit push = %s, want healthy", st.State)
	}
}
