package lrc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bloom"
	"repro/internal/clock"
	"repro/internal/disk"
	"repro/internal/rdb"
	"repro/internal/storage"
	"repro/internal/wire"
)

// fakeUpdater records soft state traffic in memory.
type fakeUpdater struct {
	mu       sync.Mutex
	fullSets map[string][]string // per start..end session accumulation
	current  []string
	inFull   bool
	incAdds  [][]string
	incDels  [][]string
	blooms   [][]byte
	closed   bool
	failNext error
}

func newFakeUpdater() *fakeUpdater {
	return &fakeUpdater{fullSets: make(map[string][]string)}
}

func (f *fakeUpdater) maybeFail() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failNext != nil {
		err := f.failNext
		f.failNext = nil
		return err
	}
	return nil
}

func (f *fakeUpdater) SSFullStart(ctx context.Context, lrcURL string, total uint64) error {
	if err := f.maybeFail(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inFull = true
	f.current = nil
	return nil
}

func (f *fakeUpdater) SSFullBatch(ctx context.Context, lrcURL string, names []string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.current = append(f.current, names...)
	return nil
}

func (f *fakeUpdater) SSFullEnd(ctx context.Context, lrcURL string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fullSets[lrcURL] = append([]string(nil), f.current...)
	f.inFull = false
	return nil
}

func (f *fakeUpdater) SSFullAbort(ctx context.Context, lrcURL string) error { return nil }

func (f *fakeUpdater) SSIncremental(ctx context.Context, lrcURL string, added, removed []string) error {
	if err := f.maybeFail(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.incAdds = append(f.incAdds, append([]string(nil), added...))
	f.incDels = append(f.incDels, append([]string(nil), removed...))
	return nil
}

func (f *fakeUpdater) SSBloom(ctx context.Context, lrcURL string, bitmap []byte) error {
	if err := f.maybeFail(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blooms = append(f.blooms, append([]byte(nil), bitmap...))
	return nil
}

func (f *fakeUpdater) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

func newTestService(t *testing.T, up *fakeUpdater, mutate func(*Config)) *Service {
	t.Helper()
	eng := storage.OpenMemory(storage.Options{Device: disk.New(disk.Fast())})
	t.Cleanup(func() { eng.Close() })
	db, err := rdb.NewLRCDB(eng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		URL: "rls://lrc-test",
		DB:  db,
		Dial: func(ctx context.Context, url string) (Updater, error) {
			if up == nil {
				return nil, errors.New("no updater configured")
			}
			return up, nil
		},
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

func TestCreateQueryDelete(t *testing.T) {
	s := newTestService(t, nil, nil)
	if err := s.CreateMapping(ctx, "lfn://a", "pfn://a1"); err != nil {
		t.Fatal(err)
	}
	targets, err := s.GetTargets(ctx, "lfn://a")
	if err != nil || len(targets) != 1 {
		t.Fatalf("targets = %v, %v", targets, err)
	}
	if err := s.DeleteMapping(ctx, "lfn://a", "pfn://a1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetTargets(ctx, "lfn://a"); !errors.Is(err, rdb.ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestBloomFilterTracksLogicalNames(t *testing.T) {
	s := newTestService(t, nil, nil)
	s.CreateMapping(ctx, "lfn://x", "pfn://x1")
	s.AddMapping(ctx, "lfn://x", "pfn://x2") // second target: no new logical name
	s.CreateMapping(ctx, "lfn://y", "pfn://y1")

	data, err := s.FilterSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var bm bloom.Bitmap
	if err := bm.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !bm.Test("lfn://x") || !bm.Test("lfn://y") {
		t.Fatal("filter missing registered names")
	}

	// Deleting one of two targets keeps the name; deleting the last removes
	// it.
	s.DeleteMapping(ctx, "lfn://x", "pfn://x1")
	data, _ = s.FilterSnapshot()
	bm = bloom.Bitmap{}
	bm.UnmarshalBinary(data)
	if !bm.Test("lfn://x") {
		t.Fatal("name dropped from filter while a target remains")
	}
	s.DeleteMapping(ctx, "lfn://x", "pfn://x2")
	data, _ = s.FilterSnapshot()
	bm = bloom.Bitmap{}
	bm.UnmarshalBinary(data)
	if bm.Test("lfn://x") && !bm.Test("lfn://never-registered") {
		// A lone Test true could be a false positive; cross-check with a
		// name that was never added. If both hit, the filter is saturated,
		// which would be a real failure too.
		t.Fatal("removed name still in filter")
	}
}

func TestFullUpdateStreamsAllNames(t *testing.T) {
	up := newFakeUpdater()
	s := newTestService(t, up, func(c *Config) { c.FullBatch = 7 })
	const n = 40
	for i := 0; i < n; i++ {
		s.CreateMapping(ctx, fmt.Sprintf("lfn://%03d", i), fmt.Sprintf("pfn://%03d", i))
	}
	if err := s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli"}); err != nil {
		t.Fatal(err)
	}
	results := s.ForceUpdate(ctx)
	if len(results) != 1 {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if results[0].Kind != "full" || results[0].Names != n {
		t.Fatalf("result = %+v, want full with %d names", results[0], n)
	}
	got := up.fullSets["rls://lrc-test"]
	if len(got) != n {
		t.Fatalf("RLI received %d names, want %d", len(got), n)
	}
	if up.closed {
		t.Fatal("link closed after an update; it is kept while the target is registered")
	}
	if st := s.Stats(); st.FullUpdates != 1 || st.NamesSent != n {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBloomUpdateSendsBitmap(t *testing.T) {
	up := newFakeUpdater()
	s := newTestService(t, up, nil)
	s.CreateMapping(ctx, "lfn://a", "pfn://a")
	s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli", Bloom: true})
	results := s.ForceUpdate(ctx)
	if results[0].Err != nil || results[0].Kind != "bloom" {
		t.Fatalf("result = %+v", results[0])
	}
	if len(up.blooms) != 1 {
		t.Fatalf("blooms = %d, want 1", len(up.blooms))
	}
	var bm bloom.Bitmap
	if err := bm.UnmarshalBinary(up.blooms[0]); err != nil {
		t.Fatal(err)
	}
	if !bm.Test("lfn://a") {
		t.Fatal("bitmap missing registered name")
	}
	if results[0].Bytes != len(up.blooms[0]) {
		t.Fatalf("Bytes = %d, payload = %d", results[0].Bytes, len(up.blooms[0]))
	}
}

func TestPartitionedFullUpdate(t *testing.T) {
	up := newFakeUpdater()
	s := newTestService(t, up, nil)
	s.CreateMapping(ctx, "lfn://ligo/a", "pfn://1")
	s.CreateMapping(ctx, "lfn://ligo/b", "pfn://2")
	s.CreateMapping(ctx, "lfn://esg/c", "pfn://3")
	if err := s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli", Patterns: []string{`^lfn://ligo/`}}); err != nil {
		t.Fatal(err)
	}
	res := s.ForceUpdate(ctx)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	got := up.fullSets["rls://lrc-test"]
	if len(got) != 2 {
		t.Fatalf("partitioned update carried %v, want only ligo names", got)
	}
	for _, n := range got {
		if n[:11] != "lfn://ligo/" {
			t.Fatalf("out-of-partition name %q", n)
		}
	}
}

func TestPartitionedBloomUpdate(t *testing.T) {
	up := newFakeUpdater()
	s := newTestService(t, up, nil)
	s.CreateMapping(ctx, "lfn://ligo/a", "pfn://1")
	s.CreateMapping(ctx, "lfn://esg/b", "pfn://2")
	s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli", Bloom: true, Patterns: []string{`^lfn://ligo/`}})
	res := s.ForceUpdate(ctx)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	var bm bloom.Bitmap
	bm.UnmarshalBinary(up.blooms[0])
	if !bm.Test("lfn://ligo/a") {
		t.Fatal("partition member missing")
	}
	if bm.Test("lfn://esg/b") {
		t.Fatal("out-of-partition name present (not just a false positive at this fill)")
	}
}

func TestInvalidPartitionPatternRejected(t *testing.T) {
	s := newTestService(t, nil, nil)
	err := s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli", Patterns: []string{"["}})
	if !errors.Is(err, rdb.ErrInvalid) {
		t.Fatalf("bad pattern = %v, want ErrInvalid", err)
	}
}

func TestImmediateModeFlushOnInterval(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	up := newFakeUpdater()
	s := newTestService(t, up, func(c *Config) {
		c.Clock = fc
		c.ImmediateMode = true
		c.ImmediateInterval = 30 * time.Second
		c.ImmediateThreshold = 1000 // interval fires first
	})
	s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli"})
	s.Start()
	waitFor(t, func() bool { return fc.Pending() > 0 }, "immediate-loop ticker registration")
	s.CreateMapping(ctx, "lfn://new", "pfn://new")
	if s.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", s.PendingCount())
	}
	fc.Advance(30 * time.Second)
	waitFor(t, func() bool {
		up.mu.Lock()
		defer up.mu.Unlock()
		return len(up.incAdds) == 1
	}, "incremental update after interval")
	if s.PendingCount() != 0 {
		t.Fatalf("pending = %d after flush", s.PendingCount())
	}
	up.mu.Lock()
	adds := up.incAdds[0]
	up.mu.Unlock()
	if len(adds) != 1 || adds[0] != "lfn://new" {
		t.Fatalf("incremental adds = %v", adds)
	}
}

func TestImmediateModeFlushOnThreshold(t *testing.T) {
	up := newFakeUpdater()
	s := newTestService(t, up, func(c *Config) {
		c.ImmediateMode = true
		c.ImmediateInterval = time.Hour // threshold fires first
		c.ImmediateThreshold = 5
	})
	s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli"})
	for i := 0; i < 5; i++ {
		s.CreateMapping(ctx, fmt.Sprintf("lfn://%d", i), fmt.Sprintf("pfn://%d", i))
	}
	waitFor(t, func() bool {
		up.mu.Lock()
		defer up.mu.Unlock()
		return len(up.incAdds) >= 1
	}, "threshold-triggered incremental update")
	if s.PendingCount() != 0 {
		t.Fatalf("pending = %d after threshold flush", s.PendingCount())
	}
}

func TestIncrementalCarriesRemovals(t *testing.T) {
	up := newFakeUpdater()
	s := newTestService(t, up, func(c *Config) {
		c.ImmediateMode = true
		c.ImmediateThreshold = 2
	})
	s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli"})
	s.CreateMapping(ctx, "lfn://x", "pfn://x")
	s.DeleteMapping(ctx, "lfn://x", "pfn://x")
	waitFor(t, func() bool {
		up.mu.Lock()
		defer up.mu.Unlock()
		return len(up.incDels) >= 1 && len(up.incDels[0]) == 1
	}, "removal in incremental update")
}

func TestUpdateErrorCounted(t *testing.T) {
	up := newFakeUpdater()
	s := newTestService(t, up, nil)
	s.CreateMapping(ctx, "lfn://a", "pfn://a")
	s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli"})
	up.failNext = errors.New("rli unreachable")
	res := s.ForceUpdate(ctx)
	if res[0].Err == nil {
		t.Fatal("expected update error")
	}
	if st := s.Stats(); st.UpdateErrors != 1 {
		t.Fatalf("UpdateErrors = %d", st.UpdateErrors)
	}
	// Next update succeeds.
	res = s.ForceUpdate(ctx)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
}

func TestForceUpdateToUnknownTarget(t *testing.T) {
	s := newTestService(t, nil, nil)
	if _, err := s.ForceUpdateTo(ctx, "rls://nowhere"); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestRebuildFilter(t *testing.T) {
	s := newTestService(t, nil, nil)
	for i := 0; i < 100; i++ {
		s.CreateMapping(ctx, fmt.Sprintf("lfn://%d", i), fmt.Sprintf("pfn://%d", i))
	}
	elapsed, err := s.RebuildFilter(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed < 0 {
		t.Fatalf("elapsed = %v", elapsed)
	}
	data, _ := s.FilterSnapshot()
	var bm bloom.Bitmap
	bm.UnmarshalBinary(data)
	for i := 0; i < 100; i += 17 {
		if !bm.Test(fmt.Sprintf("lfn://%d", i)) {
			t.Fatalf("rebuilt filter missing lfn://%d", i)
		}
	}
}

func TestFilterGrowsBeyondHint(t *testing.T) {
	s := newTestService(t, nil, func(c *Config) { c.BloomSizeHint = 10 })
	// Insert far beyond the hint: the filter must grow to keep FP rates
	// sane, and must never produce false negatives.
	for i := 0; i < 2000; i++ {
		s.CreateMapping(ctx, fmt.Sprintf("lfn://grow/%04d", i), fmt.Sprintf("pfn://%04d", i))
	}
	data, _ := s.FilterSnapshot()
	var bm bloom.Bitmap
	bm.UnmarshalBinary(data)
	for i := 0; i < 2000; i += 97 {
		if !bm.Test(fmt.Sprintf("lfn://grow/%04d", i)) {
			t.Fatalf("false negative after growth: %04d", i)
		}
	}
	if bm.MBits() < 2000*5 {
		t.Fatalf("filter did not grow: %d bits for 2000 names", bm.MBits())
	}
}

func TestServiceRequiresDBAndURL(t *testing.T) {
	if _, err := New(ctx, Config{URL: "rls://x"}); err == nil {
		t.Fatal("missing DB accepted")
	}
	eng := storage.OpenMemory(storage.Options{Device: disk.New(disk.Fast())})
	defer eng.Close()
	db, _ := rdb.NewLRCDB(eng)
	if _, err := New(ctx, Config{DB: db}); err == nil {
		t.Fatal("missing URL accepted")
	}
}

func TestPersistedTargetsRestoredOnNew(t *testing.T) {
	eng := storage.OpenMemory(storage.Options{Device: disk.New(disk.Fast())})
	defer eng.Close()
	db, _ := rdb.NewLRCDB(eng)
	if err := db.AddRLITarget(wire.RLITarget{URL: "rls://persisted", Bloom: true}); err != nil {
		t.Fatal(err)
	}
	up := newFakeUpdater()
	s, err := New(ctx, Config{
		URL:  "rls://lrc",
		DB:   db,
		Dial: func(context.Context, string) (Updater, error) { return up, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.ForceUpdate(ctx)
	if len(res) != 1 || res[0].URL != "rls://persisted" || res[0].Kind != "bloom" {
		t.Fatalf("restored targets = %+v", res)
	}
}

func TestBulkOutcomeReportsFailures(t *testing.T) {
	s := newTestService(t, nil, nil)
	s.CreateMapping(ctx, "lfn://dup", "pfn://x")
	outcome := s.BulkCreate(ctx, []wire.Mapping{
		{Logical: "lfn://ok", Target: "pfn://1"},
		{Logical: "lfn://dup", Target: "pfn://2"},
		{Logical: "", Target: "pfn://3"},
	})
	if len(outcome.Failures) != 2 {
		t.Fatalf("failures = %+v, want 2", outcome.Failures)
	}
	if outcome.Failures[0].Index != 1 || outcome.Failures[0].Status != wire.StatusExists {
		t.Fatalf("failure[0] = %+v", outcome.Failures[0])
	}
	if outcome.Failures[1].Index != 2 || outcome.Failures[1].Status != wire.StatusBadRequest {
		t.Fatalf("failure[1] = %+v", outcome.Failures[1])
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// abortingUpdater wraps fakeUpdater with a scripted mid-stream batch
// failure and records SSFullAbort calls, exercising the sender's
// half-open-session cleanup path.
type abortingUpdater struct {
	*fakeUpdater
	abMu      sync.Mutex
	batches   int
	failBatch int // 1-based index of the SSFullBatch call that fails
	aborts    []string
}

func (a *abortingUpdater) SSFullBatch(ctx context.Context, lrcURL string, names []string) error {
	a.abMu.Lock()
	a.batches++
	fail := a.batches == a.failBatch
	a.abMu.Unlock()
	if fail {
		return errors.New("injected mid-stream batch failure")
	}
	return a.fakeUpdater.SSFullBatch(ctx, lrcURL, names)
}

func (a *abortingUpdater) SSFullAbort(ctx context.Context, lrcURL string) error {
	a.abMu.Lock()
	defer a.abMu.Unlock()
	a.aborts = append(a.aborts, lrcURL)
	return nil
}

func (a *abortingUpdater) abortCount() int {
	a.abMu.Lock()
	defer a.abMu.Unlock()
	return len(a.aborts)
}

func TestFullUpdateMidStreamFailureAborts(t *testing.T) {
	up := &abortingUpdater{fakeUpdater: newFakeUpdater(), failBatch: 2}
	s := newTestService(t, nil, func(c *Config) {
		c.FullBatch = 5
		c.Dial = func(ctx context.Context, url string) (Updater, error) { return up, nil }
	})
	for i := 0; i < 20; i++ {
		s.CreateMapping(ctx, fmt.Sprintf("lfn://%03d", i), fmt.Sprintf("pfn://%03d", i))
	}
	if err := s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli"}); err != nil {
		t.Fatal(err)
	}
	res := s.ForceUpdate(ctx)
	if len(res) != 1 || res[0].Err == nil {
		t.Fatalf("results = %+v, want one failed full update", res)
	}
	if got := up.abortCount(); got != 1 {
		t.Fatalf("SSFullAbort called %d times, want 1", got)
	}
	up.abMu.Lock()
	target := up.aborts[0]
	up.abMu.Unlock()
	if target != "rls://lrc-test" {
		t.Fatalf("abort sent for %q, want the sender's own URL", target)
	}
	up.mu.Lock()
	ended := !up.inFull
	up.mu.Unlock()
	if ended {
		t.Fatal("SSFullEnd ran despite the mid-stream failure")
	}
}

func TestFullUpdateStartFailureDoesNotAbort(t *testing.T) {
	up := &abortingUpdater{fakeUpdater: newFakeUpdater()}
	up.failNext = errors.New("injected start failure")
	s := newTestService(t, nil, func(c *Config) {
		c.Dial = func(ctx context.Context, url string) (Updater, error) { return up, nil }
	})
	s.CreateMapping(ctx, "lfn://a", "pfn://a")
	if err := s.AddRLITarget(ctx, wire.RLITarget{URL: "rls://rli"}); err != nil {
		t.Fatal(err)
	}
	res := s.ForceUpdate(ctx)
	if res[0].Err == nil {
		t.Fatal("expected SSFullStart failure")
	}
	// No session was opened on the RLI, so there is nothing to abort.
	if got := up.abortCount(); got != 0 {
		t.Fatalf("SSFullAbort called %d times, want 0", got)
	}
}
