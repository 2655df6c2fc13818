package membership

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/disk"
	"repro/internal/lrc"
	"repro/internal/rdb"
	"repro/internal/storage"
)

// nullUpdater satisfies lrc.Updater, discarding all soft state.
type nullUpdater struct{}

func (nullUpdater) SSFullStart(context.Context, string, uint64) error               { return nil }
func (nullUpdater) SSFullBatch(context.Context, string, []string) error             { return nil }
func (nullUpdater) SSFullEnd(context.Context, string) error                         { return nil }
func (nullUpdater) SSFullAbort(context.Context, string) error                       { return nil }
func (nullUpdater) SSIncremental(context.Context, string, []string, []string) error { return nil }
func (nullUpdater) SSBloom(context.Context, string, []byte) error                   { return nil }
func (nullUpdater) Close() error                                                    { return nil }

// TestViewChurnRace hammers RLIGroupSync with concurrent membership churn
// while the LRC is actively mutating and pushing soft state — the shape
// `make stress` runs under -race. The invariant under test is freedom from
// data races plus convergence: once churn stops, the LRC's target set
// matches the final view exactly.
func TestViewChurnRace(t *testing.T) {
	eng := storage.OpenMemory(storage.Options{Device: disk.New(disk.Fast())})
	t.Cleanup(func() { eng.Close() })
	db, err := rdb.NewLRCDB(eng)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := lrc.New(ctx, lrc.Config{
		URL: "rls://lrc-churn",
		DB:  db,
		Dial: func(ctx context.Context, url string) (lrc.Updater, error) {
			return nullUpdater{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	fc := clock.NewFake(time.Unix(0, 0))
	reg := NewRegistry(RegistryConfig{TTL: time.Hour, Clock: fc})
	onView := RLIGroupSync(svc, "g1", true, nil)

	const replicas = 4
	const rounds = 25
	var wg sync.WaitGroup

	// Churner: joins and leaves replicas, pulling + applying a view after
	// each change like an agent would.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("rli-%d", i%replicas)
			if err := reg.HandleJoin(ctx, member(name, "rli")); err != nil {
				t.Error(err)
				return
			}
			if v, err := reg.HandleView(ctx, 0); err == nil && v.Changed {
				onView(v)
			}
			if i%3 == 2 {
				if err := reg.HandleLeave(ctx, name); err != nil {
					t.Error(err)
					return
				}
				if v, err := reg.HandleView(ctx, 0); err == nil && v.Changed {
					onView(v)
				}
			}
		}
	}()

	// A second view applier racing the first (two agents pulling the same
	// registry from different seeds).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if v, err := reg.HandleView(ctx, 0); err == nil && v.Changed {
				onView(v)
			}
		}
	}()

	// Mutator: the LRC keeps registering mappings and fanning out soft
	// state while its target set churns underneath.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := svc.CreateMapping(ctx, fmt.Sprintf("lfn://churn-%d", i), "pfn://x"); err != nil {
				t.Error(err)
				return
			}
			svc.ForceUpdate(ctx)
		}
	}()

	wg.Wait()

	// Convergence: apply the final view once more, then the target set must
	// equal the view's group members.
	final, err := reg.HandleView(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	onView(final)
	want := make(map[string]bool)
	for _, m := range GroupMembers(final, "g1") {
		want[m.URL] = true
	}
	targets, err := svc.ListRLITargets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, tg := range targets {
		got[tg.URL] = true
	}
	if len(got) != len(want) {
		t.Fatalf("target set did not converge: got %v, want %v", got, want)
	}
	for url := range want {
		if !got[url] {
			t.Fatalf("target set missing %s: got %v", url, got)
		}
	}
}
