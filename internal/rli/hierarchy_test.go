package rli

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// memParent records forwarded soft state in memory, acting as the parent
// RLI endpoint.
type memParent struct {
	mu      sync.Mutex
	full    map[string][]string // lrc url -> names from the last full update
	current map[string][]string
	blooms  map[string][]byte
	fails   int // dial attempts still to refuse
	calls   int // dial attempts
	closes  int

	failBatch int      // 1-based index of the SSFullBatch call that fails; 0 = none
	batches   int      // SSFullBatch calls
	aborts    []string // lrc urls SSFullAbort was sent for
}

func newMemParent() *memParent {
	return &memParent{
		full:    make(map[string][]string),
		current: make(map[string][]string),
		blooms:  make(map[string][]byte),
	}
}

func (m *memParent) dial(ctx context.Context, url string) (Updater, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls++
	if m.fails > 0 {
		m.fails--
		return nil, errors.New("parent unreachable")
	}
	return m, nil
}

func (m *memParent) SSFullStart(ctx context.Context, lrcURL string, total uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.current[lrcURL] = nil
	return nil
}

func (m *memParent) SSFullBatch(ctx context.Context, lrcURL string, names []string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches++
	if m.batches == m.failBatch {
		return errors.New("injected mid-stream batch failure")
	}
	m.current[lrcURL] = append(m.current[lrcURL], names...)
	return nil
}

func (m *memParent) SSFullEnd(ctx context.Context, lrcURL string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.full[lrcURL] = m.current[lrcURL]
	return nil
}

func (m *memParent) SSFullAbort(ctx context.Context, lrcURL string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.aborts = append(m.aborts, lrcURL)
	delete(m.current, lrcURL)
	return nil
}

func (m *memParent) SSIncremental(ctx context.Context, lrcURL string, added, removed []string) error { return nil }

func (m *memParent) SSBloom(ctx context.Context, lrcURL string, bitmap []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blooms[lrcURL] = append([]byte(nil), bitmap...)
	return nil
}

func (m *memParent) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closes++
	return nil
}

func TestForwardAllGroupsBySourceLRC(t *testing.T) {
	s := newTestRLI(t, nil)
	s.HandleIncremental(ctx, "rls://lrc-a", []string{"lfn://a1", "lfn://a2"}, nil)
	s.HandleIncremental(ctx, "rls://lrc-b", []string{"lfn://b1"}, nil)
	s.HandleBloom(ctx, "rls://lrc-c", bloomPayloadStandalone("lfn://c1"))

	parent := newMemParent()
	s.ConfigureForwarding(parent.dial, 1)
	if err := s.AddParent("rls://parent"); err != nil {
		t.Fatal(err)
	}
	results := s.ForwardAll(ctx)
	if len(results) != 1 || results[0].Err != nil {
		t.Fatalf("results = %+v", results)
	}
	if results[0].Sources != 3 || results[0].Names != 3 || results[0].Blooms != 1 {
		t.Fatalf("result = %+v", results[0])
	}
	parent.mu.Lock()
	defer parent.mu.Unlock()
	if len(parent.full["rls://lrc-a"]) != 2 || len(parent.full["rls://lrc-b"]) != 1 {
		t.Fatalf("parent full state = %+v", parent.full)
	}
	if _, ok := parent.blooms["rls://lrc-c"]; !ok {
		t.Fatalf("parent blooms = %+v", parent.blooms)
	}
}

func TestForwardingConfigGuards(t *testing.T) {
	s := newTestRLI(t, nil)
	if err := s.AddParent("rls://p"); err == nil {
		t.Fatal("AddParent before ConfigureForwarding accepted")
	}
	parent := newMemParent()
	s.ConfigureForwarding(parent.dial, 0) // 0 -> default batch
	if err := s.AddParent(""); err == nil {
		t.Fatal("empty parent accepted")
	}
	if err := s.AddParent(s.URL()); err == nil {
		t.Fatal("self parent accepted")
	}
	if err := s.AddParent("rls://p"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddParent("rls://p"); err == nil {
		t.Fatal("duplicate parent accepted")
	}
	if err := s.StartForwardLoop(0); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestForwardLoopRunsOnTicker(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	s := newTestRLI(t, func(c *Config) { c.Clock = fc })
	s.HandleIncremental(ctx, "rls://lrc", []string{"lfn://x"}, nil)
	parent := newMemParent()
	s.ConfigureForwarding(parent.dial, 100)
	if err := s.AddParent("rls://parent"); err != nil {
		t.Fatal(err)
	}
	if err := s.StartForwardLoop(time.Minute); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fc.Pending() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	fc.Advance(time.Minute)
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		parent.mu.Lock()
		n := len(parent.full["rls://lrc"])
		parent.mu.Unlock()
		if n == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("forward loop never pushed state")
}

func TestForwardErrorReported(t *testing.T) {
	s := newTestRLI(t, nil)
	s.HandleIncremental(ctx, "rls://lrc", []string{"lfn://x"}, nil)
	parent := newMemParent()
	parent.fails = 1
	s.ConfigureForwarding(parent.dial, 100)
	s.AddParent("rls://parent")
	results := s.ForwardAll(ctx)
	if results[0].Err == nil {
		t.Fatal("dial failure not reported")
	}
	// Next round succeeds.
	results = s.ForwardAll(ctx)
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
}

// TestForwardMidStreamFailureAborts: a forward that fails after SSFullStart
// must discard the half-open session at the parent instead of leaving it to
// expire, and must not abort sources whose update completed.
func TestForwardMidStreamFailureAborts(t *testing.T) {
	s := newTestRLI(t, nil)
	s.HandleIncremental(ctx, "rls://lrc-a", []string{"lfn://a1"}, nil)
	s.HandleIncremental(ctx, "rls://lrc-b", []string{"lfn://b1", "lfn://b2", "lfn://b3"}, nil)
	parent := newMemParent()
	parent.failBatch = 3 // lrc-a's only batch, then lrc-b's second
	s.ConfigureForwarding(parent.dial, 1)
	if err := s.AddParent("rls://parent"); err != nil {
		t.Fatal(err)
	}
	res := s.ForwardAll(ctx)
	if res[0].Err == nil || res[0].Sources != 1 {
		t.Fatalf("result = %+v, want a failure after one completed source", res[0])
	}
	parent.mu.Lock()
	aborts, open := parent.aborts, len(parent.current["rls://lrc-b"])
	_, ended := parent.full["rls://lrc-b"]
	parent.mu.Unlock()
	if len(aborts) != 1 || aborts[0] != "rls://lrc-b" {
		t.Fatalf("aborts = %v, want exactly the failed source rls://lrc-b", aborts)
	}
	if ended || open != 0 {
		t.Fatalf("parent kept the failed stream (ended %v, %d names in the open session)", ended, open)
	}
	// The link and the parent are intact: the next pass completes both.
	if res := s.ForwardAll(ctx); res[0].Err != nil || res[0].Sources != 2 {
		t.Fatalf("next pass = %+v, want both sources forwarded", res[0])
	}
}

// TestParentLinkLifetime: the forwarder obtains a parent's link once, keeps
// it across passes and send errors, and closes it on RemoveParent and Close.
func TestParentLinkLifetime(t *testing.T) {
	s := newTestRLI(t, nil)
	s.HandleIncremental(ctx, "rls://lrc", []string{"lfn://x", "lfn://y"}, nil)
	parent := newMemParent()
	parent.failBatch = 2
	s.ConfigureForwarding(parent.dial, 1)
	for _, url := range []string{"rls://p1", "rls://p2"} {
		if err := s.AddParent(url); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 3; pass++ {
		s.ForwardAll(ctx) // pass 0 fails mid-stream at p1
	}
	parent.mu.Lock()
	calls, closes := parent.calls, parent.closes
	parent.mu.Unlock()
	if calls != 2 || closes != 0 {
		t.Fatalf("after 3 passes to 2 parents: %d dials, %d closes; want 2 and 0", calls, closes)
	}
	if err := s.RemoveParent("rls://p1"); err != nil {
		t.Fatal(err)
	}
	parent.mu.Lock()
	closes = parent.closes
	parent.mu.Unlock()
	if closes != 1 {
		t.Fatalf("closes after RemoveParent = %d, want 1", closes)
	}
	s.Close()
	parent.mu.Lock()
	closes = parent.closes
	parent.mu.Unlock()
	if closes != 2 {
		t.Fatalf("closes after Close = %d, want 2", closes)
	}
}

func TestNamesForLRCService(t *testing.T) {
	s := newTestRLI(t, nil)
	s.HandleIncremental(ctx, "rls://lrc", []string{"lfn://b", "lfn://a"}, nil)
	names, err := s.NamesForLRC(ctx, "rls://lrc")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "lfn://a" || names[1] != "lfn://b" {
		t.Fatalf("names = %v (want sorted)", names)
	}
	// Unknown LRC: empty, not an error.
	names, err = s.NamesForLRC(ctx, "rls://ghost")
	if err != nil || len(names) != 0 {
		t.Fatalf("ghost = %v, %v", names, err)
	}
	// Bloom-only service has no database to enumerate.
	bloomOnly, _ := New(Config{URL: "rls://b"})
	defer bloomOnly.Close()
	if _, err := bloomOnly.NamesForLRC(ctx, "rls://x"); err == nil {
		t.Fatal("bloom-only enumeration succeeded")
	}
}
