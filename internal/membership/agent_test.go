package membership

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/wire"
)

// fakeStatusErr mimics client.StatusError via the statusCoded interface.
type fakeStatusErr struct{ code uint16 }

func (e *fakeStatusErr) Error() string      { return fmt.Sprintf("status %d", e.code) }
func (e *fakeStatusErr) StatusCode() uint16 { return e.code }

// fakeSeed is an in-memory MemberClient backed by a Registry, optionally
// failing at the transport level.
type fakeSeed struct {
	reg *Registry

	mu     sync.Mutex
	dead   bool // transport-level failure on every call, and on Dial
	closed bool
	calls  int
	dials  int // successful cfg.Dial calls for this seed
}

func (f *fakeSeed) check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.dead || f.closed {
		return errors.New("connection reset")
	}
	return nil
}

// asStatus converts registry sentinel errors into wire-status shapes the way
// the real server + client pair would.
func asStatus(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrUnknownMember) {
		return &fakeStatusErr{code: uint16(wire.StatusNotFound)}
	}
	return err
}

func (f *fakeSeed) MemberJoin(ctx context.Context, m wire.MemberInfo) error {
	if err := f.check(); err != nil {
		return err
	}
	return asStatus(f.reg.HandleJoin(ctx, m))
}

func (f *fakeSeed) MemberLeave(ctx context.Context, name string) error {
	if err := f.check(); err != nil {
		return err
	}
	return asStatus(f.reg.HandleLeave(ctx, name))
}

func (f *fakeSeed) MemberHeartbeat(ctx context.Context, name string) error {
	if err := f.check(); err != nil {
		return err
	}
	return asStatus(f.reg.HandleHeartbeat(ctx, name))
}

func (f *fakeSeed) MemberView(ctx context.Context, since uint64) (*wire.MemberViewResponse, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	v, err := f.reg.HandleView(ctx, since)
	return v, asStatus(err)
}

func (f *fakeSeed) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	return nil
}

func (f *fakeSeed) setDead(dead bool) {
	f.mu.Lock()
	f.dead = dead
	f.mu.Unlock()
}

func (f *fakeSeed) dialCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dials
}

func newAgentFixture(t *testing.T, seeds map[string]*fakeSeed, self wire.MemberInfo, fc clock.Clock) *Agent {
	t.Helper()
	urls := make([]string, 0, len(seeds))
	for url := range seeds {
		urls = append(urls, url)
	}
	sort.Strings(urls) // the agent tries seeds in order; tests name the first to fail "seed1"
	a, err := NewAgent(AgentConfig{
		Self:  self,
		Seeds: urls,
		Dial: func(ctx context.Context, url string) (MemberClient, error) {
			s := seeds[url]
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.dead {
				return nil, errors.New("dial refused")
			}
			s.dials++
			return s, nil
		},
		Clock: fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAgentJoinHeartbeatRejoin(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	reg := NewRegistry(RegistryConfig{TTL: 10 * time.Second, Clock: fc})
	seed := &fakeSeed{reg: reg}
	self := member("rli-a", "rli")
	a := newAgentFixture(t, map[string]*fakeSeed{"rls://seed": seed}, self, fc)

	if err := a.Start(context.Background()); err != nil {
		t.Fatalf("initial join: %v", err)
	}
	defer a.Close()
	if reg.MemberCount() != 1 {
		t.Fatal("join did not register the member")
	}

	// Heartbeats renew the lease.
	a.heartbeat()
	if st := a.Stats(); st.Heartbeats != 1 {
		t.Fatalf("Heartbeats = %d, want 1", st.Heartbeats)
	}

	// Simulate a lease expiry on the seed: the next heartbeat is refused
	// with not-found and the agent re-joins transparently.
	if err := reg.HandleLeave(context.Background(), "rli-a"); err != nil {
		t.Fatal(err)
	}
	a.heartbeat()
	st := a.Stats()
	if st.Rejoins != 1 {
		t.Fatalf("Rejoins = %d, want 1", st.Rejoins)
	}
	if reg.MemberCount() != 1 {
		t.Fatal("re-join did not restore the member")
	}
}

func TestAgentRotatesSeedsOnTransportFailure(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	reg := NewRegistry(RegistryConfig{Clock: fc})
	// Both seeds answer from one registry, as real seeds eventually would via
	// their own anti-entropy; here the point is only the rotation.
	s1 := &fakeSeed{reg: reg}
	s2 := &fakeSeed{reg: reg}
	s1.setDead(true)
	a := newAgentFixture(t, map[string]*fakeSeed{"rls://seed1": s1, "rls://seed2": s2}, member("rli-a", "rli"), fc)

	if err := a.Start(context.Background()); err != nil {
		t.Fatalf("join should have rotated to the live seed: %v", err)
	}
	defer a.Close()
	if reg.MemberCount() != 1 {
		t.Fatal("member not registered via the surviving seed")
	}
	if st := a.Stats(); st.SeedErrors == 0 {
		t.Fatal("dead seed left no SeedErrors trace")
	}

	// The agent keeps one link per seed: rotating away closes nothing, and
	// a seed that comes back is reused without a second Dial.
	s1.setDead(false)
	s2.setDead(true)
	a.heartbeat() // s2 fails at the transport level; rotates to s1, first Dial
	s2.setDead(false)
	s1.setDead(true)
	a.heartbeat() // back to s2 over the link it already has
	if st := a.Stats(); st.Heartbeats != 2 {
		t.Fatalf("Heartbeats = %d, want 2 (one per rotation)", st.Heartbeats)
	}
	if s1.dialCount() != 1 || s2.dialCount() != 1 {
		t.Fatalf("dials = %d to seed1, %d to seed2; want 1 each", s1.dialCount(), s2.dialCount())
	}
	if s1.closed || s2.closed {
		t.Fatal("rotation closed a seed link")
	}
	a.Close()
	if !s1.closed || !s2.closed {
		t.Fatal("Close left a seed link open")
	}
}

func TestAgentPullViewAppliesOnlyNewGenerations(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	reg := NewRegistry(RegistryConfig{Clock: fc})
	seed := &fakeSeed{reg: reg}
	var views []*wire.MemberViewResponse
	var mu sync.Mutex
	a := newAgentFixture(t, map[string]*fakeSeed{"rls://seed": seed}, member("rli-a", "rli"), fc)
	a.cfg.OnView = func(v *wire.MemberViewResponse) {
		mu.Lock()
		views = append(views, v)
		mu.Unlock()
	}

	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.PullNow() // gen 1: self joined
	a.PullNow() // unchanged → no callback
	if err := reg.HandleJoin(context.Background(), member("rli-b", "rli")); err != nil {
		t.Fatal(err)
	}
	a.PullNow() // gen 2

	mu.Lock()
	defer mu.Unlock()
	if len(views) != 2 {
		t.Fatalf("OnView fired %d times, want 2 (gen 1 and gen 2 only)", len(views))
	}
	if views[1].Generation != 2 || len(views[1].Members) != 2 {
		t.Fatalf("last view = gen %d with %d members, want gen 2 with 2", views[1].Generation, len(views[1].Members))
	}
	if a.Generation() != 2 {
		t.Fatalf("agent generation = %d, want 2", a.Generation())
	}
}

func TestAgentCloseLeaves(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	reg := NewRegistry(RegistryConfig{Clock: fc})
	seed := &fakeSeed{reg: reg}
	a := newAgentFixture(t, map[string]*fakeSeed{"rls://seed": seed}, member("rli-a", "rli"), fc)
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if reg.MemberCount() != 0 {
		t.Fatal("Close did not deregister the member")
	}
	a.Close() // second close is a no-op, must not panic or double-leave
	if st := reg.Stats(); st.Leaves != 1 {
		t.Fatalf("Leaves = %d, want exactly 1", st.Leaves)
	}
}
