package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/wire"
)

// shardFake is one shard's scripted server: it records the logical names
// of mapping mutations it receives and answers queries with
// shard-identifying payloads, so tests can verify which shard served
// which request.
type shardFake struct {
	name string

	mu      sync.Mutex
	created []string

	// bulkFail, when set, decides per-item failure of bulk mutations.
	bulkFail func(m wire.Mapping) *wire.BulkFailure
	// drop, when set, makes the server close the connection on every
	// request (whole-shard transport failure).
	drop bool
}

func (s *shardFake) server() *fakeServer {
	return &fakeServer{
		acceptHello: true,
		respond: func(req *wire.Request) *wire.Response {
			if s.drop {
				return nil
			}
			switch req.Op {
			case wire.OpPing:
				return &wire.Response{ID: req.ID, Status: wire.StatusOK}
			case wire.OpLRCCreateMapping, wire.OpLRCAddMapping, wire.OpLRCDeleteMapping:
				m, err := wire.DecodeMappingRequest(req.Body)
				if err != nil {
					return &wire.Response{ID: req.ID, Status: wire.StatusBadRequest}
				}
				s.mu.Lock()
				s.created = append(s.created, m.Logical)
				s.mu.Unlock()
				return &wire.Response{ID: req.ID, Status: wire.StatusOK}
			case wire.OpLRCBulkCreate, wire.OpLRCBulkAdd, wire.OpLRCBulkDelete:
				bm, err := wire.DecodeBulkMappingsRequest(req.Body)
				if err != nil {
					return &wire.Response{ID: req.ID, Status: wire.StatusBadRequest}
				}
				resp := &wire.BulkStatusResponse{}
				for i, m := range bm.Mappings {
					s.mu.Lock()
					s.created = append(s.created, m.Logical)
					s.mu.Unlock()
					if s.bulkFail != nil {
						if f := s.bulkFail(m); f != nil {
							f.Index = uint32(i)
							resp.Failures = append(resp.Failures, *f)
						}
					}
				}
				return &wire.Response{ID: req.ID, Status: wire.StatusOK, Body: resp.Encode()}
			case wire.OpLRCGetTargets:
				// Answer with a target naming this shard, so routing is
				// observable from the client side.
				return &wire.Response{ID: req.ID, Status: wire.StatusOK,
					Body: (&wire.NamesResponse{Names: []string{"pfn://" + s.name}}).Encode()}
			case wire.OpLRCGetLogicals:
				return &wire.Response{ID: req.ID, Status: wire.StatusOK,
					Body: (&wire.NamesResponse{Names: []string{"lfn://on-" + s.name}}).Encode()}
			case wire.OpLRCGetTargetsWild:
				return &wire.Response{ID: req.ID, Status: wire.StatusOK,
					Body: (&wire.BulkNamesResponse{Results: []wire.BulkNameResult{
						{Name: "lfn://wild-" + s.name, Found: true, Values: []string{"pfn://" + s.name}},
						{Name: "lfn://shared", Found: true, Values: []string{"pfn://" + s.name}},
					}}).Encode()}
			case wire.OpLRCBulkGetTargets:
				bn, err := wire.DecodeBulkNamesRequest(req.Body)
				if err != nil {
					return &wire.Response{ID: req.ID, Status: wire.StatusBadRequest}
				}
				resp := &wire.BulkNamesResponse{}
				for _, n := range bn.Names {
					resp.Results = append(resp.Results, wire.BulkNameResult{
						Name: n, Found: true, Values: []string{"pfn://" + s.name}})
				}
				return &wire.Response{ID: req.ID, Status: wire.StatusOK, Body: resp.Encode()}
			}
			return &wire.Response{ID: req.ID, Status: wire.StatusOK}
		},
	}
}

// newTestRouter builds a router over n scripted shards named s0..s(n-1).
func newTestRouter(t *testing.T, n int, opts RouterOptions) (*Router, []*shardFake) {
	t.Helper()
	fakes := make([]*shardFake, n)
	opts.Shards = nil
	for i := 0; i < n; i++ {
		sf := &shardFake{name: fmt.Sprintf("s%d", i)}
		fakes[i] = sf
		fs := sf.server()
		opts.Shards = append(opts.Shards, ShardSpec{
			Name: sf.name,
			Opts: Options{Dialer: func() (net.Conn, error) {
				a, b := net.Pipe()
				go fs.serve(b)
				return a, nil
			}},
		})
	}
	r, err := NewRouter(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	// fakes indexed by shard number; the router's shard order is the
	// ring's sorted order, which for s0..s9 is also numeric.
	return r, fakes
}

func (s *shardFake) got(logical string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.created {
		if l == logical {
			return true
		}
	}
	return false
}

func shardNum(name string) int {
	var n int
	fmt.Sscanf(name, "s%d", &n)
	return n
}

func TestRouterRoutesToRingOwner(t *testing.T) {
	r, fakes := newTestRouter(t, 3, RouterOptions{})
	for i := 0; i < 100; i++ {
		lfn := fmt.Sprintf("lfn://route/file-%d", i)
		if err := r.CreateMapping(ctx, lfn, "pfn://x"); err != nil {
			t.Fatal(err)
		}
		owner := shardNum(r.ShardFor(lfn))
		if !fakes[owner].got(lfn) {
			t.Fatalf("%s not recorded on ring owner %s", lfn, r.ShardFor(lfn))
		}
		for j, sf := range fakes {
			if j != owner && sf.got(lfn) {
				t.Fatalf("%s leaked to non-owner s%d", lfn, j)
			}
		}
		// The query must land on the same shard the mutation did.
		targets, err := r.GetTargets(ctx, lfn)
		if err != nil || len(targets) != 1 || targets[0] != "pfn://"+r.ShardFor(lfn) {
			t.Fatalf("GetTargets(%s) = %v, %v; want pfn://%s", lfn, targets, err, r.ShardFor(lfn))
		}
	}
}

// TestRouterBulkMergesInInputOrder is the ordering contract: a bulk
// request spanning every shard, where shards report per-item failures,
// must come back as one failure list under the original request indices
// in ascending order — indistinguishable from a single LRC's answer.
func TestRouterBulkMergesInInputOrder(t *testing.T) {
	r, fakes := newTestRouter(t, 4, RouterOptions{})
	for _, sf := range fakes {
		sf.bulkFail = func(m wire.Mapping) *wire.BulkFailure {
			// Fail every item, tagging the failure with its logical name
			// so the remap is verifiable.
			return &wire.BulkFailure{Status: wire.StatusExists, Msg: m.Logical}
		}
	}
	const n = 200
	mappings := make([]wire.Mapping, n)
	for i := range mappings {
		mappings[i] = wire.Mapping{Logical: fmt.Sprintf("lfn://bulk/file-%d", i), Target: "pfn://x"}
	}
	// The batch must actually span every shard for the test to mean
	// anything.
	owners := map[string]bool{}
	for _, m := range mappings {
		owners[r.ShardFor(m.Logical)] = true
	}
	if len(owners) != 4 {
		t.Fatalf("test batch only touches %d of 4 shards", len(owners))
	}

	fails, err := r.BulkCreate(ctx, mappings)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != n {
		t.Fatalf("got %d failures, want %d", len(fails), n)
	}
	for k, f := range fails {
		if int(f.Index) != k {
			t.Fatalf("failure %d has index %d: not ascending input order", k, f.Index)
		}
		if f.Msg != mappings[k].Logical {
			t.Fatalf("failure %d carries %q, want %q: index remap wrong", k, f.Msg, mappings[k].Logical)
		}
		if f.Status != wire.StatusExists {
			t.Fatalf("failure %d status %v", k, f.Status)
		}
	}
}

// TestRouterBulkShardFailureDegradesToItems: a whole-shard transport
// failure must synthesize per-item retry-later failures for exactly that
// shard's items instead of failing the whole bulk.
func TestRouterBulkShardFailureDegradesToItems(t *testing.T) {
	r, fakes := newTestRouter(t, 3, RouterOptions{})
	dead := fakes[0]
	dead.drop = true

	const n = 40
	mappings := make([]wire.Mapping, n)
	deadIdx := map[int]bool{}
	for i := range mappings {
		lfn := fmt.Sprintf("lfn://deg/file-%d", i)
		mappings[i] = wire.Mapping{Logical: lfn, Target: "pfn://x"}
		if r.ShardFor(lfn) == dead.name {
			deadIdx[i] = true
		}
	}
	if len(deadIdx) == 0 || len(deadIdx) == n {
		t.Fatalf("degenerate split: %d of %d items on dead shard", len(deadIdx), n)
	}

	fails, err := r.BulkCreate(ctx, mappings)
	if err != nil {
		t.Fatalf("whole bulk failed: %v", err)
	}
	if len(fails) != len(deadIdx) {
		t.Fatalf("got %d failures, want %d (dead shard's items)", len(fails), len(deadIdx))
	}
	for _, f := range fails {
		if !deadIdx[int(f.Index)] {
			t.Fatalf("failure index %d not owned by dead shard", f.Index)
		}
		if f.Status != wire.StatusRetryLater {
			t.Fatalf("synthesized failure status %v, want StatusRetryLater", f.Status)
		}
	}
}

func TestRouterBulkCtxCancelAborts(t *testing.T) {
	r, _ := newTestRouter(t, 3, RouterOptions{})
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	mappings := []wire.Mapping{{Logical: "lfn://a", Target: "p"}, {Logical: "lfn://b", Target: "p"}}
	if _, err := r.BulkCreate(cctx, mappings); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled bulk = %v, want context.Canceled", err)
	}
}

// quarantine trips one shard's breaker with a quarantine long enough to
// outlast the test.
func quarantine(t *testing.T, r *Router, name string) {
	t.Helper()
	for _, s := range r.shards {
		if s.name == name {
			s.ep.breaker.OnFailure()
			if s.ep.breaker.State() != backoff.Quarantined {
				t.Fatalf("breaker state %v after trip", s.ep.breaker.State())
			}
			return
		}
	}
	t.Fatalf("no shard %s", name)
}

// longQuarantine configures breakers that quarantine on the first
// failure and stay down for an hour.
func longQuarantine() RouterOptions {
	return RouterOptions{Breaker: backoff.BreakerConfig{
		FailThreshold: 1,
		Policy:        backoff.Policy{Base: time.Hour, Max: time.Hour, Jitter: 0.01},
	}}
}

// TestRouterScatterGatherQuarantinedShard: a wildcard query with one
// shard quarantined returns the surviving shards' merged rows and
// degraded=true — partial answer, not an error.
func TestRouterScatterGatherQuarantinedShard(t *testing.T) {
	r, _ := newTestRouter(t, 3, longQuarantine())
	quarantine(t, r, "s1")

	rows, degraded, err := r.WildcardTargets(ctx, "lfn://*")
	if err != nil {
		t.Fatalf("degraded scatter errored: %v", err)
	}
	if !degraded {
		t.Fatal("quarantined shard not reported as degradation")
	}
	got := map[string]bool{}
	for _, nr := range rows {
		got[nr.Name] = true
	}
	if got["lfn://wild-s1"] {
		t.Fatal("quarantined shard contributed rows")
	}
	if !got["lfn://wild-s0"] || !got["lfn://wild-s2"] {
		t.Fatalf("healthy shards' rows missing: %v", rows)
	}
	// The shared row must be merged across the two healthy shards.
	for _, nr := range rows {
		if nr.Name == "lfn://shared" && len(nr.Values) != 2 {
			t.Fatalf("shared row values = %v, want both healthy shards'", nr.Values)
		}
	}
}

func TestRouterSingleLFNOpOnQuarantinedShard(t *testing.T) {
	r, _ := newTestRouter(t, 3, longQuarantine())
	lfn := "lfn://quarantined/file-1"
	quarantine(t, r, r.ShardFor(lfn))
	err := r.CreateMapping(ctx, lfn, "pfn://x")
	if !errors.Is(err, ErrRetryLater) {
		t.Fatalf("op on quarantined shard = %v, want ErrRetryLater", err)
	}
	var su *ShardUnavailableError
	if !errors.As(err, &su) || su.Shard != r.ShardFor(lfn) {
		t.Fatalf("error does not name the shard: %v", err)
	}
}

// TestRouterSingleShardReducesToPool: with one shard every routing rule
// collapses — bulk failures pass through with untouched indices and
// scatter queries are plain single-server queries.
func TestRouterSingleShardReducesToPool(t *testing.T) {
	r, fakes := newTestRouter(t, 1, RouterOptions{})
	fakes[0].bulkFail = func(m wire.Mapping) *wire.BulkFailure {
		if m.Logical == "lfn://solo/file-2" {
			return &wire.BulkFailure{Status: wire.StatusExists, Msg: "dup"}
		}
		return nil
	}
	mappings := []wire.Mapping{
		{Logical: "lfn://solo/file-1", Target: "p"},
		{Logical: "lfn://solo/file-2", Target: "p"},
		{Logical: "lfn://solo/file-3", Target: "p"},
	}
	fails, err := r.BulkCreate(ctx, mappings)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 1 || fails[0].Index != 1 || fails[0].Msg != "dup" {
		t.Fatalf("single-shard bulk failures = %+v", fails)
	}
	if err := r.CreateMapping(ctx, "lfn://solo/file-9", "pfn://x"); err != nil {
		t.Fatal(err)
	}
	rows, degraded, err := r.WildcardTargets(ctx, "lfn://*")
	if err != nil || degraded {
		t.Fatalf("single-shard scatter = degraded=%v err=%v", degraded, err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if r.ShardFor("anything") != "s0" {
		t.Fatal("single shard does not own everything")
	}
}

func TestRouterGetLogicalsUnion(t *testing.T) {
	r, _ := newTestRouter(t, 3, RouterOptions{})
	names, degraded, err := r.GetLogicals(ctx, "pfn://everywhere")
	if err != nil || degraded {
		t.Fatalf("GetLogicals = %v degraded=%v", err, degraded)
	}
	if len(names) != 3 {
		t.Fatalf("union = %v, want one logical per shard", names)
	}
}

func TestRouterBulkGetTargetsInputOrder(t *testing.T) {
	r, _ := newTestRouter(t, 4, RouterOptions{})
	var names []string
	for i := 0; i < 30; i++ {
		names = append(names, fmt.Sprintf("lfn://bg/file-%d", i))
	}
	res, err := r.BulkGetTargets(ctx, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(names) {
		t.Fatalf("got %d results, want %d", len(res), len(names))
	}
	for i, nr := range res {
		if nr.Name != names[i] {
			t.Fatalf("result %d = %q, want %q: input order broken", i, nr.Name, names[i])
		}
		if !nr.Found || len(nr.Values) != 1 || nr.Values[0] != "pfn://"+r.ShardFor(names[i]) {
			t.Fatalf("result %d = %+v: not answered by ring owner", i, nr)
		}
	}
}

// TestRouterConcurrentMixedOps is the -race exercise for the router's
// fan-out paths: routed singles, split bulks and scatter-gathers all
// running concurrently over shared shard pools and breakers.
func TestRouterConcurrentMixedOps(t *testing.T) {
	r, _ := newTestRouter(t, 4, RouterOptions{PoolSize: 2})
	goroutines, iters := 8, 40
	if testing.Short() {
		goroutines, iters = 4, 15
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				var err error
				switch rng.Intn(4) {
				case 0:
					err = r.CreateMapping(ctx, fmt.Sprintf("lfn://mix/%d-%d", g, i), "pfn://x")
				case 1:
					_, err = r.GetTargets(ctx, fmt.Sprintf("lfn://mix/%d-%d", g, rng.Intn(i+1)))
				case 2:
					batch := make([]wire.Mapping, 10)
					for j := range batch {
						batch[j] = wire.Mapping{Logical: fmt.Sprintf("lfn://mixbulk/%d-%d-%d", g, i, j), Target: "p"}
					}
					_, err = r.BulkCreate(ctx, batch)
				default:
					_, _, err = r.WildcardTargets(ctx, "lfn://*")
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d op %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := r.Ping(ctx); err != nil {
		t.Fatalf("router unhealthy after stress: %v", err)
	}
}

// TestRouterRecoversAfterConnLoss: one dropped shard connection must not
// take the shard down for the life of the Router. Before the shared
// endpoint the Router never redialed: the breaker's half-open probe kept
// picking the dead, idle connection and every call answered "connection
// lost".
func TestRouterRecoversAfterConnLoss(t *testing.T) {
	_, dialer := dropOnce()
	r, err := NewRouter(ctx, RouterOptions{
		Shards: []ShardSpec{{Name: "s0", Opts: Options{Dialer: dialer}}},
		Breaker: backoff.BreakerConfig{
			FailThreshold: 1,
			Policy:        backoff.Policy{Base: time.Millisecond, Max: time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.GetTargets(ctx, "lfn://a"); err == nil {
		t.Fatal("first call survived the scripted drop")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := r.GetTargets(ctx, "lfn://a")
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard still down 2s after a single connection loss: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// ---- pool least-loaded pick (satellite) ----

// waitInFlight polls until the client's gauge reaches want. The serve
// loop reads one frame at a time over a synchronous pipe, so later
// calls count as in-flight while their writes are still queued — the
// gauge is the only observable that covers all of them.
func waitInFlight(t *testing.T, c *Client, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.InFlight() != want {
		if time.Now().After(deadline) {
			t.Fatalf("InFlight = %d, want %d", c.InFlight(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientInFlightGauge: the gauge rises while calls are outstanding
// and returns to zero when they complete.
func TestClientInFlightGauge(t *testing.T) {
	block := make(chan struct{})
	f := &fakeServer{
		acceptHello: true,
		respond: func(req *wire.Request) *wire.Response {
			<-block
			return &wire.Response{ID: req.ID, Status: wire.StatusOK}
		},
	}
	c, err := dialFake(t, f)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 5
	var done sync.WaitGroup
	for i := 0; i < n; i++ {
		done.Add(1)
		go func() { defer done.Done(); _ = c.Ping(ctx) }()
	}
	waitInFlight(t, c, n)
	close(block)
	done.Wait()
	waitInFlight(t, c, 0)
}

// TestEndpointPickPrefersLeastLoaded: with one connection stalled holding
// calls, pick must route new calls to idle connections instead of
// round-robining onto the stalled one.
func TestEndpointPickPrefersLeastLoaded(t *testing.T) {
	block := make(chan struct{})
	f := &fakeServer{
		acceptHello: true,
		respond: func(req *wire.Request) *wire.Response {
			if req.Op == wire.OpLRCGetTargets { // the stalled call
				<-block
			}
			return &wire.Response{ID: req.ID, Status: wire.StatusOK}
		},
	}
	ep := newEndpoint(Options{Dialer: func() (net.Conn, error) {
		a, b := net.Pipe()
		go f.serve(b)
		return a, nil
	}}, 3, nil)
	if err := ep.warm(ctx); err != nil {
		t.Fatal(err)
	}
	defer ep.close()

	// Stall connection 0 with two outstanding calls.
	stalled := ep.slots[0].Load()
	var done sync.WaitGroup
	for i := 0; i < 2; i++ {
		done.Add(1)
		go func() { defer done.Done(); _, _ = stalled.GetTargets(ctx, "lfn://stall") }()
	}
	waitInFlight(t, stalled, 2)

	for i := 0; i < 20; i++ {
		if c := ep.slots[ep.pick()].Load(); c == stalled {
			t.Fatalf("pick %d chose the stalled connection (load %d vs 0)", i, stalled.InFlight())
		}
	}
	close(block)
	done.Wait()

	// Once idle again, the stalled connection rejoins the rotation.
	seen := map[*Client]bool{}
	for i := 0; i < 30 && len(seen) < 3; i++ {
		seen[ep.slots[ep.pick()].Load()] = true
	}
	if len(seen) != 3 {
		t.Fatalf("idle rotation covers %d of 3 connections", len(seen))
	}
}
