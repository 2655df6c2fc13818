package client

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/disk"
	"repro/internal/rdb"
	"repro/internal/rli"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wire"
)

// dropConn is a scripted pseudo-status: close the connection instead of
// answering.
const dropConn = wire.Status(0xFFFF)

// fakeReplica is one scripted group member: script maps the ordinal of a
// request (1-based, across reconnects) to the status it answers with.
type fakeReplica struct {
	script func(n int64) wire.Status
	reqs   atomic.Int64
	dials  atomic.Int64
}

func always(st wire.Status) func(int64) wire.Status {
	return func(int64) wire.Status { return st }
}

// newTestFailover builds a Failover over scripted replicas r0..rN whose
// breakers quarantine on the first failure and stay down for an hour.
func newTestFailover(t *testing.T, scripts ...func(int64) wire.Status) (*Failover, []*fakeReplica) {
	t.Helper()
	var specs []ReplicaSpec
	var fakes []*fakeReplica
	for i, script := range scripts {
		fr := &fakeReplica{script: script}
		fakes = append(fakes, fr)
		fs := &fakeServer{
			acceptHello: true,
			respond: func(req *wire.Request) *wire.Response {
				st := fr.script(fr.reqs.Add(1))
				if st == dropConn {
					return nil
				}
				return &wire.Response{ID: req.ID, Status: st,
					Body: (&wire.NamesResponse{Names: []string{"rls://lrc"}}).Encode()}
			},
		}
		specs = append(specs, ReplicaSpec{
			Name: string(rune('a' + i)),
			Opts: Options{Dialer: func() (net.Conn, error) {
				fr.dials.Add(1)
				a, b := net.Pipe()
				go fs.serve(b)
				return a, nil
			}},
		})
	}
	f, err := NewFailover(FailoverOptions{Replicas: specs, Breaker: backoff.BreakerConfig{
		FailThreshold: 1,
		Policy:        backoff.Policy{Base: time.Hour, Max: time.Hour, Jitter: 0.01},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, fakes
}

// TestFailoverByAnswerKind walks one query over a two-replica group for
// each kind of first answer: who is asked next, what comes back, and what
// the breakers conclude.
func TestFailoverByAnswerKind(t *testing.T) {
	cases := []struct {
		name     string
		replicas [2]wire.Status
		wantErr  error    // nil: the query succeeds
		wantReqs [2]int64 // requests each replica saw
		wantA    string   // replica a's breaker state afterwards
	}{
		{"transport loss fails over and charges the breaker",
			[2]wire.Status{dropConn, wire.StatusOK}, nil, [2]int64{1, 1}, "quarantined"},
		{"not-found fails over penalty-free",
			[2]wire.Status{wire.StatusNotFound, wire.StatusOK}, nil, [2]int64{1, 1}, "healthy"},
		{"not-found is returned when every replica says it",
			[2]wire.Status{wire.StatusNotFound, wire.StatusNotFound}, ErrNotFound, [2]int64{1, 1}, "healthy"},
		{"not-found is not returned while a replica is retryable",
			[2]wire.Status{wire.StatusNotFound, wire.StatusRetryLater}, ErrRetryLater, [2]int64{1, 1}, "healthy"},
		{"internal fails over uncharged",
			[2]wire.Status{wire.StatusInternal, wire.StatusOK}, nil, [2]int64{1, 1}, "healthy"},
		{"retry-later fails over uncharged",
			[2]wire.Status{wire.StatusRetryLater, wire.StatusOK}, nil, [2]int64{1, 1}, "healthy"},
		{"denied returns immediately",
			[2]wire.Status{wire.StatusDenied, wire.StatusOK}, ErrDenied, [2]int64{1, 0}, "healthy"},
		{"bad request returns immediately",
			[2]wire.Status{wire.StatusBadRequest, wire.StatusOK}, ErrBadRequest, [2]int64{1, 0}, "healthy"},
		{"unsupported returns immediately",
			[2]wire.Status{wire.StatusUnsupported, wire.StatusOK}, ErrUnsupported, [2]int64{1, 0}, "healthy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, fakes := newTestFailover(t, always(tc.replicas[0]), always(tc.replicas[1]))
			lrcs, err := f.RLIQuery(ctx, "lfn://x")
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr == nil && (len(lrcs) != 1 || lrcs[0] != "rls://lrc") {
				t.Fatalf("lrcs = %v", lrcs)
			}
			for i, fr := range fakes {
				if got := fr.reqs.Load(); got != tc.wantReqs[i] {
					t.Errorf("replica %d saw %d requests, want %d", i, got, tc.wantReqs[i])
				}
			}
			if st := f.States(); st[0].State != tc.wantA || st[1].State != "healthy" {
				t.Errorf("breaker states = %+v, want a=%s b=healthy", st, tc.wantA)
			}
		})
	}
}

// TestFailoverNotFoundWithUnreachablePeer: one replica saying not-found is
// not a group-wide not-found while another could not be asked.
func TestFailoverNotFoundWithUnreachablePeer(t *testing.T) {
	f, _ := newTestFailover(t, always(wire.StatusNotFound), always(dropConn))
	_, err := f.RLIQuery(ctx, "lfn://x")
	if err == nil || errors.Is(err, ErrNotFound) || classify(err) != transport {
		t.Fatalf("err = %v, want the unreachable replica's transport error", err)
	}
}

// TestFailoverRedialsQuarantinedReplica: a replica that lost its connection
// is quarantined, yet when the rest of the group fails it is still walked —
// on a fresh connection.
func TestFailoverRedialsQuarantinedReplica(t *testing.T) {
	var bDown atomic.Bool
	f, fakes := newTestFailover(t,
		func(n int64) wire.Status {
			if n == 1 {
				return dropConn
			}
			return wire.StatusOK
		},
		func(int64) wire.Status {
			if bDown.Load() {
				return dropConn
			}
			return wire.StatusOK
		})
	if _, err := f.RLIQuery(ctx, "lfn://x"); err != nil {
		t.Fatalf("query with a down = %v", err)
	}
	if st := f.States(); st[0].State != "quarantined" {
		t.Fatalf("a = %s after its connection dropped, want quarantined", st[0].State)
	}
	bDown.Store(true)
	if _, err := f.RLIQuery(ctx, "lfn://x"); err != nil {
		t.Fatalf("query with b down and a quarantined = %v", err)
	}
	if got := fakes[0].dials.Load(); got != 2 {
		t.Fatalf("a was dialed %d times, want 2 (redial after the loss)", got)
	}
	if st := f.States(); st[0].State != "healthy" || st[1].State != "quarantined" {
		t.Fatalf("states = %+v, want a healthy again and b quarantined", st)
	}
}

// TestFailoverWalksAllWhenAllQuarantined: breaker state steers, it never
// suppresses — a wrong "down" verdict on every replica must cost latency,
// not availability.
func TestFailoverWalksAllWhenAllQuarantined(t *testing.T) {
	f, fakes := newTestFailover(t, always(wire.StatusInternal), always(wire.StatusOK))
	for _, rp := range f.replicas {
		rp.ep.breaker.OnFailure()
	}
	if _, err := f.RLIQuery(ctx, "lfn://x"); err != nil {
		t.Fatalf("query over a fully quarantined group = %v", err)
	}
	if fakes[0].reqs.Load() != 1 || fakes[1].reqs.Load() != 1 {
		t.Fatalf("requests = %d/%d, want both replicas walked", fakes[0].reqs.Load(), fakes[1].reqs.Load())
	}
}

// TestFailoverCtxCancelReturnsImmediately: a caller that gave up gets its
// context error back; the walk does not continue to the next replica.
func TestFailoverCtxCancelReturnsImmediately(t *testing.T) {
	hold := make(chan struct{})
	defer close(hold)
	arrived := make(chan struct{}, 1)
	f, fakes := newTestFailover(t,
		func(int64) wire.Status { arrived <- struct{}{}; <-hold; return dropConn },
		always(wire.StatusOK))
	cctx, cancel := context.WithCancel(ctx)
	go func() { <-arrived; cancel() }()
	if _, err := f.RLIQuery(cctx, "lfn://x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := fakes[1].reqs.Load(); got != 0 {
		t.Fatalf("replica b saw %d requests after the caller cancelled", got)
	}
}

// TestFailoverMalformedRequestStopsAtFirstReplica runs a two-replica group of
// real RLI servers: a request body the server's decoder rejects must come
// back as a bad request from the first replica, not be answered as a server
// fault and walked across the group.
func TestFailoverMalformedRequestStopsAtFirstReplica(t *testing.T) {
	var servers []*server.Server
	var specs []ReplicaSpec
	for _, name := range []string{"a", "b"} {
		eng := storage.OpenMemory(storage.Options{Device: disk.New(disk.Fast())})
		t.Cleanup(func() { eng.Close() })
		db, err := rdb.NewRLIDB(eng)
		if err != nil {
			t.Fatal(err)
		}
		index, err := rli.New(rli.Config{URL: "rls://" + name, DB: db})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(index.Close)
		srv, err := server.New(server.Config{URL: "rls://" + name, RLI: index})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
		specs = append(specs, ReplicaSpec{Name: name, Opts: Options{Dialer: func() (net.Conn, error) {
			c, s := net.Pipe()
			go srv.ServeConn(s)
			return c, nil
		}}})
	}
	f, err := NewFailover(FailoverOptions{Replicas: specs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	body := append((&wire.NameRequest{Name: "lfn://x"}).Encode(), 0) // one trailing byte
	if _, err := f.call(ctx, wire.OpRLIGetLRCs, body); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
	if n := len(servers[0].StatsSnapshot().Ops); n != 1 {
		t.Errorf("replica a dispatched %d distinct ops, want the one malformed query", n)
	}
	if n := len(servers[1].StatsSnapshot().Ops); n != 0 {
		t.Errorf("replica b dispatched %d distinct ops, want 0: the bad request was walked across the group", n)
	}
}
