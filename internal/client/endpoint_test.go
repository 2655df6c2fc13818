package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestClassify pins the one error reading every retry, failover, redial
// and breaker decision goes through.
func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want answer
	}{
		{"nil", nil, answered},
		{"denied", &StatusError{Status: wire.StatusDenied}, answered},
		{"not found", &StatusError{Status: wire.StatusNotFound}, answered},
		{"exists", &StatusError{Status: wire.StatusExists}, answered},
		{"bad request", &StatusError{Status: wire.StatusBadRequest}, answered},
		{"unsupported", &StatusError{Status: wire.StatusUnsupported}, answered},
		{"internal", &StatusError{Status: wire.StatusInternal}, answered},
		{"retry later", &StatusError{Status: wire.StatusRetryLater}, answered},
		{"wrapped status", fmt.Errorf("shard s0: %w", &StatusError{Status: wire.StatusNotFound}), answered},
		{"quarantined shard", &ShardUnavailableError{Shard: "s0"}, transport},
		{"canceled", context.Canceled, cancelled},
		{"deadline", context.DeadlineExceeded, cancelled},
		{"wrapped deadline", fmt.Errorf("dial: %w", context.DeadlineExceeded), cancelled},
		{"eof", io.EOF, transport},
		{"connection lost", fmt.Errorf("rls: connection lost: %w", io.EOF), transport},
		{"closed", errClosed, transport},
		{"attempt timeout", errAttemptTimeout, transport},
	}
	for _, tc := range cases {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("classify(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// dropOnce scripts a server that closes the connection carrying its first
// request and serves every later one normally (a names body answers both
// Ping and GetTargets) — a single transient connection loss.
func dropOnce() (*fakeServer, func() (net.Conn, error)) {
	var dropped atomic.Bool
	f := &fakeServer{
		acceptHello: true,
		respond: func(req *wire.Request) *wire.Response {
			if dropped.CompareAndSwap(false, true) {
				return nil
			}
			return &wire.Response{ID: req.ID, Status: wire.StatusOK,
				Body: (&wire.NamesResponse{Names: []string{"pfn://x"}}).Encode()}
		},
	}
	return f, func() (net.Conn, error) {
		a, b := net.Pipe()
		go f.serve(b)
		return a, nil
	}
}

// TestPeerRedialsDeadConn: a peer whose connection dropped must get it
// back. Before the shared endpoint the dead Client stayed in its slot and
// failed every call, forever.
func TestPeerRedialsDeadConn(t *testing.T) {
	_, dialer := dropOnce()
	p := NewPeer(Options{Dialer: dialer})
	defer p.Close()
	if err := p.Ping(ctx); err == nil {
		t.Fatal("first call survived the scripted drop")
	}
	deadline := time.Now().Add(2 * time.Second)
	for run := 0; run < 8; {
		if time.Now().After(deadline) {
			t.Fatal("peer still failing 2s after a single connection loss")
		}
		if err := p.Ping(ctx); err != nil {
			run = 0
			continue
		}
		run++
	}
	if got := p.ep.dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2 (first connection + one redial)", got)
	}
}

// TestPeerConnectsLazily: constructing a peer dials nothing and cannot
// fail; an unreachable server surfaces on the call, and the call after the
// server appears connects.
func TestPeerConnectsLazily(t *testing.T) {
	var up atomic.Bool
	var attempts atomic.Int64
	f := &fakeServer{acceptHello: true, respond: func(req *wire.Request) *wire.Response {
		return &wire.Response{ID: req.ID, Status: wire.StatusOK}
	}}
	p := NewPeer(Options{Dialer: func() (net.Conn, error) {
		attempts.Add(1)
		if !up.Load() {
			return nil, errors.New("connection refused")
		}
		a, b := net.Pipe()
		go f.serve(b)
		return a, nil
	}})
	if attempts.Load() != 0 {
		t.Fatal("NewPeer dialed")
	}
	if err := p.Ping(ctx); err == nil {
		t.Fatal("ping of an unreachable server succeeded")
	}
	up.Store(true)
	if err := p.Ping(ctx); err != nil {
		t.Fatalf("ping after the server came up: %v", err)
	}
	if err := p.Ping(ctx); err != nil || attempts.Load() != 2 {
		t.Fatalf("second ping: err %v after %d dial attempts, want nil after 2", err, attempts.Load())
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Ping(ctx); !errors.Is(err, errClosed) {
		t.Fatalf("ping on a closed peer = %v, want errClosed", err)
	}
}
