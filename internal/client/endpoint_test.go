package client

import (
	"context"
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

// TestPoolRedialsDeadSlot: a pool whose one connection dropped must get it
// back. Before the shared endpoint the dead Client stayed in its slot and
// failed every call that rotated onto it, forever.
func TestPoolRedialsDeadSlot(t *testing.T) {
	_, dialer := dropOnce()
	p, err := NewPool(ctx, Options{Dialer: dialer}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Ping(ctx); err == nil {
		t.Fatal("first call survived the scripted drop")
	}
	// Enough consecutive successes to have rotated over both slots.
	deadline := time.Now().Add(2 * time.Second)
	for run := 0; run < 8; {
		if time.Now().After(deadline) {
			t.Fatal("pool still failing 2s after a single connection loss")
		}
		if err := p.Ping(ctx); err != nil {
			run = 0
			continue
		}
		run++
	}
}
