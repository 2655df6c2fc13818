package client

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/clock"
	"repro/internal/wire"
)

// RetryOptions configures a Reliable client's retry discipline.
type RetryOptions struct {
	// Policy spaces retries (jittered exponential backoff). Zero value uses
	// the backoff package defaults.
	Policy backoff.Policy
	// MaxAttempts bounds tries per call, first attempt included. Default 4.
	MaxAttempts int
	// PerAttemptTimeout bounds each individual attempt, so a blackholed
	// connection (writes swallowed, no response ever) turns into a timely
	// retry on a fresh connection instead of hanging until the caller's
	// deadline. Zero disables the per-attempt bound.
	PerAttemptTimeout time.Duration
	// Clock drives backoff sleeps and attempt timeouts; defaults to the
	// real clock.
	Clock clock.Clock
	// Seed makes backoff jitter deterministic. Zero seeds from 1.
	Seed int64
}

func (r RetryOptions) withDefaults() RetryOptions {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 4
	}
	if r.Clock == nil {
		r.Clock = clock.Real{}
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	return r
}

// RetryStats counts a Reliable client's recovery activity.
type RetryStats struct {
	Calls   int64 // logical operations issued
	Retries int64 // extra attempts beyond the first
	Redials int64 // reconnects after a connection-fatal failure
}

// Reliable wraps the dial options for one server with jittered-exponential
// retry and automatic redial, for idempotent operations only: reads,
// queries and diagnostics, which can safely run twice. Non-idempotent
// catalog writes are deliberately not exposed — a retried create that
// half-succeeded would turn into a spurious "already exists".
//
// Retryable failures are transport losses (reset, closed, per-attempt
// timeout — the endpoint redials) and the server's typed StatusRetryLater
// load-shed (the connection is kept). Any other server status is returned
// immediately.
type Reliable struct {
	diagOps
	lrcQueryOps
	rliQueryOps

	ep *endpoint
	r  RetryOptions

	mu  sync.Mutex // guards rnd
	rnd *rand.Rand

	calls   atomic.Int64
	retries atomic.Int64
}

// NewReliable builds a Reliable client. The first connection is dialed
// lazily on first use, so construction never blocks.
func NewReliable(opts Options, r RetryOptions) *Reliable {
	r = r.withDefaults()
	rel := &Reliable{ep: newEndpoint(opts, 1, nil), r: r, rnd: rand.New(rand.NewSource(r.Seed))}
	rel.ep.attemptTimeout = r.PerAttemptTimeout
	rel.diagOps, rel.lrcQueryOps, rel.rliQueryOps = diagOps{rel}, lrcQueryOps{rel}, rliQueryOps{rel}
	return rel
}

// Close closes the current connection, if any.
func (r *Reliable) Close() error { return r.ep.close() }

// RetryStats returns cumulative retry counters.
func (r *Reliable) RetryStats() RetryStats {
	st := RetryStats{Calls: r.calls.Load(), Retries: r.retries.Load()}
	if dials := r.ep.dials.Load(); dials > 1 {
		st.Redials = dials - 1
	}
	return st
}

// jitter draws the next jitter sample under the lock guarding the seeded
// source.
func (r *Reliable) jitter() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rnd.Float64()
}

// call runs one idempotent RPC with retries: the retry loop wraps the
// endpoint's call, which has already replaced a lost connection's slot by
// the time the next attempt picks it.
func (r *Reliable) call(ctx context.Context, op wire.Op, body []byte) ([]byte, error) {
	r.calls.Add(1)
	var err error
	for attempt := 0; attempt < r.r.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
			delay := r.r.Policy.Delay(attempt-1, r.jitter)
			select {
			case <-r.r.Clock.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		var out []byte
		out, err = r.ep.call(ctx, op, body)
		switch classify(err) {
		case answered:
			if !errors.Is(err, ErrRetryLater) {
				return out, err
			}
		case cancelled:
			return nil, err
		}
	}
	return nil, err
}
