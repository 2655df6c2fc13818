package client

import (
	"context"
	"errors"

	"repro/internal/backoff"
	"repro/internal/wire"
)

// Failover is the replica-aware read client for a replicated RLI group:
// every replica holds (a copy of) the same index, so a query can be
// answered by any of them. Each replica carries a circuit breaker whose
// state *steers* traffic — healthy replicas are tried before quarantined
// ones — rather than merely suppressing dials: when every replica is
// quarantined the query still walks all of them, because a wrong "down"
// verdict must degrade latency, not availability.
//
// Failover semantics by answer kind:
//
//   - transport errors (dead replica, cut connection) drop the cached
//     connection, charge the replica's breaker and fail over to the next;
//   - retryable server statuses (internal, retry-later) fail over without
//     charging the breaker — the replica answered, so it is alive;
//   - not-found fails over too: a warm standby that has not yet received
//     every LRC's soft state legitimately misses names its peers know. Only
//     when every replica reports not-found is not-found returned; if any
//     replica was unreachable or retryable, its error is returned instead.
//   - deterministic statuses (denied, bad request, unsupported) return
//     immediately: every replica would answer the same.
//
// It exposes the RLI reads and the diagnostics, each answered by the first
// replica able to.
type Failover struct {
	diagOps
	rliQueryOps
	replicas []*replica
}

// ReplicaSpec names one replica and how to reach it.
type ReplicaSpec struct {
	// Name is the replica's display identity (deployment name).
	Name string
	// Opts dials the replica's server.
	Opts Options
}

// FailoverOptions configures a Failover client.
type FailoverOptions struct {
	// Replicas lists the group, in preference order (ties in breaker state
	// preserve this order).
	Replicas []ReplicaSpec
	// Breaker configures the per-replica circuit breakers; the zero value
	// uses backoff defaults. Each replica's breaker derives its jitter seed
	// from Breaker.Seed plus the replica index, keeping probe schedules
	// deterministic but de-synchronized.
	Breaker backoff.BreakerConfig
}

// replica is one member of the group: its lazily dialed endpoint, whose
// breaker steers traffic toward or away from it.
type replica struct {
	name string
	ep   *endpoint
}

// NewFailover builds the failover client. Connections are dialed lazily on
// first use, so constructing the client against a group with dead members
// succeeds — the breakers learn which members answer.
func NewFailover(opts FailoverOptions) (*Failover, error) {
	if len(opts.Replicas) == 0 {
		return nil, errors.New("rls: failover client needs at least one replica")
	}
	f := &Failover{}
	f.diagOps, f.rliQueryOps = diagOps{f}, rliQueryOps{f}
	for i, spec := range opts.Replicas {
		bc := opts.Breaker
		bc.Seed = opts.Breaker.Seed + int64(i) + 1
		f.replicas = append(f.replicas, &replica{
			name: spec.Name,
			ep:   newEndpoint(spec.Opts, 1, backoff.NewBreaker(bc)),
		})
	}
	return f, nil
}

// Close closes every dialed replica connection, returning the first error.
func (f *Failover) Close() error {
	var first error
	for _, rp := range f.replicas {
		if err := rp.ep.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// steer orders the replicas for one query: replicas whose breaker admits
// traffic first (healthy, or a due half-open probe), quarantined ones after
// — tried only if every admitted replica fails. Allow() on a quarantined
// replica records the skip in its breaker telemetry.
func (f *Failover) steer() []*replica {
	var open, quarantined []*replica
	for _, rp := range f.replicas {
		if rp.ep.breaker.Allow() {
			open = append(open, rp)
		} else {
			quarantined = append(quarantined, rp)
		}
	}
	return append(open, quarantined...)
}

// call runs one read against the group with breaker-steered failover. The
// endpoint has already charged or cleared the replica's breaker and dropped
// a lost connection; what is left here is whether the answer ends the walk.
func (f *Failover) call(ctx context.Context, op wire.Op, body []byte) ([]byte, error) {
	var inconclusive, notFound error
	for _, rp := range f.steer() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out, err := rp.ep.call(ctx, op, body)
		switch kind := classify(err); {
		case err == nil:
			return out, nil
		case kind == cancelled:
			return nil, err
		case errors.Is(err, ErrNotFound):
			notFound = err
		case kind == transport, errors.Is(err, ErrInternal), errors.Is(err, ErrRetryLater):
			inconclusive = err
		default:
			return nil, err // deterministic status: every replica would say the same
		}
	}
	if inconclusive != nil {
		return nil, inconclusive // not-found was not unanimous
	}
	return nil, notFound
}

// ReplicaState is one replica's health snapshot.
type ReplicaState struct {
	Name    string
	State   string // healthy | degraded | quarantined | probing
	Skipped int64  // queries steered away while quarantined
}

// States reports the breaker state per replica, in configuration order.
func (f *Failover) States() []ReplicaState {
	out := make([]ReplicaState, 0, len(f.replicas))
	for _, rp := range f.replicas {
		snap := rp.ep.breaker.Snapshot()
		out = append(out, ReplicaState{Name: rp.name, State: snap.State.String(), Skipped: snap.Skipped})
	}
	return out
}
