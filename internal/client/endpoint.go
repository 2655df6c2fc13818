package client

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/wire"
)

// answer is what one attempt's error says about the server and the
// connection that carried it.
type answer int

const (
	// answered: the server replied — success or a *StatusError. The
	// connection and the server are healthy whatever the status.
	answered answer = iota
	// transport: the attempt died below the protocol (dial failure, reset,
	// closed or blackholed connection). The connection is unusable.
	transport
	// cancelled: the caller's context fired first. Says nothing about the
	// connection, which other calls may still be sharing.
	cancelled
)

// classify is the single reading of a call error that every retry,
// failover, redial and breaker decision in this package goes through.
func classify(err error) answer {
	if err == nil {
		return answered // before se is declared: errors.As makes it escape
	}
	var se *StatusError
	switch {
	case errors.As(err, &se):
		return answered
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return cancelled
	default:
		return transport
	}
}

// errAttemptTimeout reports an attempt that outlived the endpoint's
// per-attempt bound while the caller's context was still live: the
// connection is presumed blackholed, which is a transport loss.
var errAttemptTimeout = errors.New("rls: attempt timed out")

// endpoint is the one path from a policy (Peer, Reliable, Failover, a
// Router shard) to one server: a fixed set of connection slots, each dialed
// on demand and redialed when its Client has died, plus the server's
// circuit breaker when the policy tracks health. Policies decide which
// endpoint to call and what to do with the answer; picking a connection,
// noticing that it is dead, replacing it and settling the breaker happen
// only here.
type endpoint struct {
	opts Options
	// breaker is nil for policies that keep no health state. call settles
	// it; consulting Allow is the policy's business, because a Router gates
	// on it and a Failover only orders by it.
	breaker *backoff.Breaker
	// attemptTimeout, when positive, bounds each call separately from the
	// caller's context, turning a blackholed connection into a transport
	// loss the policy can retry on a fresh connection.
	attemptTimeout time.Duration

	slots []atomic.Pointer[Client]
	next  atomic.Uint64 // rotating start index for pick
	dials atomic.Int64  // successful dials, first connections included

	mu     sync.Mutex // serializes (re)dials and Close; never taken to look a slot up
	closed bool
}

// newEndpoint builds an endpoint of size slots (at least one), none dialed.
func newEndpoint(opts Options, size int, breaker *backoff.Breaker) *endpoint {
	return &endpoint{opts: opts, breaker: breaker, slots: make([]atomic.Pointer[Client], max(size, 1))}
}

// warm dials every slot now, for policies that promise a live server at
// construction. On failure the connections already opened are closed.
func (e *endpoint) warm(ctx context.Context) error {
	for i := range e.slots {
		if _, err := e.conn(ctx, i); err != nil {
			_ = e.close()
			return err
		}
	}
	return nil
}

// pick returns the least-loaded slot by the per-connection in-flight
// gauge, so a stalled connection (slow server thread, shaped link, dead
// peer whose calls are waiting out their contexts) stops attracting new
// calls instead of accumulating the whole batch. Ties — the common case
// when the endpoint is idle or uniformly loaded — are broken by a rotating
// start index, which degrades to plain round-robin. An empty or dead slot
// counts as idle: picking it is what gets it redialed.
func (e *endpoint) pick() int {
	n := uint64(len(e.slots))
	best := (e.next.Add(1) - 1) % n
	bestLoad := e.load(best)
	for i := uint64(1); i < n && bestLoad > 0; i++ {
		slot := (best + i) % n
		if load := e.load(slot); load < bestLoad {
			best, bestLoad = slot, load
		}
	}
	return int(best)
}

func (e *endpoint) load(slot uint64) int64 {
	if c := e.slots[slot].Load(); c != nil {
		return c.InFlight()
	}
	return 0
}

// conn returns the slot's live connection. The common case is one atomic
// load; only an empty slot or one whose Client has died takes the dial
// mutex.
func (e *endpoint) conn(ctx context.Context, slot int) (*Client, error) {
	if c := e.slots[slot].Load(); c != nil && !c.dead.Load() {
		return c, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, errClosed
	}
	old := e.slots[slot].Load()
	if old != nil && !old.dead.Load() {
		return old, nil // another caller redialed while we waited for the mutex
	}
	c, err := Dial(ctx, e.opts)
	if err != nil {
		return nil, err
	}
	e.slots[slot].Store(c)
	e.dials.Add(1)
	if old != nil {
		_ = old.Close()
	}
	return c, nil
}

// call performs one RPC on the least-loaded connection and accounts for
// the outcome: a transport loss kills the connection, so the next call to
// pick its slot redials, and every outcome settles the breaker. A breaker
// admitted the call through Allow, possibly as the single half-open probe,
// so it must hear back even when the caller gave up — a cancelled call
// counts against the server like a lost one.
func (e *endpoint) call(ctx context.Context, op wire.Op, body []byte) ([]byte, error) {
	slot := e.pick()
	c, err := e.conn(ctx, slot)
	var out []byte
	if err == nil {
		out, err = e.attempt(ctx, c, op, body)
	}
	kind := classify(err)
	if kind == transport && c != nil {
		e.slots[slot].CompareAndSwap(c, nil)
		_ = c.Close()
	}
	if e.breaker != nil {
		if kind == answered {
			e.breaker.OnSuccess()
		} else {
			e.breaker.OnFailure()
		}
	}
	return out, err
}

func (e *endpoint) attempt(ctx context.Context, c *Client, op wire.Op, body []byte) ([]byte, error) {
	if e.attemptTimeout <= 0 {
		return c.call(ctx, op, body)
	}
	actx, cancel := context.WithTimeout(ctx, e.attemptTimeout)
	defer cancel()
	out, err := c.call(actx, op, body)
	if classify(err) == cancelled && ctx.Err() == nil {
		return nil, errAttemptTimeout
	}
	return out, err
}

// close closes every dialed connection, returning the first error; later
// calls fail with errClosed instead of redialing.
func (e *endpoint) close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	var first error
	for i := range e.slots {
		if c := e.slots[i].Swap(nil); c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
