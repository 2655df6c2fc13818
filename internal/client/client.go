// Package client implements the RLS client library: typed wrappers for
// every LRC and RLI operation of Table 1 over the wire protocol. It is the
// Go analogue of the paper's C client (and its Java wrapper), and also
// carries what servers say to each other: Peer is the LRC's link to an RLI
// for soft state updates (lrc.Updater), a child RLI's link to its parent
// (rli.Updater) and a membership agent's link to a seed
// (membership.MemberClient).
//
// Every RPC takes a context.Context as its first argument. A context
// deadline or cancellation bounds the whole RPC: the caller waits on a
// per-call channel and gives up when ctx.Done() fires, so deadlines compose
// across interleaved calls on one connection. rls-lint's ctxcheck enforces
// this shape for every exported blocking method.
//
// The connection is a multiplexed pipe. Callers write request frames
// tagged with fresh IDs; a single reader goroutine demultiplexes response
// frames back to per-call waiters by ID. Calls from many goroutines
// therefore pipeline on one connection instead of serializing on a
// lock-step mutex, and a connection-fatal read error fails every waiter at
// once.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Sentinel errors corresponding to wire statuses. Use errors.Is.
var (
	ErrDenied      = errors.New("rls: permission denied")
	ErrNotFound    = errors.New("rls: not found")
	ErrExists      = errors.New("rls: already exists")
	ErrBadRequest  = errors.New("rls: bad request")
	ErrUnsupported = errors.New("rls: operation not supported by server role")
	ErrInternal    = errors.New("rls: server error")
	ErrRetryLater  = errors.New("rls: server overloaded, retry later")
)

// StatusError carries the server's status and message.
type StatusError struct {
	Status wire.Status
	Msg    string
}

// Error implements error.
func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("rls: %s: %s", e.Status, e.Msg)
	}
	return "rls: " + e.Status.String()
}

// StatusCode exposes the raw wire status, letting packages that cannot
// import client (e.g. membership, which sits below core in the dependency
// order) classify server answers structurally.
func (e *StatusError) StatusCode() uint16 { return uint16(e.Status) }

// Is maps the status onto the package sentinels.
func (e *StatusError) Is(target error) bool {
	switch target {
	case ErrDenied:
		return e.Status == wire.StatusDenied
	case ErrNotFound:
		return e.Status == wire.StatusNotFound
	case ErrExists:
		return e.Status == wire.StatusExists
	case ErrBadRequest:
		return e.Status == wire.StatusBadRequest
	case ErrUnsupported:
		return e.Status == wire.StatusUnsupported
	case ErrInternal:
		return e.Status == wire.StatusInternal
	case ErrRetryLater:
		return e.Status == wire.StatusRetryLater
	default:
		return false
	}
}

// Options configures a connection.
type Options struct {
	// Addr is the server's TCP address (host:port). Ignored when Dialer is
	// set.
	Addr string
	// Dialer overrides the transport (in-process pipes, shaped
	// connections). When nil, a TCP dial of Addr is used.
	Dialer func() (net.Conn, error)
	// DN and Token are the identity credential (GSI stand-in). Empty values
	// are accepted by servers running in open mode.
	DN    string
	Token string
	// DialTimeout bounds connection establishment in addition to any ctx
	// deadline; default 30s.
	DialTimeout time.Duration
	// MaxInFlight caps the number of RPCs outstanding on the connection at
	// once; further calls block until a response arrives (or their ctx
	// fires). 0 means no client-side cap.
	MaxInFlight int
}

// errClosed reports a call issued on (or interrupted by) a closed client.
var errClosed = errors.New("rls: client closed")

// Client is one authenticated connection to an RLS server. Methods are safe
// for concurrent use and pipeline on the connection: each call writes its
// frame and parks on a per-call waiter channel while a single reader
// goroutine routes responses back by request ID.
//
// A single connection exposes every typed operation (see ops.go): the
// method sets below are all bound to this Client's call.
type Client struct {
	diagOps
	catalogOps
	lrcQueryOps
	rliQueryOps
	softStateOps
	memberOps

	conn      *wire.Conn
	serverURL string

	sem chan struct{} // in-flight cap; nil = unbounded

	// inflight counts RPCs between startCall and release — the load gauge
	// endpoint.pick uses to steer new calls away from a stalled connection.
	inflight atomic.Int64
	// dead mirrors err != nil for lock-free readers: an endpoint checks it
	// with one atomic load to decide whether the slot needs a redial.
	dead atomic.Bool

	mu      sync.Mutex
	nextID  uint64
	waiters map[uint64]chan *wire.Response
	err     error // connection-fatal error; set once, fails all new calls
}

// Dial connects and performs the Hello handshake. The context bounds both
// connection establishment and the handshake exchange.
func Dial(ctx context.Context, opts Options) (*Client, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var raw net.Conn
	var err error
	if opts.Dialer != nil {
		raw, err = opts.Dialer()
	} else {
		timeout := opts.DialTimeout
		if timeout <= 0 {
			timeout = 30 * time.Second
		}
		d := net.Dialer{Timeout: timeout}
		raw, err = d.DialContext(ctx, "tcp", opts.Addr)
	}
	if err != nil {
		return nil, err
	}
	conn := wire.NewConn(raw)
	serverURL, err := handshake(ctx, conn, opts)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	c := &Client{
		conn:      conn,
		serverURL: serverURL,
		waiters:   make(map[uint64]chan *wire.Response),
	}
	if opts.MaxInFlight > 0 {
		c.sem = make(chan struct{}, opts.MaxInFlight)
	}
	c.diagOps, c.catalogOps, c.lrcQueryOps = diagOps{c}, catalogOps{c}, lrcQueryOps{c}
	c.rliQueryOps, c.softStateOps, c.memberOps = rliQueryOps{c}, softStateOps{c}, memberOps{c}
	go c.readLoop()
	return c, nil
}

// handshake exchanges Hello and HelloAck under the context's deadline and
// returns the server's advertised URL.
func handshake(ctx context.Context, conn *wire.Conn, opts Options) (string, error) {
	dl, bounded := ctx.Deadline()
	if bounded {
		if err := conn.SetDeadline(dl); err != nil {
			return "", err
		}
	}
	hello := wire.Hello{DN: opts.DN, Token: opts.Token}
	if err := conn.WriteFrame(hello.Encode()); err != nil {
		return "", err
	}
	payload, err := conn.ReadFrameLimit(wire.MaxHelloSize)
	if err != nil {
		return "", err
	}
	ack, err := wire.DecodeHelloAck(payload)
	if err != nil {
		return "", err
	}
	if ack.Status != wire.StatusOK {
		return "", &StatusError{Status: ack.Status, Msg: ack.Detail}
	}
	if bounded {
		if err := conn.SetDeadline(time.Time{}); err != nil {
			return "", err
		}
	}
	return ack.Detail, nil
}

// Close closes the connection; outstanding and future calls fail.
func (c *Client) Close() error {
	c.fail(errClosed)
	return c.conn.Close()
}

// ServerURL returns the server's advertised address from the handshake.
func (c *Client) ServerURL() string { return c.serverURL }

// readLoop is the demultiplexer: the sole reader of the connection, routing
// each response frame to its call's waiter by ID. A response whose ID has
// no waiter is dropped — it is the late answer to a call whose context was
// cancelled, and must not kill the connection. A read or decode error is
// connection-fatal and fails every outstanding waiter.
func (c *Client) readLoop() {
	for {
		payload, err := c.conn.ReadFrame()
		if err != nil {
			c.fail(fmt.Errorf("rls: connection lost: %w", err))
			return
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			c.fail(fmt.Errorf("rls: bad response frame: %w", err))
			_ = c.conn.Close()
			return
		}
		c.mu.Lock()
		ch, ok := c.waiters[resp.ID]
		if ok {
			delete(c.waiters, resp.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- resp // buffered; never blocks
		}
	}
}

// fail marks the connection dead and wakes every outstanding waiter. Only
// the first error sticks; later calls are no-ops for the error but still
// drain any waiters registered in between.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		c.dead.Store(true)
	}
	ws := c.waiters
	c.waiters = nil
	c.mu.Unlock()
	for _, ch := range ws {
		close(ch)
	}
}

// waiterPool recycles per-call waiter channels. A channel may be returned
// to the pool only when the caller can prove the demultiplexer will never
// deliver into it: either the response was received (clean path), or the
// caller itself removed the waiter from the registration map (forget
// returned true — deletion under c.mu is the ownership handoff, so a true
// return means readLoop never claimed the channel and never will). A
// channel whose waiter was already claimed by readLoop may still receive a
// late response after the ctx-cancelled caller has moved on; recycling it
// would deliver that stale response to an unrelated future call, so such
// channels are abandoned to the garbage collector. Closed channels (fail
// path) are never recycled.
var waiterPool = sync.Pool{
	New: func() any { return make(chan *wire.Response, 1) },
}

// recycleWaiter drains and pools a waiter channel the caller owns.
func recycleWaiter(ch chan *wire.Response) {
	select {
	case <-ch: // defensively drain the single buffered slot
	default:
	}
	waiterPool.Put(ch)
}

// startCall assigns an ID, registers a waiter, and writes the request
// frame. The caller must finish with wait (or the waiter leaks until the
// connection dies).
func (c *Client) startCall(ctx context.Context, op wire.Op, body []byte) (uint64, chan *wire.Response, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if c.sem != nil {
		select {
		case c.sem <- struct{}{}:
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
	// Count the call in flight from here on: every exit path below —
	// registration failure, write failure, or the eventual wait — goes
	// through release, which decrements.
	c.inflight.Add(1)
	ch := waiterPool.Get().(chan *wire.Response)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		c.release()
		return 0, nil, err
	}
	c.nextID++
	id := c.nextID
	c.waiters[id] = ch
	c.mu.Unlock()
	// With other calls outstanding, yield once so that callers runnable now
	// (those readLoop just woke with the last burst of answers) queue their
	// frames too; the flush is a no-op if one of them got to it first.
	req := wire.Request{ID: id, Op: op, Body: body}
	err := c.conn.QueueRequest(&req)
	if err == nil {
		if c.inflight.Load() > 1 {
			runtime.Gosched()
		}
		err = c.conn.Flush()
	}
	if err != nil {
		if c.forget(id) {
			recycleWaiter(ch)
		}
		c.release()
		return 0, nil, err
	}
	return id, ch, nil
}

// wait parks on the call's waiter until the demultiplexer delivers the
// response, the context fires, or the connection dies.
func (c *Client) wait(ctx context.Context, id uint64, ch chan *wire.Response) ([]byte, error) {
	defer c.release()
	var resp *wire.Response
	var ok bool
	if done := ctx.Done(); done == nil {
		resp, ok = <-ch // uncancellable context: skip the select machinery
	} else {
		select {
		case resp, ok = <-ch:
		case <-done:
			if c.forget(id) {
				// We deregistered the waiter ourselves, so the
				// demultiplexer can never deliver into this channel —
				// safe to recycle. If readLoop already claimed it, the
				// late response may still land in the buffer; leave the
				// channel to the GC (see waiterPool).
				recycleWaiter(ch)
			}
			return nil, ctx.Err()
		}
	}
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = errClosed
		}
		return nil, err
	}
	waiterPool.Put(ch) // single buffered slot received; safe to recycle
	if resp.Status != wire.StatusOK {
		return nil, &StatusError{Status: resp.Status, Msg: resp.Err}
	}
	return resp.Body, nil
}

// forget abandons a call: its response, if one ever arrives, is dropped by
// the demultiplexer as an unknown ID. It reports whether the waiter was
// still registered — a true return means this call performed the deletion,
// so the demultiplexer never claimed the channel and the caller may recycle
// it; false means readLoop (or fail) got there first and may still touch
// the channel.
func (c *Client) forget(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.waiters == nil {
		return false
	}
	if _, ok := c.waiters[id]; !ok {
		return false
	}
	delete(c.waiters, id)
	return true
}

func (c *Client) release() {
	c.inflight.Add(-1)
	if c.sem != nil {
		<-c.sem
	}
}

// InFlight reports the number of RPCs currently outstanding on this
// connection (written but not yet answered, failed, or abandoned).
func (c *Client) InFlight() int64 { return c.inflight.Load() }

// call performs one synchronous RPC: write the request, then wait for the
// demultiplexer to deliver its response. Concurrent calls interleave on the
// connection rather than serializing.
func (c *Client) call(ctx context.Context, op wire.Op, body []byte) ([]byte, error) {
	id, ch, err := c.startCall(ctx, op, body)
	if err != nil {
		return nil, err
	}
	return c.wait(ctx, id, ch)
}

// SSFullBatchStart writes one batch of a full update and returns without
// waiting for the response; the returned function waits for (or abandons,
// on ctx cancellation) the acknowledgement. The soft-state sender keeps a
// window of these in flight so a bulk stream pays one RTT per window rather
// than one per batch.
func (c *Client) SSFullBatchStart(ctx context.Context, lrcURL string, names []string) (func(context.Context) error, error) {
	op, body := fullBatch(lrcURL, names)
	id, ch, err := c.startCall(ctx, op, body)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) error {
		_, err := c.wait(ctx, id, ch)
		return err
	}, nil
}
