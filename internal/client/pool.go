package client

import "context"

// Pool is a small fixed set of pipelined connections to one server, with
// calls spread round-robin. The soft-state sender uses it so full-update
// batches and incremental flushes overlap RTTs across both the in-flight
// window of each connection and the connections themselves — the
// multiplexed analogue of the paper's multi-threaded update client.
//
// Pool exposes the soft-state sends and the diagnostics, so it satisfies
// lrc.Updater. It is the eager policy over an endpoint: every connection is
// dialed at construction, and one that later dies is redialed by the call
// that next picks its slot.
type Pool struct {
	diagOps
	softStateOps
	ep *endpoint
}

// NewPool dials size connections with the given options (including any
// per-connection Options.MaxInFlight cap). On any dial failure the
// already-opened connections are closed and the error returned.
func NewPool(ctx context.Context, opts Options, size int) (*Pool, error) {
	ep := newEndpoint(opts, size, nil)
	if err := ep.warm(ctx); err != nil {
		return nil, err
	}
	return &Pool{diagOps: diagOps{ep}, softStateOps: softStateOps{ep}, ep: ep}, nil
}

// Close closes every pooled connection, returning the first error.
func (p *Pool) Close() error { return p.ep.close() }

// SSFullBatchStart writes one full-update batch on the least-loaded pooled
// connection without waiting; the returned function waits for the ack. The
// ack is settled on the Client that carried the batch, outside
// endpoint.call, so a connection lost mid-window is replaced by the next
// send that picks its slot rather than by this one.
func (p *Pool) SSFullBatchStart(ctx context.Context, lrcURL string, names []string) (func(context.Context) error, error) {
	c, err := p.ep.conn(ctx, p.ep.pick())
	if err != nil {
		return nil, err
	}
	return c.SSFullBatchStart(ctx, lrcURL, names)
}
