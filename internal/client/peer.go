package client

import "context"

// Peer is one server's standing link to another: the LRC soft-state sender
// holds one per RLI target, a forwarding RLI one per parent, a membership
// agent one per seed. It is the lazy policy over a one-connection endpoint —
// nothing is dialed until the first call, so construction cannot fail, and a
// connection that died (peer restart, idle reap, reset) is replaced by the
// call that next needs it. Owners therefore keep a Peer for their own
// lifetime and never manage connections themselves.
//
// Peer exposes what servers say to each other — diagnostics, the soft-state
// sends and the membership operations — so it satisfies lrc.Updater,
// rli.Updater and membership.MemberClient.
type Peer struct {
	diagOps
	softStateOps
	memberOps
	ep *endpoint
}

// NewPeer returns a link that will connect with opts on first use.
func NewPeer(opts Options) *Peer {
	ep := newEndpoint(opts, 1, nil)
	return &Peer{diagOps: diagOps{ep}, softStateOps: softStateOps{ep}, memberOps: memberOps{ep}, ep: ep}
}

// Close closes the connection, if one is open; later calls fail instead of
// redialing.
func (p *Peer) Close() error { return p.ep.close() }

// InFlight reports the RPCs outstanding on the current connection.
func (p *Peer) InFlight() int64 { return p.ep.load(0) }

// SSFullBatchStart writes one full-update batch without waiting; the
// returned function waits for the ack. The ack is settled on the Client that
// carried the batch, outside endpoint.call: a connection lost mid-window
// marks that Client dead, and the next send redials.
func (p *Peer) SSFullBatchStart(ctx context.Context, lrcURL string, names []string) (func(context.Context) error, error) {
	c, err := p.ep.conn(ctx, 0)
	if err != nil {
		return nil, err
	}
	return c.SSFullBatchStart(ctx, lrcURL, names)
}
