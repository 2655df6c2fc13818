package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/backoff"
	"repro/internal/ring"
	"repro/internal/wire"
)

// Router is the shard-aware client for a sharded LRC tier: one endpoint
// of pipelined connections per shard, a consistent-hash ring shared with
// the servers, and a per-shard circuit breaker. It routes by three
// rules:
//
//   - single-LFN operations (create/add/delete/get-targets) go to the
//     ring owner of the logical name;
//   - bulk mapping operations are split per shard, the sub-batches
//     issued in parallel, and the per-item failure statuses merged back
//     under their original request indices — callers observe exactly
//     the ordering contract a single LRC gives them;
//   - wildcard and reverse (target→logical) queries scatter-gather
//     across every shard with bounded concurrency,
//     merging and deduplicating results. A shard quarantined by its
//     breaker is skipped and the query reports degraded=true rather
//     than failing — the same partial-answer semantics the RLI gives
//     during soft-state propagation gaps.
//
// The ring is built from the shard names only, so any process that
// knows the topology (client, server, harness) computes identical
// ownership. With a single shard every rule collapses to one endpoint's
// behavior.
type Router struct {
	ring   *ring.Ring
	shards []*shard // indexed in ring.Nodes() order
	sem    chan struct{}
}

// shard is one member of the tier: the typed LRC operations bound to its
// endpoint, gated by the endpoint's breaker.
type shard struct {
	diagOps
	catalogOps
	lrcQueryOps
	name string
	ep   *endpoint
}

// call admits one RPC to the shard unless its breaker has it quarantined.
// The endpoint settles the breaker: a server status error means the shard
// answered and is healthy even though the operation failed; transport loss
// or a timeout on a stalled connection counts against it.
func (s *shard) call(ctx context.Context, op wire.Op, body []byte) ([]byte, error) {
	if !s.ep.breaker.Allow() {
		return nil, &ShardUnavailableError{Shard: s.name}
	}
	return s.ep.call(ctx, op, body)
}

// ShardSpec names one shard and how to reach it.
type ShardSpec struct {
	// Name is the shard's ring identity. It must match the name the
	// server side used when building its ring (core.ServerSpec.Name /
	// the membership shard-group member name).
	Name string
	// Opts dials the shard's server.
	Opts Options
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// Shards lists the tier. Order is irrelevant: ring ownership is
	// order-independent by construction.
	Shards []ShardSpec
	// PoolSize is the number of pipelined connections per shard
	// (default 1).
	PoolSize int
	// VNodes is the ring's virtual-node count per shard; it must match
	// the server tier's setting. 0 uses ring.DefaultVNodes.
	VNodes int
	// MaxFanout bounds how many shards a scatter-gather query (or a
	// bulk split) contacts concurrently. 0 means min(4, len(Shards)).
	MaxFanout int
	// Breaker configures the per-shard circuit breakers; the zero value
	// uses backoff defaults. Each shard's breaker derives its jitter
	// seed from Breaker.Seed plus the shard index so probe schedules
	// stay deterministic but de-synchronized.
	Breaker backoff.BreakerConfig
}

// ShardUnavailableError reports an operation routed to a shard whose
// circuit breaker is quarantined. errors.Is(err, ErrRetryLater) holds:
// the condition is transient and retry-after-backoff is the remedy.
type ShardUnavailableError struct {
	Shard string
}

// Error implements error.
func (e *ShardUnavailableError) Error() string {
	return fmt.Sprintf("rls: shard %s quarantined, retry later", e.Shard)
}

// Is maps the error onto the ErrRetryLater sentinel.
func (e *ShardUnavailableError) Is(target error) bool { return target == ErrRetryLater }

// NewRouter dials PoolSize connections per shard and builds the routing
// ring. On any dial failure the already-opened connections are closed.
func NewRouter(ctx context.Context, opts RouterOptions) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, errors.New("rls: router needs at least one shard")
	}
	names := make([]string, len(opts.Shards))
	byName := make(map[string]ShardSpec, len(opts.Shards))
	for i, s := range opts.Shards {
		names[i] = s.Name
		byName[s.Name] = s
	}
	rg, err := ring.New(names, opts.VNodes)
	if err != nil {
		return nil, fmt.Errorf("rls: router ring: %w", err)
	}
	fanout := opts.MaxFanout
	if fanout <= 0 {
		fanout = 4
	}
	if fanout > len(opts.Shards) {
		fanout = len(opts.Shards)
	}
	r := &Router{ring: rg, sem: make(chan struct{}, fanout)}
	// Shard order follows the ring's (sorted) node order so that
	// ring.OwnerIndex indexes r.shards directly.
	for i, name := range rg.Nodes() {
		bc := opts.Breaker
		bc.Seed = opts.Breaker.Seed + int64(i) + 1
		s := &shard{name: name, ep: newEndpoint(byName[name].Opts, opts.PoolSize, backoff.NewBreaker(bc))}
		s.diagOps, s.catalogOps, s.lrcQueryOps = diagOps{s}, catalogOps{s}, lrcQueryOps{s}
		if err := s.ep.warm(ctx); err != nil {
			_ = r.Close()
			return nil, fmt.Errorf("rls: router dial shard %s: %w", name, err)
		}
		r.shards = append(r.shards, s)
	}
	return r, nil
}

// Close closes every shard's connections, returning the first error.
func (r *Router) Close() error {
	var first error
	for _, s := range r.shards {
		if err := s.ep.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShardFor returns the name of the shard owning the logical name.
func (r *Router) ShardFor(logical string) string { return r.ring.Owner(logical) }

func (r *Router) shardFor(logical string) *shard {
	return r.shards[r.ring.OwnerIndex(logical)]
}

// ---- single-LFN operations: routed to the ring owner ----

// CreateMapping registers a new logical name on its owning shard.
func (r *Router) CreateMapping(ctx context.Context, logical, target string) error {
	return r.shardFor(logical).CreateMapping(ctx, logical, target)
}

// AddMapping adds a replica target to an existing logical name.
func (r *Router) AddMapping(ctx context.Context, logical, target string) error {
	return r.shardFor(logical).AddMapping(ctx, logical, target)
}

// DeleteMapping removes a replica mapping from the owning shard.
func (r *Router) DeleteMapping(ctx context.Context, logical, target string) error {
	return r.shardFor(logical).DeleteMapping(ctx, logical, target)
}

// GetTargets returns the targets of a logical name from its owner.
func (r *Router) GetTargets(ctx context.Context, logical string) ([]string, error) {
	return r.shardFor(logical).GetTargets(ctx, logical)
}

// ---- fan-out: the one place shards are contacted concurrently ----

// fanOut runs fn(0..n-1) concurrently, at most MaxFanout at a time, and
// returns each call's error by index. A call still waiting for its turn
// when ctx fires reports ctx.Err() without running.
func (r *Router) fanOut(ctx context.Context, n int, fn func(i int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case r.sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-r.sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// Ping checks liveness of every shard; the first failure (a quarantined
// shard included) is returned.
func (r *Router) Ping(ctx context.Context) error {
	for _, err := range r.fanOut(ctx, len(r.shards), func(i int) error { return r.shards[i].Ping(ctx) }) {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- bulk operations: split per shard, merge in input order ----

// batch is the part of a bulk request owned by one shard: idx holds the
// original request index of each of its items, in input order, so
// per-item answers can be mapped back.
type batch struct {
	shard *shard
	idx   []int
}

// split groups the n items of a bulk request by the ring owner of each
// item's logical name. Shards owning no item get no batch.
func (r *Router) split(n int, logical func(i int) string) []batch {
	byShard := make([][]int, len(r.shards))
	for i := 0; i < n; i++ {
		si := r.ring.OwnerIndex(logical(i))
		byShard[si] = append(byShard[si], i)
	}
	var out []batch
	for si, idx := range byShard {
		if idx != nil {
			out = append(out, batch{r.shards[si], idx})
		}
	}
	return out
}

// take returns the items at the given indices, in index-list order.
func take[T any](items []T, idx []int) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		out[j] = items[i]
	}
	return out
}

// bulkMappingOp splits a bulk request across shards, issues the
// sub-batches in parallel, and merges per-item failures back under
// their original indices in ascending (input) order. A sub-batch that
// fails wholesale — shard quarantined, connection lost, server-level
// status error — degrades to per-item failures for exactly its items,
// so one bad shard cannot turn a 90%-successful bulk into a total
// error. Context cancellation is the exception: it aborts the whole
// operation, matching single-client semantics.
func (r *Router) bulkMappingOp(ctx context.Context, mappings []wire.Mapping,
	op func(*shard, context.Context, []wire.Mapping) ([]wire.BulkFailure, error)) ([]wire.BulkFailure, error) {

	batches := r.split(len(mappings), func(i int) string { return mappings[i].Logical })
	if len(batches) == 1 {
		// Single shard involved (always true for a 1-shard tier): no
		// split, no remap — indices already match the input.
		return op(batches[0].shard, ctx, mappings)
	}
	results := make([][]wire.BulkFailure, len(batches))
	errs := r.fanOut(ctx, len(batches), func(i int) (err error) {
		results[i], err = op(batches[i].shard, ctx, take(mappings, batches[i].idx))
		return err
	})

	var merged []wire.BulkFailure
	for i, b := range batches {
		switch err := errs[i]; {
		case err == nil:
			for _, f := range results[i] {
				if int(f.Index) < len(b.idx) {
					f.Index = uint32(b.idx[f.Index])
					merged = append(merged, f)
				}
			}
		case classify(err) == cancelled:
			return nil, err
		default:
			// Report the shard's own status per item when it gave one;
			// anything else is a transient shard-level loss.
			st := wire.StatusRetryLater
			var se *StatusError
			if errors.As(err, &se) {
				st = se.Status
			}
			for _, oi := range b.idx {
				merged = append(merged, wire.BulkFailure{Index: uint32(oi), Status: st, Msg: err.Error()})
			}
		}
	}
	sort.Slice(merged, func(a, b int) bool { return merged[a].Index < merged[b].Index })
	return merged, nil
}

// BulkCreate creates many mappings across the tier, returning
// per-element failures under their original request indices.
func (r *Router) BulkCreate(ctx context.Context, mappings []wire.Mapping) ([]wire.BulkFailure, error) {
	return r.bulkMappingOp(ctx, mappings, (*shard).BulkCreate)
}

// BulkAdd adds many mappings across the tier.
func (r *Router) BulkAdd(ctx context.Context, mappings []wire.Mapping) ([]wire.BulkFailure, error) {
	return r.bulkMappingOp(ctx, mappings, (*shard).BulkAdd)
}

// BulkDelete deletes many mappings across the tier.
func (r *Router) BulkDelete(ctx context.Context, mappings []wire.Mapping) ([]wire.BulkFailure, error) {
	return r.bulkMappingOp(ctx, mappings, (*shard).BulkDelete)
}

// BulkGetTargets resolves many logical names, each answered by its
// owning shard, results returned in input order (one per name, found
// or not — the same shape a single LRC returns).
func (r *Router) BulkGetTargets(ctx context.Context, names []string) ([]wire.BulkNameResult, error) {
	batches := r.split(len(names), func(i int) string { return names[i] })
	out := make([]wire.BulkNameResult, len(names))
	errs := r.fanOut(ctx, len(batches), func(i int) error {
		b := batches[i]
		res, err := b.shard.BulkGetTargets(ctx, take(names, b.idx))
		// The server answers one result per requested name in request
		// order; place each at its original index.
		for j, nr := range res {
			if j < len(b.idx) {
				out[b.idx[j]] = nr
			}
		}
		return err
	})
	for i, err := range errs {
		if err == nil {
			continue
		}
		if classify(err) == cancelled {
			return nil, err
		}
		// Shard-level failure: report its names as not found rather
		// than failing names other shards resolved.
		for _, oi := range batches[i].idx {
			out[oi] = wire.BulkNameResult{Name: names[oi], Found: false}
		}
	}
	return out, nil
}

// ---- scatter-gather queries: every shard may hold part of the answer ----

// gather fans one query across all shards and concatenates the rows
// they return. Shards whose breaker is quarantined are skipped; shards
// that fail at the transport level contribute nothing. Either case sets
// degraded. Only when no shard answers and at least one failed does
// gather return an error (the first).
func gather[T any](ctx context.Context, r *Router, call func(s *shard) ([]T, error)) ([]T, bool, error) {
	per := make([][]T, len(r.shards))
	errs := r.fanOut(ctx, len(r.shards), func(i int) (err error) {
		per[i], err = call(r.shards[i])
		return err
	})

	var rows []T
	var answers int
	var firstErr error
	for i, err := range errs {
		switch {
		case err == nil:
			rows = append(rows, per[i]...)
			answers++
		case errors.Is(err, ErrNotFound):
			// An empty answer from one shard is not degradation: the
			// name simply does not live there.
		case classify(err) == cancelled:
			return nil, false, err
		case firstErr == nil:
			firstErr = err
		}
	}
	if answers == 0 && firstErr != nil {
		return nil, true, firstErr
	}
	return rows, firstErr != nil, nil
}

// mergeNameResults merges rows gathered from several shards: rows are
// keyed by Name, value lists unioned and deduplicated, output sorted by
// Name so the merged answer is deterministic regardless of shard
// arrival order.
func mergeNameResults(rows []wire.BulkNameResult) []wire.BulkNameResult {
	at := make(map[string]int) // Name -> index in out
	var out []wire.BulkNameResult
	for _, nr := range rows {
		i, ok := at[nr.Name]
		if !ok {
			i = len(out)
			at[nr.Name] = i
			out = append(out, wire.BulkNameResult{Name: nr.Name})
		}
		out[i].Found = out[i].Found || nr.Found
		out[i].Values = append(out[i].Values, nr.Values...)
	}
	for i := range out {
		out[i].Values = dedupeSorted(out[i].Values)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func dedupeSorted(vs []string) []string {
	if len(vs) < 2 {
		return vs
	}
	sort.Strings(vs)
	out := vs[:1]
	for _, v := range vs[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// WildcardTargets finds mappings whose logical name matches the
// pattern, merged across all shards. degraded=true reports that at
// least one shard could not answer and the result may be partial.
func (r *Router) WildcardTargets(ctx context.Context, pattern string) ([]wire.BulkNameResult, bool, error) {
	rows, degraded, err := gather(ctx, r, func(s *shard) ([]wire.BulkNameResult, error) {
		return s.WildcardTargets(ctx, pattern)
	})
	if err != nil {
		return nil, degraded, err
	}
	return mergeNameResults(rows), degraded, nil
}

// GetLogicals answers the reverse query (target → logical names). The
// owning shard of a logical is a function of the logical name, not the
// target, so any shard may hold mappings to this target: scatter to
// all, union the answers. ErrNotFound is returned only when every
// shard reported not-found.
func (r *Router) GetLogicals(ctx context.Context, target string) ([]string, bool, error) {
	names, degraded, err := gather(ctx, r, func(s *shard) ([]string, error) {
		return s.GetLogicals(ctx, target)
	})
	if err != nil {
		return nil, degraded, err
	}
	names = dedupeSorted(names)
	if len(names) == 0 && !degraded {
		return nil, false, &StatusError{Status: wire.StatusNotFound, Msg: "target not registered on any shard"}
	}
	return names, degraded, nil
}
