// Package rli implements the Replica Location Index service: it aggregates
// soft state from one or more LRCs and answers "which LRCs know this logical
// name" queries.
//
// Two storage paths coexist, matching RLS 2.0.9 (§3.1, §3.4):
//
//   - LRCs sending full or incremental (uncompressed) updates populate a
//     relational database (rdb.RLIDB) whose t_map rows carry update
//     timestamps; an expire thread periodically discards entries older than
//     the timeout interval.
//
//   - LRCs sending Bloom filter updates are summarized entirely in memory —
//     "no database is used in the RLI; Bloom filters are instead stored in
//     RLI memory, which provides fast soft state update and query
//     performance". A query hashes the probe name against every stored
//     filter.
//
// Bloom filter entries participate in soft state expiration too: a filter
// not refreshed within the timeout is dropped.
package rli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/bloom"
	"repro/internal/clock"
	"repro/internal/rdb"
	"repro/internal/wire"
)

// Defaults for the expire thread.
const (
	// DefaultTimeout is how long soft state lives without a refresh.
	DefaultTimeout = 30 * time.Minute
	// DefaultExpireInterval is how often the expire thread runs.
	DefaultExpireInterval = time.Minute
)

// Config configures a Service.
type Config struct {
	// URL is this RLI's advertised address.
	URL string
	// DB stores uncompressed soft state. Optional: an RLI that only ever
	// receives Bloom updates runs without one.
	DB *rdb.RLIDB
	// Clock drives expiration; defaults to the real clock.
	Clock clock.Clock
	// Timeout is the soft state lifetime; DefaultTimeout if zero.
	Timeout time.Duration
	// ExpireInterval is the expire-thread period; DefaultExpireInterval if
	// zero.
	ExpireInterval time.Duration
	// Logger receives operational warnings (truncated full updates, snapshot
	// imports). Nil discards.
	Logger *slog.Logger
}

// Service is a running Replica Location Index.
type Service struct {
	cfg Config
	db  *rdb.RLIDB
	clk clock.Clock

	mu      sync.RWMutex
	filters map[string]*filterEntry // LRC url -> latest Bloom filter

	// sessions tracks in-progress full updates by sending LRC, so a stream
	// that dies mid-update can be aborted by the client or reaped by the
	// expire thread instead of lingering half-open forever.
	sessions map[string]*fullSession
	// lastRefresh records when each LRC's database-backed soft state was
	// last fed (completed full update or incremental). Queries flag answers
	// as stale when a contributing LRC has outlived the timeout without a
	// refresh — served, but flagged, per the soft-state contract.
	lastRefresh map[string]time.Time

	forward parentState // hierarchical-RLI forwarding (§7 extension)

	stop chan struct{}
	wg   sync.WaitGroup

	stats Stats
}

type filterEntry struct {
	bitmap   *bloom.Bitmap
	received time.Time
}

// fullSession is one in-progress full update from an LRC.
type fullSession struct {
	started      time.Time
	lastActivity time.Time
	names        int64
	// total is the name count the LRC advertised in SSFullStart. FullEnd
	// checks the streamed count against it: a short stream means batches
	// were lost in transit and the "completed" update is actually partial.
	total uint64
}

// Stats counts RLI activity.
type Stats struct {
	FullUpdates        int64
	IncrementalUpdates int64
	BloomUpdates       int64
	NamesIngested      int64
	Expired            int64
	// ExpireErrors counts expire passes that failed; the entries stay and
	// are retried on the next tick, so a nonzero value with a growing index
	// points at a stuck database, not at lost updates.
	ExpireErrors int64
	Queries      int64
	// StaleAnswers counts queries answered with at least one contributing
	// LRC whose soft state had outlived the timeout without a refresh.
	StaleAnswers int64
	// SessionsExpired counts half-open full-update sessions reaped by the
	// expire thread; SessionsAborted counts sessions discarded by an
	// explicit client abort.
	SessionsExpired int64
	SessionsAborted int64
	// TruncatedFulls counts full updates whose SSFullEnd arrived with fewer
	// names streamed than SSFullStart advertised — the stream was truncated
	// but still delivered its end marker. The names that did arrive are kept
	// (valid soft state); the LRC's next full pass repairs the gap.
	TruncatedFulls int64
	// SnapshotExports / SnapshotImports count warm-standby bootstrap
	// transfers of the in-memory Bloom store.
	SnapshotExports int64
	SnapshotImports int64
}

// New creates the service.
func New(cfg Config) (*Service, error) {
	if cfg.URL == "" {
		return nil, errors.New("rli: Config.URL is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.ExpireInterval <= 0 {
		cfg.ExpireInterval = DefaultExpireInterval
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Service{
		cfg:         cfg,
		db:          cfg.DB,
		clk:         cfg.Clock,
		filters:     make(map[string]*filterEntry),
		sessions:    make(map[string]*fullSession),
		lastRefresh: make(map[string]time.Time),
		stop:        make(chan struct{}),
	}, nil
}

// Start launches the expire thread.
func (s *Service) Start() {
	s.wg.Add(1)
	go s.expireLoop()
}

// Close stops the expire thread.
func (s *Service) Close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.wg.Wait()
	s.closeParents()
}

// URL returns the RLI's advertised address.
func (s *Service) URL() string { return s.cfg.URL }

// DB exposes the index database (nil for Bloom-only deployments).
func (s *Service) DB() *rdb.RLIDB { return s.db }

// Stats returns a snapshot of counters.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// errNoDB reports an uncompressed update arriving at a Bloom-only RLI.
var errNoDB = fmt.Errorf("%w: this RLI has no database for uncompressed updates", rdb.ErrInvalid)

// Update handlers mirror the Updater interface the server dispatches into.
// The rdb layer has no context plumbing (its blocking comes from the
// simulated disk), so the ctx.Err() entry check is the cancellation
// boundary for the database-backed paths.

// HandleFullStart begins a full update from an LRC, opening a session keyed
// by the sending LRC's url. State from prior full updates is not dropped
// here: stale entries age out via expiration, per the soft state model. A
// Start arriving while a session is already open replaces it — the previous
// stream died without an End or Abort.
func (s *Service) HandleFullStart(ctx context.Context, lrcURL string, total uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.db == nil {
		return errNoDB
	}
	now := s.clk.Now()
	s.mu.Lock()
	s.stats.FullUpdates++
	s.sessions[lrcURL] = &fullSession{started: now, lastActivity: now, total: total}
	s.mu.Unlock()
	return nil
}

// HandleFullBatch ingests one batch of a full update.
func (s *Service) HandleFullBatch(ctx context.Context, lrcURL string, names []string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.db == nil {
		return errNoDB
	}
	now := s.clk.Now()
	if err := s.db.UpsertNames(lrcURL, names, now); err != nil {
		return err
	}
	// Count what UpsertNames ingested, not what the frame carried: padding a
	// short stream with empty names must not pass the truncation check.
	ingested := int64(rdb.CountNames(names))
	s.mu.Lock()
	s.stats.NamesIngested += ingested
	if sess := s.sessions[lrcURL]; sess != nil {
		sess.lastActivity = now
		sess.names += ingested
	}
	s.mu.Unlock()
	return nil
}

// HandleFullEnd completes a full update, closing the session and recording
// the LRC's refresh time for staleness accounting. A stream that delivered
// fewer names than SSFullStart advertised is counted as truncated: the end
// marker alone does not prove completeness, and treating a short stream as a
// full refresh would let a lossy path masquerade as healthy soft state.
func (s *Service) HandleFullEnd(ctx context.Context, lrcURL string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.db == nil {
		return errNoDB
	}
	s.mu.Lock()
	if sess := s.sessions[lrcURL]; sess != nil && sess.total > 0 && uint64(sess.names) < sess.total {
		s.stats.TruncatedFulls++
		s.cfg.Logger.Warn("rli: truncated full update",
			"lrc", lrcURL, "advertised", sess.total, "streamed", sess.names)
	}
	delete(s.sessions, lrcURL)
	s.lastRefresh[lrcURL] = s.clk.Now()
	s.mu.Unlock()
	return nil
}

// HandleFullAbort discards a half-finished full-update session. The names
// already upserted stay — they are valid soft state and age out normally —
// but the session stops occupying the table. Aborting with no session open
// is a no-op: the abort is the client's best-effort cleanup and may race
// session expiry.
func (s *Service) HandleFullAbort(ctx context.Context, lrcURL string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	if _, ok := s.sessions[lrcURL]; ok {
		delete(s.sessions, lrcURL)
		s.stats.SessionsAborted++
	}
	s.mu.Unlock()
	return nil
}

// HandleIncremental ingests an immediate-mode update.
func (s *Service) HandleIncremental(ctx context.Context, lrcURL string, added, removed []string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.db == nil {
		return errNoDB
	}
	now := s.clk.Now()
	if err := s.db.UpsertNames(lrcURL, added, now); err != nil {
		return err
	}
	if err := s.db.RemoveNames(lrcURL, removed); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.IncrementalUpdates++
	s.stats.NamesIngested += int64(rdb.CountNames(added))
	s.lastRefresh[lrcURL] = now
	s.mu.Unlock()
	return nil
}

// HandleBloom stores an LRC's Bloom filter, replacing any previous one.
func (s *Service) HandleBloom(ctx context.Context, lrcURL string, payload []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var bm bloom.Bitmap
	if err := bm.UnmarshalBinary(payload); err != nil {
		return errors.Join(rdb.ErrInvalid, err)
	}
	now := s.clk.Now()
	s.mu.Lock()
	s.filters[lrcURL] = &filterEntry{bitmap: &bm, received: now}
	// A Bloom update is a refresh of the LRC's soft state like any other:
	// recording it here is what lets queries flag a Bloom-only LRC as stale
	// once it stops sending.
	s.lastRefresh[lrcURL] = now
	s.stats.BloomUpdates++
	s.mu.Unlock()
	return nil
}

// QueryLRCs returns the LRC urls that may hold mappings for the logical
// name: exact matches from the database union probabilistic matches from the
// in-memory Bloom filters (false positives possible at ~1%, paper §3.4).
func (s *Service) QueryLRCs(ctx context.Context, logical string) ([]string, error) {
	urls, _, err := s.QueryLRCsDetailed(ctx, logical)
	return urls, err
}

// QueryLRCsDetailed is QueryLRCs plus a staleness flag: the answer is stale
// when any contributing LRC's soft state has outlived the timeout without a
// refresh. Soft state is served until the expire thread reaps it, so in the
// window between timeout and sweep the answer may describe an LRC that has
// gone away — the flag lets clients decide whether to trust it.
func (s *Service) QueryLRCsDetailed(ctx context.Context, logical string) ([]string, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	s.stats.Queries++
	s.mu.Unlock()

	set := make(map[string]bool)
	if s.db != nil {
		urls, err := s.db.QueryLRCs(logical)
		if err != nil && !errors.Is(err, rdb.ErrNotFound) {
			return nil, false, err
		}
		for _, u := range urls {
			set[u] = true
		}
	}
	cutoff := s.clk.Now().Add(-s.cfg.Timeout)
	stale := false
	s.mu.RLock()
	for url, fe := range s.filters {
		if fe.bitmap.Test(logical) {
			set[url] = true
		}
	}
	for url := range set {
		if fe, ok := s.filters[url]; ok && !fe.received.Before(cutoff) {
			continue // a fresh filter vouches for the LRC
		}
		if ts, ok := s.lastRefresh[url]; ok && ts.Before(cutoff) {
			stale = true
		}
	}
	s.mu.RUnlock()
	if len(set) == 0 {
		return nil, false, fmt.Errorf("%w: logical name %q", rdb.ErrNotFound, logical)
	}
	if stale {
		s.mu.Lock()
		s.stats.StaleAnswers++
		s.mu.Unlock()
	}
	out := make([]string, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Strings(out)
	return out, stale, nil
}

// WildcardQuery answers wildcard queries from the database. Bloom-filter
// state cannot be enumerated — the capability cost of compression the paper
// notes in §5.4 — so filters contribute nothing here.
func (s *Service) WildcardQuery(ctx context.Context, pattern string) ([]wire.Mapping, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.db == nil {
		return nil, fmt.Errorf("%w: wildcard queries are not possible over Bloom filter state", rdb.ErrInvalid)
	}
	return s.db.WildcardQuery(pattern)
}

// BulkQuery resolves many logical names.
func (s *Service) BulkQuery(ctx context.Context, names []string) []wire.BulkNameResult {
	out := make([]wire.BulkNameResult, 0, len(names))
	for _, n := range names {
		values, err := s.QueryLRCs(ctx, n)
		out = append(out, wire.BulkNameResult{Name: n, Found: err == nil, Values: values})
	}
	return out
}

// LRCs lists the LRCs known to this RLI, from both storage paths.
func (s *Service) LRCs(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	if s.db != nil {
		urls, err := s.db.LRCs()
		if err != nil {
			return nil, err
		}
		for _, u := range urls {
			set[u] = true
		}
	}
	s.mu.RLock()
	for url := range s.filters {
		set[url] = true
	}
	s.mu.RUnlock()
	out := make([]string, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Strings(out)
	return out, nil
}

// FilterCount reports how many Bloom filters are resident.
func (s *Service) FilterCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.filters)
}

// BloomBytes reports the total resident size of the in-memory Bloom store —
// the RLI-side cost of compressed soft state (paper Table 3).
func (s *Service) BloomBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, fe := range s.filters {
		total += int64(fe.bitmap.SizeBytes())
	}
	return total
}

// Counts reports index occupancy (database associations; Bloom filters are
// opaque).
func (s *Service) Counts(ctx context.Context) (logicals, lrcs, associations int64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, err
	}
	if s.db == nil {
		return 0, int64(s.FilterCount()), 0, nil
	}
	return s.db.Counts()
}

// ExpireNow runs one expiration pass, returning dropped database
// associations plus dropped Bloom filters.
func (s *Service) ExpireNow(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	cutoff := s.clk.Now().Add(-s.cfg.Timeout)
	dropped := 0
	if s.db != nil {
		n, err := s.db.ExpireBefore(cutoff)
		if err != nil {
			return 0, err
		}
		dropped += n
	}
	s.mu.Lock()
	for url, fe := range s.filters {
		if fe.received.Before(cutoff) {
			delete(s.filters, url)
			dropped++
		}
	}
	s.stats.Expired += int64(dropped)
	// Reap half-open full-update sessions whose stream went silent: an LRC
	// that died mid-update never sends End or Abort, and without this sweep
	// its session would sit in the table forever.
	for url, sess := range s.sessions {
		if sess.lastActivity.Before(cutoff) {
			delete(s.sessions, url)
			s.stats.SessionsExpired++
		}
	}
	s.mu.Unlock()
	return dropped, nil
}

// SessionCount reports how many full-update sessions are currently open.
func (s *Service) SessionCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}

// expireLoop is the expire thread: "An expire thread runs periodically and
// examines timestamps in the RLI mapping table, discarding entries older
// than the allowed timeout interval."
func (s *Service) expireLoop() {
	defer s.wg.Done()
	t := s.clk.NewTicker(s.cfg.ExpireInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C():
			if _, err := s.ExpireNow(context.Background()); err != nil {
				s.mu.Lock()
				s.stats.ExpireErrors++
				s.mu.Unlock()
			}
		}
	}
}
