// Package lrc implements the Local Replica Catalog service: the catalog
// operations of Table 1 backed by an rdb.LRCDB, plus the soft state update
// machinery of §3.2-3.5 — full updates, immediate (incremental) mode, Bloom
// filter compression, and namespace partitioning.
package lrc

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/bloom"
	"repro/internal/clock"
	"repro/internal/rdb"
	"repro/internal/ring"
	"repro/internal/wire"
)

// Updater is the LRC's view of its link to one RLI server, used to send
// soft state updates. The network-backed implementation is client.Peer,
// which replaces a dead connection itself: the sender keeps one Updater per
// target for as long as the target is registered. Every send takes a context
// so an update pass can be bounded or cancelled mid-stream.
type Updater interface {
	SSFullStart(ctx context.Context, lrcURL string, total uint64) error
	SSFullBatch(ctx context.Context, lrcURL string, names []string) error
	SSFullEnd(ctx context.Context, lrcURL string) error
	SSFullAbort(ctx context.Context, lrcURL string) error
	SSIncremental(ctx context.Context, lrcURL string, added, removed []string) error
	SSBloom(ctx context.Context, lrcURL string, bitmap []byte) error
	Close() error
}

// Dialer opens an Updater to the RLI at the given url.
type Dialer func(ctx context.Context, url string) (Updater, error)

// batchStarter is the asynchronous-batch capability of a pipelined Updater
// (client.Peer provides it): write one full-update batch without waiting,
// and settle the acknowledgement via the returned function. The windowed
// full update uses it when Config.UpdateWindow > 1; updaters without it fall
// back to lock-step batches.
type batchStarter interface {
	SSFullBatchStart(ctx context.Context, lrcURL string, names []string) (func(context.Context) error, error)
}

// Defaults for the soft state scheduler.
const (
	// DefaultImmediateInterval matches the paper's §3.3: "Immediate mode
	// updates are sent after a short, configurable interval has elapsed (by
	// default, 30 seconds)".
	DefaultImmediateInterval = 30 * time.Second
	// DefaultImmediateThreshold is the alternative trigger: "or after a
	// specified number of LRC updates have occurred".
	DefaultImmediateThreshold = 100
	// DefaultFullInterval spaces the periodic full updates that refresh RLI
	// state before it expires.
	DefaultFullInterval = 10 * time.Minute
	// DefaultFullBatch is the number of names per full-update batch frame.
	DefaultFullBatch = 5000
)

// Config configures a Service.
type Config struct {
	// URL is this LRC's advertised address, recorded in RLI databases.
	URL string
	// DB is the catalog database.
	DB *rdb.LRCDB
	// Dial opens soft-state connections to RLIs. Required if any RLI
	// targets are configured.
	Dial Dialer
	// Clock drives the schedulers; defaults to the real clock.
	Clock clock.Clock
	// ImmediateMode enables incremental updates between full updates.
	ImmediateMode bool
	// ImmediateInterval and ImmediateThreshold trigger incremental sends.
	ImmediateInterval  time.Duration
	ImmediateThreshold int
	// FullInterval spaces periodic full (or Bloom) updates; zero disables
	// the periodic scheduler (updates then happen only via ForceUpdate,
	// which is how the benchmark harness drives them).
	FullInterval time.Duration
	// FullBatch is the number of names per full-update batch.
	FullBatch int
	// BloomSizeHint pre-sizes the Bloom filter (expected mappings); zero
	// uses the current catalog size.
	BloomSizeHint int
	// UpdateWindow pipelines full updates. Values <= 1 send one batch per
	// RTT (the paper's lock-step sender). Values > 1, when the Updater
	// supports asynchronous batches (client.Peer does), keep up to
	// UpdateWindow batches in flight so a bulk stream pays one RTT per
	// window rather than one per batch.
	UpdateWindow int
	// Backoff spaces half-open probes to quarantined RLI targets; the zero
	// value uses the backoff package defaults (100ms base, 30s cap, ±20%
	// jitter).
	Backoff backoff.Policy
	// FailThreshold is the consecutive-failure count after which a target is
	// quarantined (sends skipped until the next probe). Defaults to
	// backoff.DefaultFailThreshold; targets below the threshold are only
	// degraded and still receive every scheduled update.
	FailThreshold int
	// BreakerSeed makes per-target probe jitter deterministic for tests and
	// the chaos harness; each target's breaker derives its own seed from
	// this value and the target url.
	BreakerSeed int64
	// ShardRing and ShardSelf give the LRC its identity in a sharded
	// tier: logical-keyed mutations whose ring owner is not ShardSelf
	// are rejected with a NotOwnerError. Nil ShardRing (the default)
	// disables the check — the unsharded single-catalog deployment.
	ShardRing *ring.Ring
	ShardSelf string
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.ImmediateInterval <= 0 {
		c.ImmediateInterval = DefaultImmediateInterval
	}
	if c.ImmediateThreshold <= 0 {
		c.ImmediateThreshold = DefaultImmediateThreshold
	}
	if c.FullBatch <= 0 {
		c.FullBatch = DefaultFullBatch
	}
	return c
}

// Service is a running Local Replica Catalog.
type Service struct {
	cfg Config
	db  *rdb.LRCDB
	clk clock.Clock
	// openCursor opens a catalog name scan for filter rebuilds. It wraps
	// db.OpenNamesCursor; tests substitute a cursor that errors mid-scan.
	openCursor func() (namesCursor, error)

	mu      sync.Mutex
	filter  *bloom.Filter
	pending pendingChanges
	targets map[string]*target // keyed by RLI url
	tstats  map[string]*TargetStats
	// breakers tracks per-target health (healthy → degraded → quarantined
	// with half-open probes), replacing the old redial-every-round loop
	// against a dead RLI. Like tstats, entries persist across target
	// re-registration so a flapping RLI keeps its history.
	breakers map[string]*backoff.Breaker

	stop chan struct{}
	wg   sync.WaitGroup

	stats Stats
}

// pendingChanges accumulates logical-name changes since the last
// incremental update. Only changes to the *set of logical names* matter to
// RLIs: adding a second target to an existing name does not alter the
// {LFN, LRC} index.
type pendingChanges struct {
	added   []string
	removed []string
}

// target is one RLI this LRC updates.
type target struct {
	spec     wire.RLITarget
	patterns []*regexp.Regexp

	// The link to the RLI, obtained on first send and kept until the target
	// is removed or the service closes. Guarded by upMu, not Service.mu:
	// Config.Dial runs mid-send.
	upMu   sync.Mutex
	up     Updater
	closed bool
}

// Stats counts soft state update activity.
type Stats struct {
	FullUpdates        int64
	IncrementalUpdates int64
	BloomUpdates       int64
	NamesSent          int64
	UpdateErrors       int64
}

// TargetStats reports soft-state update health for one RLI target: how many
// updates were delivered or failed, how many buffered deltas were re-queued
// after failed incremental flushes, payload volume, and when the target last
// acknowledged an update. Stats persist across target re-registration so a
// flapping RLI keeps its history.
type TargetStats struct {
	URL         string
	Sent        int64 // successful updates of any kind
	Failed      int64 // updates that errored
	Skipped     int64 // update passes suppressed by the target's breaker
	Requeued    int64 // incremental deltas re-queued after a failed flush
	NamesSent   int64
	BytesSent   int64 // serialized Bloom payload bytes
	LastSuccess time.Time

	// Breaker telemetry, merged from the target's circuit breaker at
	// snapshot time.
	State       string // healthy | degraded | quarantined | probing
	ConsecFails int64
	Probes      int64 // half-open probes admitted
	NextProbe   time.Time
}

// New creates the service and loads its RLI target list from the database.
// The context bounds the initial catalog scan that populates the Bloom
// filter.
func New(ctx context.Context, cfg Config) (*Service, error) {
	if cfg.DB == nil {
		return nil, errors.New("lrc: Config.DB is required")
	}
	if cfg.URL == "" {
		return nil, errors.New("lrc: Config.URL is required")
	}
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		db:       cfg.DB,
		clk:      cfg.Clock,
		targets:  make(map[string]*target),
		tstats:   make(map[string]*TargetStats),
		breakers: make(map[string]*backoff.Breaker),
		stop:     make(chan struct{}),
	}
	s.openCursor = func() (namesCursor, error) { return s.db.OpenNamesCursor() }
	// Size and populate the Bloom filter from current catalog contents.
	logicals, _, _, err := s.db.Counts()
	if err != nil {
		return nil, err
	}
	hint := cfg.BloomSizeHint
	if int64(hint) < logicals {
		hint = int(logicals)
	}
	s.filter = bloom.New(hint)
	if err := s.populateFilter(ctx); err != nil {
		return nil, err
	}
	// Restore persisted RLI targets.
	persisted, err := s.db.ListRLITargets()
	if err != nil {
		return nil, err
	}
	for _, spec := range persisted {
		tg, err := compileTarget(spec)
		if err != nil {
			return nil, err
		}
		s.targets[spec.URL] = tg
	}
	return s, nil
}

// populateFilter feeds every current logical name into the Bloom filter —
// the "one-time cost" of Table 3's third column.
func (s *Service) populateFilter(ctx context.Context) error {
	cur, err := s.db.OpenNamesCursor()
	if err != nil {
		return err
	}
	defer cur.Close()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		page, err := cur.Next(s.cfg.FullBatch)
		if err != nil {
			return err
		}
		if len(page) == 0 {
			return nil
		}
		for _, name := range page {
			s.filter.Add(name)
		}
	}
}

func compileTarget(spec wire.RLITarget) (*target, error) {
	tg := &target{spec: spec}
	for _, p := range spec.Patterns {
		re, err := regexp.Compile(p)
		if err != nil {
			return nil, fmt.Errorf("lrc: partition pattern %q: %w", p, err)
		}
		tg.patterns = append(tg.patterns, re)
	}
	return tg, nil
}

// matches reports whether a logical name falls in the target's namespace
// partition (no patterns = everything).
func (t *target) matches(name string) bool {
	if len(t.patterns) == 0 {
		return true
	}
	for _, re := range t.patterns {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}

// Start launches the background soft state schedulers. Safe to skip for
// harness-driven deployments that call ForceUpdate explicitly.
func (s *Service) Start() {
	if s.cfg.FullInterval > 0 {
		s.wg.Add(1)
		go s.fullLoop()
	}
	if s.cfg.ImmediateMode {
		s.wg.Add(1)
		go s.immediateLoop()
	}
}

// Close stops the schedulers and closes every target's link.
func (s *Service) Close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.wg.Wait()
	s.mu.Lock()
	targets := s.snapshotTargetsLocked()
	s.mu.Unlock()
	for _, tg := range targets {
		tg.closeUpdater()
	}
}

// updater returns the target's link, asking dial for it until one attempt
// has succeeded. A send error never discards it: the Updater heals itself.
func (t *target) updater(ctx context.Context, dial Dialer) (Updater, error) {
	t.upMu.Lock()
	defer t.upMu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("lrc: RLI target %q is closed", t.spec.URL)
	}
	if t.up == nil {
		up, err := dial(ctx, t.spec.URL)
		if err != nil {
			return nil, err
		}
		t.up = up
	}
	return t.up, nil
}

// closeUpdater closes the target's link, if any, for good: a pass still
// holding the retired target fails instead of opening a link nobody closes.
func (t *target) closeUpdater() {
	t.upMu.Lock()
	up := t.up
	t.up, t.closed = nil, true
	t.upMu.Unlock()
	if up != nil {
		_ = up.Close()
	}
}

// URL returns the LRC's advertised address.
func (s *Service) URL() string { return s.cfg.URL }

// DB exposes the catalog database (used by the server for diagnostics).
func (s *Service) DB() *rdb.LRCDB { return s.db }

// Stats returns a snapshot of update counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// TargetStats returns per-target soft-state health snapshots, sorted by URL,
// with the target's breaker telemetry merged in.
func (s *Service) TargetStats() []TargetStats {
	s.mu.Lock()
	out := make([]TargetStats, 0, len(s.tstats))
	for url, ts := range s.tstats {
		cp := *ts
		snap := s.breakerForLocked(url).Snapshot()
		cp.State = snap.State.String()
		cp.ConsecFails = snap.ConsecFails
		cp.Probes = snap.Probes
		cp.NextProbe = snap.NextProbe
		out = append(out, cp)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// targetStatsLocked returns (creating if needed) the mutable per-target
// record. Caller holds s.mu.
func (s *Service) targetStatsLocked(url string) *TargetStats {
	ts := s.tstats[url]
	if ts == nil {
		ts = &TargetStats{URL: url}
		s.tstats[url] = ts
	}
	return ts
}

// breakerForLocked returns (creating if needed) the target's circuit
// breaker. Caller holds s.mu. Each breaker derives its jitter seed from the
// configured seed and the target url, so a fleet of targets probes
// de-synchronized even under a fixed seed.
func (s *Service) breakerForLocked(url string) *backoff.Breaker {
	br := s.breakers[url]
	if br == nil {
		h := fnv.New64a()
		_, _ = h.Write([]byte(url))
		br = backoff.NewBreaker(backoff.BreakerConfig{
			Policy:        s.cfg.Backoff,
			FailThreshold: s.cfg.FailThreshold,
			Clock:         s.clk,
			Seed:          s.cfg.BreakerSeed ^ int64(h.Sum64()),
		})
		s.breakers[url] = br
	}
	return br
}

// breakerFor is breakerForLocked with its own locking.
func (s *Service) breakerFor(url string) *backoff.Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.breakerForLocked(url)
}
