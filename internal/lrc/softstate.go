package lrc

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bloom"
)

// noteLogicalAdded records a new logical name: it enters the Bloom filter
// immediately (cheap incremental maintenance) and the incremental-update
// buffer when immediate mode is on.
func (s *Service) noteLogicalAdded(ctx context.Context, name string) {
	s.mu.Lock()
	s.filter.Add(name)
	s.maybeGrowFilterLocked()
	trigger := false
	if s.cfg.ImmediateMode {
		s.pending.added = append(s.pending.added, name)
		trigger = s.pendingCountLocked() >= s.cfg.ImmediateThreshold
	}
	s.mu.Unlock()
	if trigger {
		s.flushIncremental(ctx)
	}
}

// noteLogicalRemoved records an unregistered logical name.
func (s *Service) noteLogicalRemoved(ctx context.Context, name string) {
	s.mu.Lock()
	s.filter.Remove(name)
	trigger := false
	if s.cfg.ImmediateMode {
		s.pending.removed = append(s.pending.removed, name)
		trigger = s.pendingCountLocked() >= s.cfg.ImmediateThreshold
	}
	s.mu.Unlock()
	if trigger {
		s.flushIncremental(ctx)
	}
}

func (s *Service) pendingCountLocked() int {
	return len(s.pending.added) + len(s.pending.removed)
}

// namesCursor is the page-scan surface maybeGrowFilterLocked needs from the
// catalog. *rdb.NamesCursor satisfies it; tests substitute a cursor that
// fails mid-scan to pin the bail-out-on-error contract.
type namesCursor interface {
	Next(limit int) ([]string, error)
	Close()
}

// maybeGrowFilterLocked rebuilds the Bloom filter at double capacity when
// the live name count outgrows its design point, keeping the false-positive
// rate near the paper's ~1%.
func (s *Service) maybeGrowFilterLocked() {
	capacity := s.filter.MBits() / bloom.DefaultBitsPerEntry
	if s.filter.Len()*5 <= capacity*6 { // grow once 20% over the design point
		return
	}
	fresh := bloom.New(int(s.filter.Len()) * 2)
	// Rebuild from a pinned snapshot cursor: it takes no engine latch, so
	// holding s.mu here cannot deadlock against writers, and every page comes
	// from one consistent name universe. This is rare (amortized by
	// doubling).
	cur, err := s.openCursor()
	if err != nil {
		return
	}
	defer cur.Close()
	for {
		page, err := cur.Next(s.cfg.FullBatch)
		if err != nil {
			// A mid-scan error leaves fresh missing an unknown suffix of the
			// catalog; installing it would turn those names into Bloom false
			// negatives, violating the no-false-negative contract. Keep the
			// current (oversubscribed but complete) filter — the next add
			// retries the rebuild.
			return
		}
		if len(page) == 0 {
			break
		}
		for _, n := range page {
			fresh.Add(n)
		}
	}
	s.filter = fresh
}

// fullLoop periodically pushes full (or Bloom) updates so RLI soft state is
// refreshed before it times out. Background sends are unbounded by design —
// only service shutdown stops them.
func (s *Service) fullLoop() {
	defer s.wg.Done()
	t := s.clk.NewTicker(s.cfg.FullInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C():
			s.ForceUpdate(context.Background())
		}
	}
}

// immediateLoop flushes the incremental buffer every ImmediateInterval.
func (s *Service) immediateLoop() {
	defer s.wg.Done()
	t := s.clk.NewTicker(s.cfg.ImmediateInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C():
			s.flushIncremental(context.Background())
		}
	}
}

// flushIncremental sends buffered adds/removes to every non-Bloom target;
// Bloom targets receive a fresh bitmap, which is the compressed equivalent
// of a full refresh and just as cheap to produce.
// If any incremental send fails (RLI down, network fault, cancelled
// context), the deltas are re-queued for the next flush. Duplicated delivery
// to targets that did succeed is harmless: RLI upserts and removals are
// idempotent, and the periodic full updates repair any divergence
// regardless — the soft state contract.
func (s *Service) flushIncremental(ctx context.Context) {
	s.mu.Lock()
	added, removed := s.pending.added, s.pending.removed
	s.pending = pendingChanges{}
	targets := s.snapshotTargetsLocked()
	s.mu.Unlock()
	if len(added) == 0 && len(removed) == 0 {
		return
	}
	failed := false
	for _, tg := range targets {
		if !s.breakerFor(tg.spec.URL).Allow() {
			// Quarantined target: skip the send entirely. Non-Bloom deltas
			// are re-queued so the target catches up once it recovers (the
			// periodic full update repairs any divergence regardless).
			s.mu.Lock()
			ts := s.targetStatsLocked(tg.spec.URL)
			ts.Skipped++
			if !tg.spec.Bloom {
				failed = true
				ts.Requeued += int64(len(added) + len(removed))
			}
			s.mu.Unlock()
			continue
		}
		if tg.spec.Bloom {
			s.sendBloomTo(ctx, tg)
			continue
		}
		if res := s.sendIncrementalTo(ctx, tg, added, removed); res.Err != nil {
			failed = true
			s.mu.Lock()
			s.targetStatsLocked(tg.spec.URL).Requeued += int64(len(added) + len(removed))
			s.mu.Unlock()
		}
	}
	if failed {
		s.mu.Lock()
		// Prepend so ordering is preserved relative to changes recorded
		// while the flush was in flight.
		s.pending.added = append(added, s.pending.added...)
		s.pending.removed = append(removed, s.pending.removed...)
		s.mu.Unlock()
	}
}

// recordTargetLocked folds one send outcome into the per-target telemetry
// and the target's circuit breaker. Caller holds s.mu.
func (s *Service) recordTargetLocked(res TargetResult) {
	ts := s.targetStatsLocked(res.URL)
	br := s.breakerForLocked(res.URL)
	if res.Err != nil {
		ts.Failed++
		br.OnFailure()
		return
	}
	ts.Sent++
	ts.NamesSent += int64(res.Names)
	ts.BytesSent += int64(res.Bytes)
	ts.LastSuccess = s.clk.Now()
	br.OnSuccess()
}

func (s *Service) snapshotTargetsLocked() []*target {
	out := make([]*target, 0, len(s.targets))
	for _, tg := range s.targets {
		out = append(out, tg)
	}
	return out
}

// TargetResult reports the outcome of one soft state update to one RLI.
type TargetResult struct {
	URL     string
	Kind    string // "full", "bloom" or "incremental"
	Names   int    // logical names carried (full/incremental)
	Bytes   int    // payload bytes (bloom)
	Elapsed time.Duration
	Err     error
	// Skipped marks a send suppressed by the target's circuit breaker (the
	// target is quarantined and its next probe is not yet due). No dial was
	// attempted; Err is nil.
	Skipped bool
}

// ForceUpdate pushes a soft state update to every configured RLI target
// now — a full uncompressed update or a Bloom filter update per target
// flavour — and reports per-target outcomes. This is the operation whose
// latency §5.4 (Figure 12) and §5.5 (Table 3, Figure 13) measure "from the
// LRC's perspective". The context bounds the whole pass; a target that
// fails with ctx.Err() reports it in its TargetResult and later targets
// fail fast.
func (s *Service) ForceUpdate(ctx context.Context) []TargetResult {
	s.mu.Lock()
	targets := s.snapshotTargetsLocked()
	s.mu.Unlock()
	out := make([]TargetResult, 0, len(targets))
	for _, tg := range targets {
		kind := "full"
		if tg.spec.Bloom {
			kind = "bloom"
		}
		// Ask the breaker first: a quarantined target is skipped without a
		// dial until its next half-open probe is due, so a dead RLI costs
		// one bounded probe per backoff interval instead of a redial every
		// round.
		if !s.breakerFor(tg.spec.URL).Allow() {
			s.mu.Lock()
			s.targetStatsLocked(tg.spec.URL).Skipped++
			s.mu.Unlock()
			out = append(out, TargetResult{URL: tg.spec.URL, Kind: kind, Skipped: true})
			continue
		}
		if tg.spec.Bloom {
			out = append(out, s.sendBloomTo(ctx, tg))
		} else {
			out = append(out, s.sendFullTo(ctx, tg))
		}
	}
	return out
}

// ForceUpdateTo pushes an update to a single RLI target by url. Unlike the
// scheduled passes it does not consult the target's breaker — an explicit
// targeted push is an operator-initiated probe — but its outcome still feeds
// the breaker, so a success restores a quarantined target immediately.
func (s *Service) ForceUpdateTo(ctx context.Context, url string) (TargetResult, error) {
	s.mu.Lock()
	tg, ok := s.targets[url]
	s.mu.Unlock()
	if !ok {
		return TargetResult{}, fmt.Errorf("lrc: no RLI target %q", url)
	}
	if tg.spec.Bloom {
		return s.sendBloomTo(ctx, tg), nil
	}
	return s.sendFullTo(ctx, tg), nil
}

// sendFullTo streams an uncompressed full update: every logical name in the
// catalog (restricted to the target's partition) in batches. When
// Config.UpdateWindow > 1 and the connection supports asynchronous batches,
// up to UpdateWindow batches stay in flight at once, overlapping their
// round trips; acknowledgements are settled in FIFO order and all of them
// before SSFullEnd, so the end marker never overtakes a batch.
func (s *Service) sendFullTo(ctx context.Context, tg *target) (res TargetResult) {
	res = TargetResult{URL: tg.spec.URL, Kind: "full"}
	start := s.clk.Now()
	defer func() {
		res.Elapsed = s.clk.Now().Sub(start)
		s.mu.Lock()
		if res.Err != nil {
			s.stats.UpdateErrors++
		} else {
			s.stats.FullUpdates++
			s.stats.NamesSent += int64(res.Names)
		}
		s.recordTargetLocked(res)
		s.mu.Unlock()
	}()

	// One pinned snapshot cursor supplies both the advertised total and the
	// pages, so SSFullStart's count matches exactly the names streamed even
	// while writers churn the catalog underneath.
	cur, err := s.db.OpenNamesCursor()
	if err != nil {
		res.Err = err
		return res
	}
	defer cur.Close()
	logicals, err := cur.Count()
	if err != nil {
		res.Err = err
		return res
	}
	up, err := tg.updater(ctx, s.cfg.Dial)
	if err != nil {
		res.Err = err
		return res
	}
	// The advertised total lets the RLI detect truncated streams at FullEnd.
	// For partitioned targets only a subset of the catalog is streamed and
	// the subset size is unknown until the scan completes, so advertise 0
	// ("unknown") and forgo the check rather than promise a count the stream
	// will legitimately undershoot.
	total := uint64(logicals)
	if len(tg.patterns) > 0 {
		total = 0
	}
	if err := up.SSFullStart(ctx, s.cfg.URL, total); err != nil {
		res.Err = err
		return res
	}
	// Window of outstanding batch acknowledgements, settled oldest-first.
	window := 1
	starter, async := up.(batchStarter)
	if async && s.cfg.UpdateWindow > 1 {
		window = s.cfg.UpdateWindow
	}
	var acks []func(context.Context) error
	defer func() {
		if res.Err == nil {
			return
		}
		// The link outlives this pass, so nothing else will free what a
		// failed stream left on it: settle every outstanding ack against an
		// already-cancelled context (the client forgets the call and releases
		// its in-flight slot), then discard the RLI's half-open session.
		dead, cancel := context.WithCancel(ctx)
		cancel()
		for _, ack := range acks {
			_ = ack(dead)
		}
		s.abortFull(ctx, up)
	}()
	waitOldest := func() error {
		ack := acks[0]
		acks = acks[1:]
		return ack(ctx)
	}
	for {
		page, err := cur.Next(s.cfg.FullBatch)
		if err != nil {
			res.Err = err
			return res
		}
		if len(page) == 0 {
			break
		}
		batch := page
		if len(tg.patterns) > 0 {
			batch = batch[:0:0]
			for _, n := range page {
				if tg.matches(n) {
					batch = append(batch, n)
				}
			}
		}
		if len(batch) == 0 {
			continue
		}
		if window > 1 {
			for len(acks) >= window {
				if err := waitOldest(); err != nil {
					res.Err = err
					return res
				}
			}
			ack, err := starter.SSFullBatchStart(ctx, s.cfg.URL, batch)
			if err != nil {
				res.Err = err
				return res
			}
			acks = append(acks, ack)
		} else {
			if err := up.SSFullBatch(ctx, s.cfg.URL, batch); err != nil {
				res.Err = err
				return res
			}
		}
		res.Names += len(batch)
	}
	for len(acks) > 0 {
		if err := waitOldest(); err != nil {
			res.Err = err
			return res
		}
	}
	res.Err = up.SSFullEnd(ctx, s.cfg.URL)
	return res
}

// abortFull best-effort tells the RLI to discard the half-open session a
// full update that failed after SSFullStart left behind, instead of waiting
// for server-side expiry. The abort may itself fail — the connection that
// broke the stream is often the one carrying the abort — and that is fine:
// the RLI's session expiry is the backstop. A detached, bounded context is
// used because the pass's context may be the very thing that was cancelled.
func (s *Service) abortFull(ctx context.Context, up Updater) {
	abctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
	defer cancel()
	_ = up.SSFullAbort(abctx, s.cfg.URL)
}

// sendBloomTo sends the Bloom filter summarizing the catalog. For
// partitioned targets a dedicated filter over the matching names is built;
// unpartitioned targets reuse the incrementally maintained filter, so the
// update cost is serialization plus transmission (Table 3's second column),
// not recomputation (its third).
func (s *Service) sendBloomTo(ctx context.Context, tg *target) (res TargetResult) {
	res = TargetResult{URL: tg.spec.URL, Kind: "bloom"}
	start := s.clk.Now()
	defer func() {
		res.Elapsed = s.clk.Now().Sub(start)
		s.mu.Lock()
		if res.Err != nil {
			s.stats.UpdateErrors++
		} else {
			s.stats.BloomUpdates++
		}
		s.recordTargetLocked(res)
		s.mu.Unlock()
	}()

	var payload []byte
	if len(tg.patterns) == 0 {
		s.mu.Lock()
		bm := s.filter.Bitmap()
		s.mu.Unlock()
		data, err := bm.MarshalBinary()
		if err != nil {
			res.Err = err
			return res
		}
		payload = data
	} else {
		data, err := s.buildPartitionBitmap(tg)
		if err != nil {
			res.Err = err
			return res
		}
		payload = data
	}
	res.Bytes = len(payload)
	up, err := tg.updater(ctx, s.cfg.Dial)
	if err != nil {
		res.Err = err
		return res
	}
	res.Err = up.SSBloom(ctx, s.cfg.URL, payload)
	return res
}

func (s *Service) buildPartitionBitmap(tg *target) ([]byte, error) {
	cur, err := s.db.OpenNamesCursor()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	logicals, err := cur.Count()
	if err != nil {
		return nil, err
	}
	f := bloom.New(int(logicals))
	for {
		page, err := cur.Next(s.cfg.FullBatch)
		if err != nil {
			return nil, err
		}
		if len(page) == 0 {
			break
		}
		for _, n := range page {
			if tg.matches(n) {
				f.Add(n)
			}
		}
	}
	return f.Bitmap().MarshalBinary()
}

// sendIncrementalTo sends the buffered deltas restricted to the target's
// partition.
func (s *Service) sendIncrementalTo(ctx context.Context, tg *target, added, removed []string) (res TargetResult) {
	res = TargetResult{URL: tg.spec.URL, Kind: "incremental"}
	start := s.clk.Now()
	defer func() {
		res.Elapsed = s.clk.Now().Sub(start)
		s.mu.Lock()
		if res.Err != nil {
			s.stats.UpdateErrors++
		} else {
			s.stats.IncrementalUpdates++
			s.stats.NamesSent += int64(res.Names)
		}
		s.recordTargetLocked(res)
		s.mu.Unlock()
	}()

	if len(tg.patterns) > 0 {
		added = filterNames(added, tg)
		removed = filterNames(removed, tg)
	}
	if len(added) == 0 && len(removed) == 0 {
		return res
	}
	res.Names = len(added) + len(removed)
	up, err := tg.updater(ctx, s.cfg.Dial)
	if err != nil {
		res.Err = err
		return res
	}
	res.Err = up.SSIncremental(ctx, s.cfg.URL, added, removed)
	return res
}

func filterNames(names []string, tg *target) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		if tg.matches(n) {
			out = append(out, n)
		}
	}
	return out
}

// FilterSnapshot returns the serialized current Bloom filter (for the
// harness's Table 3 size column).
func (s *Service) FilterSnapshot() ([]byte, error) {
	s.mu.Lock()
	bm := s.filter.Bitmap()
	s.mu.Unlock()
	return bm.MarshalBinary()
}

// RebuildFilter recomputes the Bloom filter from scratch — the "one-time
// cost" column of Table 3. It returns the build duration.
func (s *Service) RebuildFilter(ctx context.Context) (time.Duration, error) {
	cur, err := s.db.OpenNamesCursor()
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	logicals, err := cur.Count()
	if err != nil {
		return 0, err
	}
	start := s.clk.Now()
	fresh := bloom.New(int(logicals))
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		page, err := cur.Next(s.cfg.FullBatch)
		if err != nil {
			return 0, err
		}
		if len(page) == 0 {
			break
		}
		for _, n := range page {
			fresh.Add(n)
		}
	}
	elapsed := s.clk.Now().Sub(start)
	s.mu.Lock()
	s.filter = fresh
	s.mu.Unlock()
	return elapsed, nil
}

// PendingCount reports buffered incremental changes (for tests and stats).
func (s *Service) PendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingCountLocked()
}
