package storage

import (
	"time"
)

// MVCC snapshot reads.
//
// Every committed transaction publishes an immutable engineVersion: a map
// from table name to a frozen tview (copy-on-write clones of the table's heap
// and index trees, see table.cloneView). The engine's `current` pointer is
// swapped atomically, so Snapshot() is latch-free: it loads the pointer, pins
// the epoch, and reads shared immutable trees while writers keep committing.
//
// Version retirement is the epoch/refcount scheme: pins maps epoch ->
// (refcount, publish time). A published version stays reachable only through
// `current` or through pinned Snaps; when Snap.Close drops the last pin on an
// old epoch the version's trees become garbage and the runtime reclaims them.
// Vacuum and Checkpoint never touch pinned versions — Vacuum prunes
// tombstones from the live trees only (every pinned snapshot keeps the
// tombstones it froze), and Checkpoint serializes a pinned version to disk
// while writers proceed.

// engineVersion is one published, immutable cross-table version. The tables
// map and every tview in it are frozen at publish time.
type engineVersion struct {
	epoch  uint64
	taken  time.Time
	tables map[string]tview
}

// pinEntry tracks one pinned epoch.
type pinEntry struct {
	refs  int
	taken time.Time
}

// publish installs a new engine version that overlays updates onto the
// current table map. Callers hold the write latch of every table in updates
// (or the exclusive global latch), which orders publishes per table; pubMu
// orders the epoch counter across disjoint-table committers.
func (e *Engine) publish(updates map[string]tview) {
	e.pubMu.Lock()
	cur := e.current.Load()
	next := &engineVersion{
		epoch:  cur.epoch + 1,
		taken:  e.opts.Clock.Now(),
		tables: make(map[string]tview, len(cur.tables)+len(updates)),
	}
	for name, v := range cur.tables {
		next.tables[name] = v
	}
	for name, v := range updates {
		next.tables[name] = v
	}
	e.current.Store(next)
	e.pubMu.Unlock()
	e.versionsPublished.Add(1)
}

// publishAllLocked publishes a version covering every table. Caller holds the
// exclusive global latch (or is still single-threaded during Open).
func (e *Engine) publishAllLocked() {
	updates := make(map[string]tview, len(e.tables))
	for name, t := range e.tables {
		updates[name] = t.cloneView()
	}
	e.publish(updates)
}

// Snap is a latch-free read-only view of the last committed state at the time
// Snapshot was called. It embeds a Reader over immutable data, so every
// Reader method works unchanged; concurrent commits, Vacuum and Checkpoint
// never alter what it observes. Close unpins the epoch; a Snap holds no locks,
// so forgetting Close only delays memory reclamation, never blocks writers.
type Snap struct {
	Reader
	e      *Engine
	epoch  uint64
	closed bool
}

// Snapshot pins the last committed version and returns a latch-free reader
// over it. The caller must Close the snapshot when done.
func (e *Engine) Snapshot() (*Snap, error) {
	if e.closedFlag.Load() {
		return nil, ErrClosed
	}
	e.pinMu.Lock()
	ev := e.current.Load()
	pe := e.pins[ev.epoch]
	pe.refs++
	pe.taken = ev.taken
	e.pins[ev.epoch] = pe
	e.pinMu.Unlock()
	e.snapshotsTaken.Add(1)
	return &Snap{
		Reader: Reader{views: ev.tables},
		e:      e,
		epoch:  ev.epoch,
	}, nil
}

// pinVersion pins an already-loaded version (Checkpoint's capture path).
func (e *Engine) pinVersion(ev *engineVersion) {
	e.pinMu.Lock()
	pe := e.pins[ev.epoch]
	pe.refs++
	pe.taken = ev.taken
	e.pins[ev.epoch] = pe
	e.pinMu.Unlock()
}

// unpin releases one reference on an epoch.
func (e *Engine) unpin(epoch uint64) {
	e.pinMu.Lock()
	if pe, ok := e.pins[epoch]; ok {
		pe.refs--
		if pe.refs <= 0 {
			delete(e.pins, epoch)
		} else {
			e.pins[epoch] = pe
		}
	}
	e.pinMu.Unlock()
}

// Epoch reports which committed version the snapshot is pinned to.
func (s *Snap) Epoch() uint64 { return s.epoch }

// Close unpins the snapshot. Safe to call more than once.
func (s *Snap) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.e.unpin(s.epoch)
}

// SnapshotView runs fn with a latch-free reader over the last committed
// version. fn may touch any table; it observes the frozen version regardless
// of concurrent commits.
func (e *Engine) SnapshotView(fn func(r *Reader) error) error {
	s, err := e.Snapshot()
	if err != nil {
		return err
	}
	defer s.Close()
	return fn(&s.Reader)
}

// SnapshotStats describes the MVCC version state: the published epoch, how
// many snapshots were taken and versions published since open, and the pinned
// set that bounds version retirement.
type SnapshotStats struct {
	// Epoch is the current published version's epoch.
	Epoch uint64
	// Taken counts Snapshot() calls since the engine opened.
	Taken int64
	// Published counts version publishes (one per committed write
	// transaction, DDL, or vacuum) since the engine opened.
	Published int64
	// Pinned is the number of currently open snapshot pins.
	Pinned int64
	// OldestPinned is the lowest pinned epoch, or 0 when nothing is pinned.
	// Versions older than it are unreachable and retired by the runtime.
	OldestPinned uint64
	// OldestPinAgeNS is the age of the oldest pinned version (time since it
	// was published), or 0 when nothing is pinned — the snapshot-age gauge.
	OldestPinAgeNS int64
}

// snapshotStats assembles the gauge set. Latch-free.
func (e *Engine) snapshotStats() SnapshotStats {
	st := SnapshotStats{
		Taken:     e.snapshotsTaken.Load(),
		Published: e.versionsPublished.Load(),
	}
	if cur := e.current.Load(); cur != nil {
		st.Epoch = cur.epoch
	}
	now := e.opts.Clock.Now()
	e.pinMu.Lock()
	for epoch, pe := range e.pins {
		st.Pinned += int64(pe.refs)
		if st.OldestPinned == 0 || epoch < st.OldestPinned {
			st.OldestPinned = epoch
			st.OldestPinAgeNS = now.Sub(pe.taken).Nanoseconds()
		}
	}
	e.pinMu.Unlock()
	if st.OldestPinAgeNS < 0 {
		st.OldestPinAgeNS = 0
	}
	return st
}
