// Package snapgood exercises the snapshot read path latchcheck must leave
// alone: Engine.Snapshot()/SnapshotView readers are latch-free and see
// every table, so dynamic table names, escaping snapshot handles, and
// helpers that receive the reader are all fine — there is no declared set
// to prove. None of these may produce a diagnostic.
package snapgood

import "fix/latchdb"

const tLFN = "t_lfn"

// Dynamic table names through a pinned snapshot: exempt.
func dynamicNames(e *latchdb.Engine, tables []string) error {
	snap, err := e.Snapshot()
	if err != nil {
		return err
	}
	defer snap.Close()
	for _, t := range tables {
		if _, err := snap.Count(t); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotView callback with a runtime-chosen table name: exempt.
func viewDynamic(e *latchdb.Engine, table string) error {
	return e.SnapshotView(func(r *latchdb.Reader) error {
		_, err := r.Lookup(table, "primary", 1)
		return err
	})
}

// The snapshot handle escaping into a struct and helpers: exempt — there
// is no declared-set invariant a snapshot can violate.
type cursor struct {
	snap *latchdb.Snap
}

func openCursor(e *latchdb.Engine) (*cursor, error) {
	snap, err := e.Snapshot()
	if err != nil {
		return nil, err
	}
	return &cursor{snap: snap}, nil
}

func (c *cursor) count() (int, error) { return c.snap.Count(tLFN) }

func (c *cursor) close() { c.snap.Close() }

// A snapshot reader passed through a helper chain: exempt.
func viaHelper(e *latchdb.Engine) error {
	return e.SnapshotView(func(r *latchdb.Reader) error {
		return countAll(r, []string{tLFN, "t_" + tLFN})
	})
}

func countAll(r *latchdb.Reader, tables []string) error {
	for _, t := range tables {
		if _, err := r.Count(t); err != nil {
			return err
		}
	}
	return nil
}

// A latched write and a latch-free read side by side: the transaction is
// still proven (and clean), the snapshot beside it is ignored.
func mixedClean(e *latchdb.Engine) error {
	tx, err := e.Begin(tLFN)
	if err != nil {
		return err
	}
	if _, err := tx.Lookup(tLFN, "primary", 1); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	return e.SnapshotView(func(r *latchdb.Reader) error {
		_, err := r.Count("picked_at_runtime")
		return err
	})
}
