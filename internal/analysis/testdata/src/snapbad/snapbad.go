// Package snapbad proves the snapshot exemption does not blunt the
// checker: snapshot reads sit right next to Begin violations, and
// latchcheck must still report every latched-path violation while staying
// silent about the snapshots.
package snapbad

import "fix/latchdb"

const (
	tLFN = "t_lfn"
	tPFN = "t_pfn"
)

// A clean snapshot read followed by a Begin-declared transaction touching
// a table outside its declared set: only the latter is reported.
func snapshotThenUndeclaredWrite(e *latchdb.Engine) error {
	if err := e.SnapshotView(func(r *latchdb.Reader) error {
		_, err := r.Count(tPFN)
		return err
	}); err != nil {
		return err
	}
	tx, err := e.Begin(tLFN)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if _, err := tx.Insert(tPFN, nil); err != nil { // want "undeclared table"
		return err
	}
	return tx.Commit()
}

// A pinned snapshot with dynamic names (fine) beside a transaction that
// reads outside its declared set (reported).
func snapshotBesideBadRead(e *latchdb.Engine, table string) error {
	snap, err := e.Snapshot()
	if err != nil {
		return err
	}
	defer snap.Close()
	if _, err := snap.Count(table); err != nil {
		return err
	}
	tx, err := e.Begin(tLFN)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	_, err = tx.Lookup(tPFN, "primary", 1) // want "undeclared table"
	return err
}
