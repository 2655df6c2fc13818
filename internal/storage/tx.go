package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrTxDone is returned when using a finished transaction.
var ErrTxDone = errors.New("storage: transaction already finished")

type txOpKind uint8

const (
	txInsert txOpKind = iota
	txDelete
	txUpdate
)

// txOp is one applied mutation, kept for the WAL frame and for rollback. The
// versions are the table's own (immutable) ones, not copies.
type txOp struct {
	kind  txOpKind
	table *table
	old   *version // the version removed or replaced (txDelete, txUpdate)
	ver   *version // the version installed (txInsert, txUpdate)
}

// framePool recycles WAL frame encode buffers across commits. The frame is
// fully consumed before Commit returns — commitAppend writes it to the file
// synchronously and only the length is needed afterwards for the device
// charge — so the buffer can be recycled immediately.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// Tx is a write transaction. It holds the shared global latch plus write
// latches on the tables declared at Begin until Commit or Rollback;
// mutations are applied eagerly (reads within the transaction see them) and
// logged for rollback. Commit publishes a new immutable version of every
// touched table before releasing the latches, so a Snapshot taken after
// Commit returns always observes the transaction.
type Tx struct {
	e       *Engine
	tables  map[string]*table // declared (write-latched) tables by name
	latched []*table
	ops     []txOp
	done    bool
}

func (tx *Tx) table(name string) (*table, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	t, ok := tx.tables[name]
	if !ok {
		// Holding the shared global latch makes reading the table map safe:
		// it only changes under the exclusive global latch.
		if _, exists := tx.e.tables[name]; exists {
			return nil, fmt.Errorf("%w: %s", ErrTableNotDeclared, name)
		}
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

func (tx *Tx) index(name, indexName string) (*table, *index, error) {
	t, err := tx.table(name)
	if err != nil {
		return nil, nil, err
	}
	ix, ok := t.byName[indexName]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s.%s", ErrNoSuchIndex, name, indexName)
	}
	return t, ix, nil
}

// release drops the table latches and the shared global latch.
func (tx *Tx) release() {
	unlockTables(tx.latched)
	tx.e.global.RUnlock()
}

// Insert adds a row, returning its rowid.
func (tx *Tx) Insert(tableName string, row Row) (int64, error) {
	t, err := tx.table(tableName)
	if err != nil {
		return 0, err
	}
	ver, err := t.insertLocked(row, 0)
	if err != nil {
		return 0, err
	}
	tx.ops = append(tx.ops, txOp{kind: txInsert, table: t, ver: ver})
	return ver.rowid, nil
}

// Update replaces the live row with the given rowid by row — an SQL UPDATE of
// any subset of its columns; it reports whether a live row had that id.
//
// Under PersonalityMySQL the row keeps its rowid and is replaced in place:
// only the index entries whose key changed move, only unique indexes whose
// key changed are probed, and the log carries one insert record with the
// existing rowid (replay overwrites by rowid). Under PersonalityPostgres the
// old version stays behind as a tombstone until Vacuum and the new one is
// inserted under a fresh rowid, as an UPDATE does in PostgreSQL.
func (tx *Tx) Update(tableName string, rowid int64, row Row) (bool, error) {
	t, err := tx.table(tableName)
	if err != nil {
		return false, err
	}
	if tx.e.opts.Personality == PersonalityPostgres {
		if err := t.checkRow(row); err != nil {
			return false, err
		}
		old, ok := t.deleteLocked(rowid, PersonalityPostgres)
		if !ok {
			return false, nil
		}
		ver, err := t.insertLocked(row, 0)
		if err != nil {
			t.undeleteLocked(old)
			return false, err
		}
		tx.ops = append(tx.ops,
			txOp{kind: txDelete, table: t, old: old},
			txOp{kind: txInsert, table: t, ver: ver})
		return true, nil
	}
	old, ver, err := t.updateLocked(rowid, row)
	if err != nil || old == nil {
		return false, err
	}
	tx.ops = append(tx.ops, txOp{kind: txUpdate, table: t, old: old, ver: ver})
	return true, nil
}

// Delete removes the row with the given rowid; it reports whether a live row
// was removed.
func (tx *Tx) Delete(tableName string, rowid int64) (bool, error) {
	t, err := tx.table(tableName)
	if err != nil {
		return false, err
	}
	old, ok := t.deleteLocked(rowid, tx.e.opts.Personality)
	if !ok {
		return false, nil
	}
	tx.ops = append(tx.ops, txOp{kind: txDelete, table: t, old: old})
	return true, nil
}

// Lookup returns live rows whose indexed columns equal vals.
func (tx *Tx) Lookup(tableName, indexName string, vals ...Value) ([]Row, error) {
	t, ix, err := tx.index(tableName, indexName)
	if err != nil {
		return nil, err
	}
	return t.mutView().lookup(ix, vals), nil
}

// LookupIDs returns live rowids and rows whose indexed columns equal vals.
func (tx *Tx) LookupIDs(tableName, indexName string, vals ...Value) ([]int64, []Row, error) {
	t, ix, err := tx.index(tableName, indexName)
	if err != nil {
		return nil, nil, err
	}
	ids, rows := t.mutView().lookupIDs(ix, vals)
	return ids, rows, nil
}

// ScanPrefix iterates live rows whose index key begins with the given
// values.
func (tx *Tx) ScanPrefix(tableName, indexName string, prefix []Value, fn func(rowid int64, row Row) bool) error {
	t, ix, err := tx.index(tableName, indexName)
	if err != nil {
		return err
	}
	t.mutView().scanPrefix(ix, prefix, fn)
	return nil
}

// Commit durably applies the transaction per the engine flush policy and
// releases the latches. The WAL append happens while the table latches are
// still held — that keeps the log's order consistent with the commit order
// on every table (replay correctness) — and so does the version publish, so
// snapshot visibility follows commit order too. The device charges (write
// cost and, under FlushOnCommit, the group-commit sync wait) are paid after
// release, so they serialize on the device queue rather than on the tables.
func (tx *Tx) Commit() error {
	return tx.CommitCtx(context.Background())
}

// CommitCtx is Commit with a bounded durability wait: a committer whose
// context expires while waiting on its group-commit leader's sync gets
// ctx.Err() back instead of blocking — never a false success, because its
// durability was not confirmed. The mutation itself is already logged and
// applied (it rides the leader's sync like any batch member); only the
// confirmation is abandoned.
func (tx *Tx) CommitCtx(ctx context.Context) error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	if len(tx.ops) == 0 {
		tx.release()
		return nil
	}
	bp := framePool.Get().(*[]byte)
	frame := (*bp)[:0]
	for _, op := range tx.ops {
		switch op.kind {
		case txInsert, txUpdate:
			frame = appendWALRecord(frame, walRecord{kind: recInsert, tableID: op.table.id, rowid: op.ver.rowid, row: op.ver.row})
		case txDelete:
			frame = appendWALRecord(frame, walRecord{kind: recDelete, tableID: op.table.id, rowid: op.old.rowid})
		}
	}
	frame = appendWALRecord(frame, walRecord{kind: recCommit})
	n := len(frame)
	wait, err := tx.e.wal.commitAppend(frame, tx.e.flushOnCommit.Load())
	*bp = frame
	framePool.Put(bp)
	// Publish a new immutable version of every touched table while the write
	// latches are still held: per-table publish order matches commit order,
	// and live state never diverges from the published state — even when the
	// WAL append failed, the in-memory mutation is already applied.
	updates := make(map[string]tview, len(tx.tables))
	for _, op := range tx.ops {
		name := op.table.schema.Name
		if _, done := updates[name]; !done {
			updates[name] = op.table.cloneView()
		}
	}
	tx.e.publish(updates)
	tx.release()
	if err != nil {
		return err
	}
	tx.e.opts.Device.Write(n)
	if wait != nil {
		return wait(ctx)
	}
	return nil
}

// Rollback undoes the transaction and releases the latches. Nothing is
// published: the reversed mutations were never visible outside the
// transaction.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	defer tx.release()
	for i := len(tx.ops) - 1; i >= 0; i-- {
		op := tx.ops[i]
		switch op.kind {
		case txInsert:
			op.table.unsetVersionLocked(op.ver)
		case txDelete:
			op.table.undeleteLocked(op.old)
		case txUpdate:
			op.table.swapVersionLocked(op.ver, op.old)
		}
	}
	return nil
}

// Reader is the read-only accessor passed to Engine.SnapshotView and
// embedded in Snap: it sees every table of one frozen published version and
// holds no latches at all.
type Reader struct {
	views map[string]tview
}

func (r *Reader) view(name string) (tview, error) {
	v, ok := r.views[name]
	if !ok {
		return tview{}, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return v, nil
}

func (r *Reader) index(name, indexName string) (tview, *index, error) {
	v, err := r.view(name)
	if err != nil {
		return tview{}, nil, err
	}
	ix, ok := v.t.byName[indexName]
	if !ok {
		return tview{}, nil, fmt.Errorf("%w: %s.%s", ErrNoSuchIndex, name, indexName)
	}
	return v, ix, nil
}

// Lookup returns live rows whose indexed columns equal vals. Rows are cloned
// only on demand by callers; the slice contents must not be mutated.
func (r *Reader) Lookup(tableName, indexName string, vals ...Value) ([]Row, error) {
	v, ix, err := r.index(tableName, indexName)
	if err != nil {
		return nil, err
	}
	return v.lookup(ix, vals), nil
}

// LookupIDs returns live rowids and rows whose indexed columns equal vals.
func (r *Reader) LookupIDs(tableName, indexName string, vals ...Value) ([]int64, []Row, error) {
	v, ix, err := r.index(tableName, indexName)
	if err != nil {
		return nil, nil, err
	}
	ids, rows := v.lookupIDs(ix, vals)
	return ids, rows, nil
}

// ScanPrefix iterates live rows whose index key begins with the given values.
func (r *Reader) ScanPrefix(tableName, indexName string, prefix []Value, fn func(rowid int64, row Row) bool) error {
	v, ix, err := r.index(tableName, indexName)
	if err != nil {
		return err
	}
	v.scanPrefix(ix, prefix, fn)
	return nil
}

// ScanStringPrefix iterates live rows of a string-keyed index whose first
// column starts with prefix — the access path for wildcard queries.
func (r *Reader) ScanStringPrefix(tableName, indexName, prefix string, fn func(rowid int64, row Row) bool) error {
	v, ix, err := r.index(tableName, indexName)
	if err != nil {
		return err
	}
	v.scanStringPrefix(ix, prefix, fn)
	return nil
}

// ScanStringAfter iterates live rows of a string-keyed index whose first
// column is strictly greater than after, in lexical order.
func (r *Reader) ScanStringAfter(tableName, indexName, after string, fn func(rowid int64, row Row) bool) error {
	v, ix, err := r.index(tableName, indexName)
	if err != nil {
		return err
	}
	v.scanStringAfter(ix, after, fn)
	return nil
}

// Count returns the number of live rows in the table.
func (r *Reader) Count(tableName string) (int64, error) {
	v, err := r.view(tableName)
	if err != nil {
		return 0, err
	}
	return v.liveCount(), nil
}
