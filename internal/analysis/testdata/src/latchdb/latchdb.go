// Package latchdb is a miniature mirror of the storage engine's latching
// API, just enough surface for latchcheck fixtures: Begin declares a write
// set and the Tx/Reader access methods take the table name first.
package latchdb

type Row []int

type Engine struct{}

func (e *Engine) Begin(tables ...string) (*Tx, error) { return &Tx{}, nil }

// Snapshot and SnapshotView mirror the MVCC read path: a latch-free pinned
// view of every table, with no declared set to prove.
func (e *Engine) Snapshot() (*Snap, error) { return &Snap{}, nil }

func (e *Engine) SnapshotView(fn func(r *Reader) error) error {
	s, err := e.Snapshot()
	if err != nil {
		return err
	}
	defer s.Close()
	return fn(&s.Reader)
}

type Snap struct {
	Reader
}

func (s *Snap) Epoch() uint64 { return 0 }
func (s *Snap) Close()        {}

type Tx struct{}

func (tx *Tx) Insert(table string, row Row) (int64, error)            { return 0, nil }
func (tx *Tx) Delete(table string, id int64) (bool, error)            { return false, nil }
func (tx *Tx) Update(table string, id int64, row Row) (bool, error)   { return false, nil }
func (tx *Tx) Lookup(table, index string, keys ...int) ([]Row, error) { return nil, nil }
func (tx *Tx) Commit() error                                          { return nil }
func (tx *Tx) Rollback() error                                        { return nil }

type Reader struct{}

func (r *Reader) Lookup(table, index string, keys ...int) ([]Row, error)     { return nil, nil }
func (r *Reader) ScanPrefix(table, index string, keys ...int) ([]Row, error) { return nil, nil }
func (r *Reader) Count(table string) (int, error)                            { return 0, nil }
