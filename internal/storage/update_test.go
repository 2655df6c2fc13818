package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// updSchema has two unique indexes (one an update may change, one it never
// does) and two non-unique ones, so an update can move any subset of a row's
// index entries.
func updSchema() Schema {
	return Schema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Kind: KindInt},
			{Name: "name", Kind: KindString},
			{Name: "ref", Kind: KindInt},
			{Name: "ts", Kind: KindInt},
		},
		Indexes: []IndexSpec{
			{Name: "by_id", Columns: []string{"id"}, Unique: true},
			{Name: "by_name", Columns: []string{"name"}, Unique: true},
			{Name: "by_ref", Columns: []string{"ref"}},
			{Name: "by_ts", Columns: []string{"ts"}},
		},
	}
}

func updOpts(p Personality) Options {
	o := fastOpts()
	o.Personality = p
	return o
}

func rowidOf(tx *Tx, id int64) (int64, Row, bool) {
	ids, rows, err := tx.LookupIDs("t", "by_id", Int64(id))
	if err != nil || len(ids) == 0 {
		return 0, nil, false
	}
	return ids[0], rows[0], true
}

// oldUpdate is the idiom Tx.Update replaced: delete the row, insert its new
// image under a fresh rowid.
func oldUpdate(tx *Tx, rowid int64, row Row) (bool, error) {
	ok, err := tx.Delete("t", rowid)
	if err != nil || !ok {
		return ok, err
	}
	_, err = tx.Insert("t", row)
	return true, err
}

// dumpTable renders the live rows of every index scan, checking that each
// scan is in index-key order. Rows are sorted within the dump because twins
// assign different rowids, and rowids break ties in non-unique indexes.
func dumpTable(t *testing.T, e *Engine) string {
	t.Helper()
	var b bytes.Buffer
	err := e.SnapshotView(func(r *Reader) error {
		n, err := r.Count("t")
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "count=%d\n", n)
		s := updSchema()
		for _, ix := range s.Indexes {
			cols := s.columnPositions(ix.Columns)
			var rows []string
			var prev []byte
			if err := r.ScanPrefix("t", ix.Name, nil, func(_ int64, row Row) bool {
				key := appendColKey(nil, row, cols)
				if bytes.Compare(prev, key) > 0 {
					t.Errorf("index %s out of order at %#v", ix.Name, row)
				}
				prev = key
				rows = append(rows, fmt.Sprintf("%#v", row))
				return true
			}); err != nil {
				return err
			}
			if int64(len(rows)) != n {
				t.Errorf("index %s scans %d rows, Count says %d", ix.Name, len(rows), n)
			}
			sort.Strings(rows)
			fmt.Fprintf(&b, "%s=%v\n", ix.Name, rows)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// walKinds counts the log records of each kind in a data directory.
func walKinds(t *testing.T, dir string) map[byte]int {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[byte]int{}
	if err := walDecodeStream(f, func(rec walRecord) error {
		kinds[rec.kind]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return kinds
}

// TestUpdateDifferential drives Tx.Update on one engine and the delete+insert
// sequence it replaced on a twin, with the same seeded stream of transactions
// (inserts, updates that move none, some or all index entries, deletes,
// commits and rollbacks), and requires identical outcomes: per-op results,
// unique violations, Count and every index scan after every transaction, and
// again after both are closed and recovered from their logs — the twin's log
// being the old-style one.
func TestUpdateDifferential(t *testing.T) {
	for _, p := range []Personality{PersonalityMySQL, PersonalityPostgres} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", p, seed), func(t *testing.T) {
				dirA, dirB := t.TempDir(), t.TempDir()
				a, err := Open(dirA, updOpts(p))
				if err != nil {
					t.Fatal(err)
				}
				b, err := Open(dirB, updOpts(p))
				if err != nil {
					t.Fatal(err)
				}
				mustCreate(t, a, updSchema())
				mustCreate(t, b, updSchema())

				rng := rand.New(rand.NewSource(seed))
				live := map[int64]bool{} // committed ids
				nextID := int64(0)
				var inserts, updates, deletes int // committed, on twin a
				var txA, txB *Tx
				defer func() { // a Fatal mid-transaction must not leave Close blocked on a latch
					txA.Rollback()
					txB.Rollback()
					a.Close()
					b.Close()
				}()
				for step := 0; step < 300; step++ {
					txA, _ = a.Begin("t")
					txB, _ = b.Begin("t")
					txLive := map[int64]bool{}
					for id := range live {
						txLive[id] = true
					}
					var ins, upd, del int
					failed := false
					for op := 0; op < 1+rng.Intn(4) && !failed; op++ {
						var ids []int64
						for id := range txLive {
							ids = append(ids, id)
						}
						sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
						var errA, errB error
						var okA, okB bool
						switch k := rng.Intn(10); {
						case k < 3 || len(ids) == 0:
							nextID++
							row := Row{Int64(nextID), String(fmt.Sprintf("n%02d", rng.Intn(60))), Int64(int64(rng.Intn(5))), Int64(int64(step))}
							_, errA = txA.Insert("t", row)
							_, errB = txB.Insert("t", row)
							okA, okB = true, true
							if errA == nil {
								txLive[nextID] = true
								ins++
							}
						case k < 8:
							id := ids[rng.Intn(len(ids))]
							ra, rowA, _ := rowidOf(txA, id)
							rb, _, _ := rowidOf(txB, id)
							row := rowA.Clone()
							switch rng.Intn(4) {
							case 0: // nothing indexed differently: all entries stay
							case 1:
								row[3] = Int64(int64(step)) // by_ts moves
							case 2:
								row[2] = Int64(int64(rng.Intn(5))) // by_ref may move
								row[3] = Int64(int64(step))
							case 3: // unique key changes, may collide
								row[1] = String(fmt.Sprintf("n%02d", rng.Intn(60)))
							}
							okA, errA = txA.Update("t", ra, row)
							okB, errB = oldUpdate(txB, rb, row)
							if errA == nil {
								upd++
							}
						default:
							id := ids[rng.Intn(len(ids))]
							ra, _, _ := rowidOf(txA, id)
							rb, _, _ := rowidOf(txB, id)
							okA, errA = txA.Delete("t", ra)
							okB, errB = txB.Delete("t", rb)
							delete(txLive, id)
							del++
						}
						if (errA == nil) != (errB == nil) || (errA == nil && okA != okB) {
							t.Fatalf("step %d: Update twin (%v, %v), delete+insert twin (%v, %v)", step, okA, errA, okB, errB)
						}
						if errA != nil {
							if !errors.Is(errA, ErrUniqueViolation) || !errors.Is(errB, ErrUniqueViolation) {
								t.Fatalf("step %d: %v / %v, want unique violations", step, errA, errB)
							}
							failed = true // the old idiom is half-applied: abandon the tx on both
						}
					}
					if failed || rng.Intn(5) == 0 {
						txA.Rollback()
						txB.Rollback()
					} else {
						if err := txA.Commit(); err != nil {
							t.Fatal(err)
						}
						if err := txB.Commit(); err != nil {
							t.Fatal(err)
						}
						live = txLive
						inserts, updates, deletes = inserts+ins, updates+upd, deletes+del
					}
					if da, db := dumpTable(t, a), dumpTable(t, b); da != db {
						t.Fatalf("step %d: twins diverged\nUpdate:\n%s\ndelete+insert:\n%s", step, da, db)
					}
					if p == PersonalityPostgres && step%100 == 99 {
						a.VacuumAll()
						b.VacuumAll()
					}
				}
				if sa, sb := a.Stats().Tables[0], b.Stats().Tables[0]; sa.Live != sb.Live || sa.Dead != sb.Dead {
					t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
				}
				want := dumpTable(t, a)
				if err := a.Close(); err != nil {
					t.Fatal(err)
				}
				if err := b.Close(); err != nil {
					t.Fatal(err)
				}
				// One insert record per in-place update, no delete record.
				if p == PersonalityMySQL {
					k := walKinds(t, dirA)
					if k[recInsert] != inserts+updates || k[recDelete] != deletes {
						t.Fatalf("log has %d insert and %d delete records for %d inserts, %d updates, %d deletes",
							k[recInsert], k[recDelete], inserts, updates, deletes)
					}
				}
				for _, dir := range []string{dirA, dirB} {
					e, err := Open(dir, updOpts(p))
					if err != nil {
						t.Fatal(err)
					}
					if got := dumpTable(t, e); got != want {
						t.Fatalf("recovered %s differs\ngot:\n%s\nwant:\n%s", dir, got, want)
					}
					e.Close()
				}
			})
		}
	}
}

func TestUpdateSemantics(t *testing.T) {
	for _, p := range []Personality{PersonalityMySQL, PersonalityPostgres} {
		t.Run(p.String(), func(t *testing.T) {
			e := OpenMemory(updOpts(p))
			defer e.Close()
			mustCreate(t, e, updSchema())
			one := mustInsert(t, e, "t", Row{Int64(1), String("one"), Int64(0), Int64(0)})
			mustInsert(t, e, "t", Row{Int64(2), String("two"), Int64(0), Int64(0)})

			// A snapshot pinned before the update keeps seeing the old row.
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()

			tx, _ := e.Begin("t")
			defer func() { tx.Rollback() }() // a Fatal mid-transaction must not leave Close blocked
			// Changed unique key colliding with another live row: rejected,
			// and the table is as it was — the transaction goes on.
			if _, err := tx.Update("t", one, Row{Int64(1), String("two"), Int64(0), Int64(0)}); !errors.Is(err, ErrUniqueViolation) {
				t.Fatalf("colliding update = %v, want ErrUniqueViolation", err)
			}
			if rows, _ := tx.Lookup("t", "by_name", String("one")); len(rows) != 1 {
				t.Fatal("rejected update changed the row")
			}
			// Unchanged unique keys are the row's own entries: never a conflict.
			if ok, err := tx.Update("t", one, Row{Int64(1), String("one"), Int64(7), Int64(9)}); !ok || err != nil {
				t.Fatalf("update keeping its unique keys = %v, %v", ok, err)
			}
			if ok, err := tx.Update("t", 999, Row{Int64(9), String("x"), Int64(0), Int64(0)}); ok || err != nil {
				t.Fatalf("update of a missing rowid = %v, %v; want false, nil", ok, err)
			}
			cur, _, _ := rowidOf(tx, 1)
			if _, err := tx.Update("t", cur, Row{Int64(1)}); err == nil {
				t.Fatal("update with a short row accepted")
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			ids, rows, _ := snap.LookupIDs("t", "by_name", String("one"))
			if len(rows) != 1 || rows[0][2].Int != 0 || ids[0] != one {
				t.Fatalf("pinned snapshot sees %v (rowids %v), want the pre-update row", rows, ids)
			}
			if rows, _ := snap.Lookup("t", "by_ref", Int64(7)); len(rows) != 0 {
				t.Fatal("pinned snapshot sees the updated row's moved index entry")
			}
			var newID int64
			e.SnapshotView(func(r *Reader) error {
				ids, rows, _ := r.LookupIDs("t", "by_ref", Int64(7))
				if len(rows) != 1 || rows[0][3].Int != 9 {
					t.Fatalf("after commit by_ref=7 finds %v", rows)
				}
				newID = ids[0]
				return nil
			})
			st := e.Stats().Tables[0]
			if p == PersonalityMySQL && (newID != one || st.Dead != 0) {
				t.Fatalf("in-place update: rowid %d -> %d, %d dead; want the rowid kept and none dead", one, newID, st.Dead)
			}
			if p == PersonalityPostgres && (newID == one || st.Dead != 1) {
				t.Fatalf("postgres update: rowid %d -> %d, %d dead; want a fresh rowid and one dead version", one, newID, st.Dead)
			}

			// Rollback restores the prior image, including of a row inserted,
			// updated twice and deleted within the transaction itself.
			mid := dumpTable(t, e)
			tx, _ = e.Begin("t")
			if ok, err := tx.Update("t", newID, Row{Int64(1), String("uno"), Int64(3), Int64(3)}); !ok || err != nil {
				t.Fatalf("update = %v, %v", ok, err)
			}
			fresh, err := tx.Insert("t", Row{Int64(3), String("three"), Int64(0), Int64(0)})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"drei", "trois"} {
				if p == PersonalityPostgres {
					fresh, _, _ = rowidOf(tx, 3)
				}
				if ok, err := tx.Update("t", fresh, Row{Int64(3), String(name), Int64(1), Int64(1)}); !ok || err != nil {
					t.Fatalf("update of a row inserted in this tx = %v, %v", ok, err)
				}
			}
			fresh, _, _ = rowidOf(tx, 3)
			if ok, _ := tx.Delete("t", fresh); !ok {
				t.Fatal("delete of the updated row failed")
			}
			tx.Rollback()
			if got := dumpTable(t, e); got != mid {
				t.Fatalf("rollback left\n%s\nwant\n%s", got, mid)
			}
			if got := e.Stats().Tables[0]; got.Live != st.Live || got.Dead != st.Dead {
				t.Fatalf("rollback left stats %+v, want %+v", got, st)
			}
		})
	}
}
