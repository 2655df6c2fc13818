package rdb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/storage"
)

func newTestRLI(t *testing.T) *RLIDB {
	t.Helper()
	eng := storage.OpenMemory(storage.Options{Device: disk.New(disk.Fast())})
	t.Cleanup(func() { eng.Close() })
	db, err := NewRLIDB(eng)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestUpsertAndQuery(t *testing.T) {
	db := newTestRLI(t)
	now := time.Now()
	if err := db.UpsertNames("rls://lrc1", []string{"lfn://a", "lfn://b"}, now); err != nil {
		t.Fatal(err)
	}
	if err := db.UpsertNames("rls://lrc2", []string{"lfn://a"}, now); err != nil {
		t.Fatal(err)
	}
	lrcs, err := db.QueryLRCs("lfn://a")
	if err != nil {
		t.Fatal(err)
	}
	if len(lrcs) != 2 {
		t.Fatalf("lfn://a LRCs = %v, want 2", lrcs)
	}
	lrcs, err = db.QueryLRCs("lfn://b")
	if err != nil {
		t.Fatal(err)
	}
	if len(lrcs) != 1 || lrcs[0] != "rls://lrc1" {
		t.Fatalf("lfn://b LRCs = %v", lrcs)
	}
	if _, err := db.QueryLRCs("lfn://missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing lfn = %v, want ErrNotFound", err)
	}
}

func TestUpsertRefreshesTimestampNotDuplicates(t *testing.T) {
	db := newTestRLI(t)
	t0 := time.Now()
	db.UpsertNames("rls://lrc1", []string{"lfn://a"}, t0)
	db.UpsertNames("rls://lrc1", []string{"lfn://a"}, t0.Add(time.Hour))
	_, _, assoc, err := db.Counts()
	if err != nil {
		t.Fatal(err)
	}
	if assoc != 1 {
		t.Fatalf("associations = %d after re-upsert, want 1", assoc)
	}
	// Expiring before the refreshed time must keep the association.
	n, err := db.ExpireBefore(t0.Add(30 * time.Minute))
	if err != nil || n != 0 {
		t.Fatalf("ExpireBefore = %d, %v; want 0", n, err)
	}
}

func TestRemoveNames(t *testing.T) {
	db := newTestRLI(t)
	now := time.Now()
	db.UpsertNames("rls://lrc1", []string{"lfn://a", "lfn://b"}, now)
	db.UpsertNames("rls://lrc2", []string{"lfn://a"}, now)
	if err := db.RemoveNames("rls://lrc1", []string{"lfn://a", "lfn://nonexistent"}); err != nil {
		t.Fatal(err)
	}
	lrcs, err := db.QueryLRCs("lfn://a")
	if err != nil {
		t.Fatal(err)
	}
	if len(lrcs) != 1 || lrcs[0] != "rls://lrc2" {
		t.Fatalf("lfn://a LRCs = %v", lrcs)
	}
	// Removing from an unknown LRC is a no-op.
	if err := db.RemoveNames("rls://unknown", []string{"lfn://a"}); err != nil {
		t.Fatal(err)
	}
	// Removing the last association deletes the lfn row.
	db.RemoveNames("rls://lrc2", []string{"lfn://a"})
	if _, err := db.QueryLRCs("lfn://a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fully removed lfn still resolvable: %v", err)
	}
	logicals, _, _, _ := db.Counts()
	if logicals != 1 { // only lfn://b remains
		t.Fatalf("logicals = %d, want 1", logicals)
	}
}

func TestExpiration(t *testing.T) {
	db := newTestRLI(t)
	t0 := time.Now()
	db.UpsertNames("rls://lrc1", []string{"lfn://old1", "lfn://old2"}, t0)
	db.UpsertNames("rls://lrc2", []string{"lfn://old1"}, t0)
	db.UpsertNames("rls://lrc1", []string{"lfn://fresh"}, t0.Add(time.Hour))

	n, err := db.ExpireBefore(t0.Add(30 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("expired %d associations, want 3", n)
	}
	if _, err := db.QueryLRCs("lfn://old1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("expired lfn still resolvable")
	}
	lrcs, err := db.QueryLRCs("lfn://fresh")
	if err != nil || len(lrcs) != 1 {
		t.Fatalf("fresh lfn = %v, %v", lrcs, err)
	}
	// Idempotent.
	n, err = db.ExpireBefore(t0.Add(30 * time.Minute))
	if err != nil || n != 0 {
		t.Fatalf("second expire = %d, %v", n, err)
	}
}

func TestExpirationRefreshKeepsEntry(t *testing.T) {
	// The soft-state contract: an entry refreshed by a later update
	// survives expiration of its original timestamp.
	db := newTestRLI(t)
	t0 := time.Now()
	db.UpsertNames("rls://lrc1", []string{"lfn://a"}, t0)
	db.UpsertNames("rls://lrc1", []string{"lfn://a"}, t0.Add(2*time.Hour))
	n, err := db.ExpireBefore(t0.Add(time.Hour))
	if err != nil || n != 0 {
		t.Fatalf("expire = %d, %v; want 0 (entry was refreshed)", n, err)
	}
}

func TestWildcardQueryRLI(t *testing.T) {
	db := newTestRLI(t)
	now := time.Now()
	db.UpsertNames("rls://lrc1", []string{"lfn://ligo/run1", "lfn://ligo/run2", "lfn://esg/x"}, now)
	hits, err := db.WildcardQuery("lfn://ligo/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("wildcard hits = %v", hits)
	}
	for _, h := range hits {
		if h.Target != "rls://lrc1" {
			t.Fatalf("hit target = %q", h.Target)
		}
	}
}

func TestLRCList(t *testing.T) {
	db := newTestRLI(t)
	now := time.Now()
	db.UpsertNames("rls://lrc2", []string{"lfn://a"}, now)
	db.UpsertNames("rls://lrc1", []string{"lfn://b"}, now)
	lrcs, err := db.LRCs()
	if err != nil {
		t.Fatal(err)
	}
	if len(lrcs) != 2 || lrcs[0] != "rls://lrc1" || lrcs[1] != "rls://lrc2" {
		t.Fatalf("LRCs = %v, want sorted pair", lrcs)
	}
}

func TestUpsertValidation(t *testing.T) {
	db := newTestRLI(t)
	if err := db.UpsertNames("", []string{"x"}, time.Now()); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty LRC url = %v", err)
	}
	// Empty names are skipped, not errors (defensive against sparse
	// batches).
	if err := db.UpsertNames("rls://lrc1", []string{"", "lfn://ok"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	logicals, _, _, _ := db.Counts()
	if logicals != 1 {
		t.Fatalf("logicals = %d, want 1", logicals)
	}
}

func TestOpenRLIDBRecoversCounters(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.Open(dir, storage.Options{Device: disk.New(disk.Fast())})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewRLIDB(eng)
	if err != nil {
		t.Fatal(err)
	}
	db.UpsertNames("rls://lrc1", []string{"lfn://a", "lfn://b"}, time.Now())
	eng.Close()

	eng2, err := storage.Open(dir, storage.Options{Device: disk.New(disk.Fast())})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	db2, err := OpenRLIDB(eng2)
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.UpsertNames("rls://lrc1", []string{"lfn://c"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	logicals, lrcs, assoc, _ := db2.Counts()
	if logicals != 3 || lrcs != 1 || assoc != 3 {
		t.Fatalf("counts = %d/%d/%d, want 3/1/3", logicals, lrcs, assoc)
	}
}

func TestLargeBatchUpsert(t *testing.T) {
	db := newTestRLI(t)
	names := make([]string, 5000)
	for i := range names {
		names[i] = fmt.Sprintf("lfn://bulk/%06d", i)
	}
	if err := db.UpsertNames("rls://lrc1", names, time.Now()); err != nil {
		t.Fatal(err)
	}
	logicals, _, assoc, _ := db.Counts()
	if logicals != 5000 || assoc != 5000 {
		t.Fatalf("counts = %d logicals, %d assoc", logicals, assoc)
	}
}

func epochOf(t *testing.T, db *RLIDB) uint64 {
	t.Helper()
	snap, err := db.Engine().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	return snap.Epoch()
}

// TestUpsertAndRemoveNothingTouchNothing: an update that names nothing (a
// removals-only immediate-mode update reaches UpsertNames with no added names)
// must not register the LRC, commit, or publish a version.
func TestUpsertAndRemoveNothingTouchNothing(t *testing.T) {
	db := newTestRLI(t)
	if err := db.UpsertNames("rls://lrc1", []string{"lfn://a"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	before := epochOf(t, db)
	if err := db.UpsertNames("rls://ghost", nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := db.UpsertNames("rls://ghost", []string{"", ""}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveNames("rls://lrc1", nil); err != nil {
		t.Fatal(err)
	}
	if after := epochOf(t, db); after != before {
		t.Fatalf("snapshot epoch %d -> %d: a no-op update published a version", before, after)
	}
	if lrcs, _ := db.LRCs(); len(lrcs) != 1 || lrcs[0] != "rls://lrc1" {
		t.Fatalf("LRCs = %v: an LRC that registered nothing got a t_lrc row", lrcs)
	}
}

// mapRowids returns the t_map rowid of every association, keyed by lfn_id.
func mapRowids(t *testing.T, db *RLIDB) map[int64]int64 {
	t.Helper()
	out := map[int64]int64{}
	err := db.Engine().SnapshotView(func(r *storage.Reader) error {
		return r.ScanPrefix(tRLIMap, "by_pair", nil, func(rowid int64, row storage.Row) bool {
			out[row[colRMapLFN].Int] = rowid
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestUpsertRefreshUpdatesInPlace: refreshing an association is a row update
// — same t_map row, same counts, by_time moved — also when a name repeats
// inside the batch, and expiry after a partial refresh drops exactly the rows
// the refresh skipped.
func TestUpsertRefreshUpdatesInPlace(t *testing.T) {
	db := newTestRLI(t)
	t0 := time.Now()
	if err := db.UpsertNames("rls://lrc1", []string{"lfn://a", "lfn://b", "lfn://c"}, t0); err != nil {
		t.Fatal(err)
	}
	l0, r0, a0, _ := db.Counts()
	rowids := mapRowids(t, db)

	t1 := t0.Add(time.Hour)
	if err := db.UpsertNames("rls://lrc1", []string{"lfn://a", "lfn://b", "lfn://a"}, t1); err != nil {
		t.Fatal(err)
	}
	if l, r, a, _ := db.Counts(); l != l0 || r != r0 || a != a0 {
		t.Fatalf("counts after refresh = %d/%d/%d, want %d/%d/%d", l, r, a, l0, r0, a0)
	}
	if got := mapRowids(t, db); fmt.Sprint(got) != fmt.Sprint(rowids) {
		t.Fatalf("t_map rowids after refresh = %v, want %v unchanged", got, rowids)
	}
	n, err := db.ExpireBefore(t1)
	if err != nil || n != 1 {
		t.Fatalf("ExpireBefore after partial refresh = %d, %v; want exactly the 1 unrefreshed row", n, err)
	}
	if _, err := db.QueryLRCs("lfn://c"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unrefreshed lfn://c after expiry = %v, want ErrNotFound", err)
	}
	for _, name := range []string{"lfn://a", "lfn://b"} {
		if lrcs, err := db.QueryLRCs(name); err != nil || len(lrcs) != 1 {
			t.Fatalf("refreshed %s after expiry = %v, %v", name, lrcs, err)
		}
	}
}

// BenchmarkUpsertNamesRefresh is one soft-state refresh round in the
// ss-update shape: 10 000 names already present, re-sent in 5 000-name batches
// with a newer timestamp.
func BenchmarkUpsertNamesRefresh(b *testing.B) {
	eng := storage.OpenMemory(storage.Options{Device: disk.New(disk.Fast())})
	defer eng.Close()
	db, err := NewRLIDB(eng)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 10000)
	for i := range names {
		names[i] = fmt.Sprintf("lfn://bench/%06d", i)
	}
	now := time.Now()
	round := func() {
		now = now.Add(time.Second)
		for off := 0; off < len(names); off += 5000 {
			if err := db.UpsertNames("rls://lrc1", names[off:off+5000], now); err != nil {
				b.Fatal(err)
			}
		}
	}
	round() // the inserting round
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
