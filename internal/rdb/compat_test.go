package rdb

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The fixture under testdata/value64 is two data directories (an LRC and an
// RLI database, each a snapshot plus a WAL tail) written by commit 0c8bb1e,
// the last one whose storage.Value kept a float64 and a time.Time beside
// Int. It was produced by running this file's TestWriteValueFixture in a
// checkout of that commit:
//
//	RLS_WRITE_VALUE_FIXTURE=$PWD/testdata/value64 go test -run TestWriteValueFixture ./internal/rdb
//
// TestValueFixtureFromParentCommit opens copies of it with the current code.

var (
	fixtureFloats = map[string]float64{
		"lfn://f0": -2.5,
		"lfn://f1": math.Copysign(0, -1),
		"lfn://f2": 0,
		"lfn://f3": 1e-300,
		"lfn://f4": 3.25,
		"lfn://f5": -1e9, // written after the checkpoint: WAL tail
	}
	fixtureDates = map[string]time.Time{
		"lfn://f0": time.Date(1969, 7, 20, 20, 17, 40, 1, time.UTC),
		"lfn://f1": time.Unix(0, 0),
		"lfn://f2": time.Date(2004, 6, 4, 12, 0, 0, 123456789, time.UTC),
		"lfn://f3": time.Date(1901, 1, 1, 0, 0, 0, 0, time.UTC),
		"lfn://f4": time.Date(2038, 1, 19, 3, 14, 8, 0, time.UTC), // modified after the checkpoint
		"lfn://f5": time.Date(1970, 1, 1, 0, 0, 0, -1, time.UTC),  // WAL tail
	}
	// The RLI's soft-state timestamps: name -> last update. Expiry walks the
	// by_time index, so their key order is what is under test.
	fixtureUpdates = map[string]time.Time{
		"lfn://old-snap": time.Date(2004, 6, 1, 0, 0, 0, 0, time.UTC),
		"lfn://new-snap": time.Date(2004, 6, 3, 0, 0, 0, 500, time.UTC),
		"lfn://old-wal":  time.Date(2004, 6, 2, 0, 0, 0, 0, time.UTC),
		"lfn://new-wal":  time.Date(2004, 6, 4, 0, 0, 0, 0, time.UTC),
	}
)

const fixtureLRC = "rls://fixture-lrc"

func fixtureOpts() storage.Options {
	return storage.Options{FlushOnCommit: true, Device: disk.New(disk.Fast())}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestWriteValueFixture(t *testing.T) {
	dir := os.Getenv("RLS_WRITE_VALUE_FIXTURE")
	if dir == "" {
		t.Skip("set RLS_WRITE_VALUE_FIXTURE to a directory to (re)write the fixture")
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(os.RemoveAll(dir))

	eng, err := storage.Open(filepath.Join(dir, "lrc"), fixtureOpts())
	must(err)
	db, err := NewLRCDB(eng)
	must(err)
	must(db.DefineAttribute("quality", wire.ObjLogical, wire.AttrFloat))
	must(db.DefineAttribute("created", wire.ObjLogical, wire.AttrDate))
	date := func(at time.Time) wire.AttrValue { return wire.AttrValue{Type: wire.AttrDate, I: at.UnixNano()} }
	flt := func(f float64) wire.AttrValue { return wire.AttrValue{Type: wire.AttrFloat, F: f} }
	for _, lfn := range sortedKeys(fixtureFloats) {
		if lfn == "lfn://f5" {
			continue
		}
		must(db.CreateMapping(lfn, "gsiftp://site/"+lfn[6:]))
		must(db.AddAttribute(lfn, wire.ObjLogical, "quality", flt(fixtureFloats[lfn])))
		at := fixtureDates[lfn]
		if lfn == "lfn://f4" {
			at = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
		}
		must(db.AddAttribute(lfn, wire.ObjLogical, "created", date(at)))
	}
	must(eng.Checkpoint())
	must(db.CreateMapping("lfn://f5", "gsiftp://site/f5"))
	must(db.AddAttribute("lfn://f5", wire.ObjLogical, "quality", flt(fixtureFloats["lfn://f5"])))
	must(db.AddAttribute("lfn://f5", wire.ObjLogical, "created", date(fixtureDates["lfn://f5"])))
	must(db.ModifyAttribute("lfn://f4", wire.ObjLogical, "created", date(fixtureDates["lfn://f4"])))
	must(eng.Close())

	eng, err = storage.Open(filepath.Join(dir, "rli"), fixtureOpts())
	must(err)
	rli, err := NewRLIDB(eng)
	must(err)
	for _, n := range []string{"lfn://old-snap", "lfn://new-snap"} {
		must(rli.UpsertNames(fixtureLRC, []string{n}, fixtureUpdates[n]))
	}
	must(eng.Checkpoint())
	for _, n := range []string{"lfn://old-wal", "lfn://new-wal"} {
		must(rli.UpsertNames(fixtureLRC, []string{n}, fixtureUpdates[n]))
	}
	must(eng.Close())
}

// copyFixture copies one fixture database into a scratch directory: opening
// an engine rewrites its files.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	src, dst := filepath.Join("testdata", "value64", name), t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestValueFixtureFromParentCommit: float and timestamp values written by
// the 64-byte Value (snapshot and WAL tail alike) open under the 32-byte
// one, read back bit for bit, compare as before, keep their index order, and
// behave like values written now — a replayed row and a live one are equal.
func TestValueFixtureFromParentCommit(t *testing.T) {
	eng, err := storage.Open(copyFixture(t, "lrc"), fixtureOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	db, err := OpenLRCDB(eng)
	if err != nil {
		t.Fatal(err)
	}
	for _, lfn := range sortedKeys(fixtureFloats) {
		attrs, err := db.GetAttributes(lfn, wire.ObjLogical, []string{"quality", "created"})
		if err != nil || len(attrs) != 2 {
			t.Fatalf("%s: attributes %v, %v", lfn, attrs, err)
		}
		for _, a := range attrs {
			switch a.Name {
			case "quality":
				if math.Float64bits(a.Value.F) != math.Float64bits(fixtureFloats[lfn]) {
					t.Errorf("%s quality = %g, want %g", lfn, a.Value.F, fixtureFloats[lfn])
				}
			case "created":
				if a.Value.I != fixtureDates[lfn].UnixNano() {
					t.Errorf("%s created = %v, want %v", lfn, time.Unix(0, a.Value.I).UTC(), fixtureDates[lfn])
				}
			}
		}
	}
	search := func(name string, cmp wire.CmpOp, probe wire.AttrValue) []string {
		t.Helper()
		hits, err := db.SearchAttribute(name, wire.ObjLogical, cmp, probe)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(hits))
		for i, h := range hits {
			keys[i] = h.Key
		}
		sort.Strings(keys)
		return keys
	}
	equal := func(got []string, want ...string) bool { return slices.Equal(got, want) }
	if got := search("quality", wire.CmpLT, wire.AttrValue{Type: wire.AttrFloat, F: 0}); !equal(got, "lfn://f0", "lfn://f5") {
		t.Errorf("quality < 0: %v", got)
	}
	if got := search("quality", wire.CmpEQ, wire.AttrValue{Type: wire.AttrFloat, F: 0}); !equal(got, "lfn://f1", "lfn://f2") {
		t.Errorf("quality == 0 (both zeros): %v", got)
	}
	if got := search("created", wire.CmpLT, wire.AttrValue{Type: wire.AttrDate, I: 0}); !equal(got, "lfn://f0", "lfn://f3", "lfn://f5") {
		t.Errorf("created before 1970: %v", got)
	}
	// A value written now over a replayed one, and read back.
	if err := db.ModifyAttribute("lfn://f0", wire.ObjLogical, "quality", wire.AttrValue{Type: wire.AttrFloat, F: -7.75}); err != nil {
		t.Fatal(err)
	}
	if got := search("quality", wire.CmpEQ, wire.AttrValue{Type: wire.AttrFloat, F: -7.75}); !equal(got, "lfn://f0") {
		t.Errorf("modified quality: %v", got)
	}

	reng, err := storage.Open(copyFixture(t, "rli"), fixtureOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer reng.Close()
	rli, err := OpenRLIDB(reng)
	if err != nil {
		t.Fatal(err)
	}
	// Refresh one replayed association (a row update whose old by_time key
	// is computed from the replayed value), then expire by cutoff: the index
	// order decides who goes.
	refreshed := time.Date(2004, 6, 5, 0, 0, 0, 0, time.UTC)
	if err := rli.UpsertNames(fixtureLRC, []string{"lfn://old-snap"}, refreshed); err != nil {
		t.Fatal(err)
	}
	n, err := rli.ExpireBefore(time.Date(2004, 6, 3, 12, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	names, err := rli.NamesForLRC(fixtureLRC)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	if n != 2 || !equal(names, "lfn://new-wal", "lfn://old-snap") {
		t.Errorf("expired %d, left %v; want 2 expired (new-snap, old-wal), old-snap refreshed and new-wal kept", n, names)
	}
}
