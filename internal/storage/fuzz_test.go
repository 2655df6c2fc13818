package storage

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// FuzzWALDecode feeds arbitrary bytes to the WAL decoder: a corrupt or torn
// log must terminate replay cleanly (decoders return, never panic), because
// crash recovery reads exactly such data.
func FuzzWALDecode(f *testing.F) {
	// Seed with a real record stream.
	var stream []byte
	stream = append(stream, walEncode(walRecord{kind: recCreateTable, tableID: 1, schema: Schema{
		Name:    "t",
		Columns: []Column{{Name: "id", Kind: KindInt}},
		Indexes: []IndexSpec{{Name: "by_id", Columns: []string{"id"}, Unique: true}},
	}})...)
	stream = append(stream, walEncode(walRecord{kind: recInsert, tableID: 1, rowid: 1, row: Row{Int64(7)}})...)
	stream = append(stream, walEncode(walRecord{kind: recCommit})...)
	f.Add(stream)
	f.Add(stream[:len(stream)-3]) // torn tail
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		count := 0
		err := walDecodeStream(bytes.NewReader(data), func(rec walRecord) error {
			count++
			if count > 1<<16 {
				t.Fatal("implausible record count from fuzz input")
			}
			return nil
		})
		// The only allowed error comes from an fn callback or a decodable-
		// but-invalid payload; both are errors, never panics.
		_ = err
	})
}

// FuzzKeyEncodingOrder checks order preservation of the index key encoding:
// strings of arbitrary byte content (including NULs and invalid UTF-8), and
// the three kinds that live in Value.Int — integers, floats as their bits
// (negative numbers and the two zeros included) and timestamps as Unix
// nanoseconds (before 1970 included).
func FuzzKeyEncodingOrder(f *testing.F) {
	bits := func(v float64) int64 { return int64(math.Float64bits(v)) }
	f.Add("", "", int64(0), int64(0))
	f.Add("a", "a\x00b", int64(-1), int64(1))
	f.Add("abc", "abd", int64(math.MinInt64), int64(math.MaxInt64))
	f.Add("", "", bits(-2.5), bits(-1.5))
	f.Add("", "", bits(-1e-300), bits(1e-300))
	f.Add("", "", bits(math.Copysign(0, -1)), bits(0))
	f.Add("", "", bits(math.Inf(-1)), bits(-math.MaxFloat64))
	f.Add("", "", time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC).UnixNano(), int64(0))
	f.Add("", "", time.Date(1901, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano(), time.Date(2004, 6, 4, 0, 0, 0, 0, time.UTC).UnixNano())
	sign := func(less, greater bool) int {
		switch {
		case less:
			return -1
		case greater:
			return 1
		}
		return 0
	}
	f.Fuzz(func(t *testing.T, a, b string, x, y int64) {
		if got, want := bytes.Compare(appendKey(nil, String(a)), appendKey(nil, String(b))), sign(a < b, a > b); got != want {
			t.Fatalf("strings %q vs %q order %d, keys order %d", a, b, want, got)
		}
		if got, want := bytes.Compare(appendKey(nil, Int64(x)), appendKey(nil, Int64(y))), sign(x < y, x > y); got != want {
			t.Fatalf("ints %d vs %d order %d, keys order %d", x, y, want, got)
		}
		tx, ty := Timestamp(time.Unix(0, x)), Timestamp(time.Unix(0, y))
		if got, want := bytes.Compare(appendKey(nil, tx), appendKey(nil, ty)), sign(tx.Time().Before(ty.Time()), tx.Time().After(ty.Time())); got != want {
			t.Fatalf("times %v vs %v order %d, keys order %d", tx.Time(), ty.Time(), want, got)
		}
		fx, fy := Float64(math.Float64frombits(uint64(x))), Float64(math.Float64frombits(uint64(y)))
		if math.IsNaN(fx.Float()) || math.IsNaN(fy.Float()) {
			return // NaN has no order to preserve
		}
		got := bytes.Compare(appendKey(nil, fx), appendKey(nil, fy))
		want := sign(fx.Float() < fy.Float(), fx.Float() > fy.Float())
		if want == 0 && x != y {
			want = sign(x < 0, y < 0) // the two zeros: -0 keys before +0
		}
		if got != want {
			t.Fatalf("floats %g vs %g order %d, keys order %d", fx.Float(), fy.Float(), want, got)
		}
	})
}
