package storage

import (
	"math"
	"testing"
	"time"
	"unsafe"
)

// TestValueLayout pins the size of Value: rows are slices of it and most of
// a resident catalog's heap, which the benchmark's live_heap_mb measures.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestValueAccessorsRoundTrip: what goes in through Float64 and Timestamp
// comes out of Float and Time, and the WAL codec returns the same Value.
func TestValueAccessorsRoundTrip(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 2.5, -2.5, math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1)} {
		v := Float64(f)
		if got := v.Float(); math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("Float64(%g).Float() = %g", f, got)
		}
		back, rest, err := readValue(appendValue(nil, v))
		if err != nil || len(rest) != 0 || back != v {
			t.Fatalf("float %g through the WAL codec: %#v, %v", f, back, err)
		}
	}
	for _, at := range []time.Time{
		time.Unix(0, 0),
		time.Date(2004, 6, 4, 12, 0, 0, 123456789, time.UTC),
		time.Date(1969, 7, 20, 20, 17, 40, 1, time.UTC),
		time.Date(2004, 6, 4, 12, 0, 0, 0, time.FixedZone("CEST", 7200)),
	} {
		v := Timestamp(at)
		if !v.Time().Equal(at) {
			t.Fatalf("Timestamp(%v).Time() = %v", at, v.Time())
		}
		back, rest, err := readValue(appendValue(nil, v))
		if err != nil || len(rest) != 0 || back != v {
			t.Fatalf("time %v through the WAL codec: %#v, %v", at, back, err)
		}
	}
}

// TestValueEqual keeps Equal's meaning per kind: floats compare as numbers
// (the zeros are equal, NaN is not), times as instants whatever the zone,
// and no two kinds are equal even when their Int fields are.
func TestValueEqual(t *testing.T) {
	at := time.Date(2004, 6, 4, 12, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		a, b Value
		want bool
	}{
		{Float64(0), Float64(math.Copysign(0, -1)), true},
		{Float64(math.NaN()), Float64(math.NaN()), false},
		{Float64(1.5), Float64(1.5), true},
		{Float64(1.5), Float64(-1.5), false},
		{Timestamp(at), Timestamp(at.In(time.FixedZone("PDT", -7*3600))), true},
		{Timestamp(at), Timestamp(at.Add(time.Nanosecond)), false},
		{Timestamp(time.Unix(0, 7)), Int64(7), false},
		{Float64(math.Float64frombits(7)), Int64(7), false},
	} {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%#v.Equal(%#v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
