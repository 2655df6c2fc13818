// Package storage implements the embedded relational storage engine that
// substitutes for the MySQL and PostgreSQL back ends of the HPDC 2004 RLS
// evaluation (reached there through ODBC; reached here through direct calls).
//
// The engine provides typed tables with unique and secondary ordered
// indexes, write-ahead logging with a configurable commit-flush policy, and
// two "personalities" that reproduce the performance-relevant behaviour the
// paper isolates:
//
//   - PersonalityMySQL deletes rows in place, like MyISAM-era MySQL 4.0.
//   - PersonalityPostgres leaves dead row versions behind (tombstones) that
//     every index traversal must skip until Vacuum compacts them, like
//     PostgreSQL 7.2 — producing the Figure 8 sawtooth.
//
// Writers serialize on a table-level lock, mirroring MySQL 4.0's table
// locks; readers run concurrently.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Kind enumerates the column types supported by the engine, matching the
// types of the paper's Figure 3 schema (int(11), varchar(250), float,
// timestamp(14)).
type Kind uint8

// Column kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindTime
)

// String returns the SQL-flavoured name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "varchar"
	case KindTime:
		return "timestamp"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed column value, 32 bytes: a row is a slice of
// these and rows are most of a resident catalog's heap. Int carries every
// fixed-width kind in the form the WAL, the snapshot and the index key
// already reduce it to — a float as its IEEE 754 bits, a timestamp as Unix
// nanoseconds — so a replayed value and a live one are the same bytes.
type Value struct {
	Kind Kind
	Int  int64
	Str  string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Int64 returns an integer value.
func Int64(v int64) Value { return Value{Kind: KindInt, Int: v} }

// Float64 returns a floating-point value.
func Float64(v float64) Value { return Value{Kind: KindFloat, Int: int64(math.Float64bits(v))} }

// String returns a string value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Timestamp returns a time value at nanosecond resolution.
func Timestamp(t time.Time) Value { return Value{Kind: KindTime, Int: t.UnixNano()} }

// Float returns the number held by a KindFloat value.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.Int)) }

// Time returns the instant held by a KindTime value.
func (v Value) Time() time.Time { return time.Unix(0, v.Int) }

// GoString formats the value for diagnostics.
func (v Value) GoString() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return fmt.Sprintf("%d", v.Int)
	case KindFloat:
		return fmt.Sprintf("%g", v.Float())
	case KindString:
		return fmt.Sprintf("%q", v.Str)
	case KindTime:
		return v.Time().UTC().Format(time.RFC3339Nano)
	default:
		return fmt.Sprintf("invalid(%d)", v.Kind)
	}
}

// Equal reports whether two values have the same kind and content.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindInt:
		return v.Int == o.Int
	case KindFloat:
		return v.Float() == o.Float()
	case KindString:
		return v.Str == o.Str
	case KindTime:
		return v.Int == o.Int
	default:
		return false
	}
}

// Row is a sequence of column values in schema order.
type Row []Value

// Clone returns a copy of the row safe to retain after the engine lock is
// released.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two rows are element-wise equal.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// appendKey appends an order-preserving binary encoding of v to dst. The
// encoding is self-delimiting, so composite keys compare column-major with
// bytes.Compare. A leading kind tag keeps values of different kinds in a
// stable (if arbitrary) relative order.
func appendKey(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindNull:
		return dst
	case KindInt:
		// Flip the sign bit so negative values order before positive.
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.Int)^(1<<63))
		return append(dst, buf[:]...)
	case KindFloat:
		bits := uint64(v.Int)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative floats: flip all bits
		} else {
			bits |= 1 << 63 // positive floats: set sign bit
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		return append(dst, buf[:]...)
	case KindString:
		// Escape 0x00 as 0x00 0xFF and terminate with 0x00 0x00 so that no
		// string encoding is a prefix of another's.
		for i := 0; i < len(v.Str); i++ {
			b := v.Str[i]
			dst = append(dst, b)
			if b == 0x00 {
				dst = append(dst, 0xFF)
			}
		}
		return append(dst, 0x00, 0x00)
	case KindTime:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.Int)^(1<<63))
		return append(dst, buf[:]...)
	default:
		panic(fmt.Sprintf("storage: appendKey on invalid kind %d", v.Kind))
	}
}

// appendColKey appends the listed columns of row to dst as a composite index
// key.
func appendColKey(dst []byte, row Row, cols []int) []byte {
	for _, c := range cols {
		dst = appendKey(dst, row[c])
	}
	return dst
}

// encodeValuesKey encodes a list of standalone values as a composite key,
// used for index probes.
func encodeValuesKey(vals []Value) []byte {
	dst := make([]byte, 0, 16*len(vals))
	for _, v := range vals {
		dst = appendKey(dst, v)
	}
	return dst
}
