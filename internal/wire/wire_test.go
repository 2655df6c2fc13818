package wire

import (
	"fmt"
	"net"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderPrimitives(t *testing.T) {
	e := NewEncoder(64)
	e.U8(7)
	e.U16(1234)
	e.U32(7_000_000)
	e.U64(1 << 50)
	e.I64(-42)
	e.Uvarint(300)
	e.F64(63.8)
	e.Bool(true)
	e.Bool(false)
	e.String("hello")
	e.Blob([]byte{1, 2, 3})
	e.StringList([]string{"a", "", "ccc"})

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := d.U16(); got != 1234 {
		t.Fatalf("U16 = %d", got)
	}
	if got := d.U32(); got != 7_000_000 {
		t.Fatalf("U32 = %d", got)
	}
	if got := d.U64(); got != 1<<50 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := d.F64(); got != 63.8 {
		t.Fatalf("F64 = %v", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := d.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := d.Blob(); len(got) != 3 || got[0] != 1 {
		t.Fatalf("Blob = %v", got)
	}
	if got := d.StringList(); !reflect.DeepEqual(got, []string{"a", "", "ccc"}) {
		t.Fatalf("StringList = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderTruncationIsSticky(t *testing.T) {
	d := NewDecoder([]byte{0x01})
	d.U64() // needs 8 bytes
	if d.Err() == nil {
		t.Fatal("short U64 did not set error")
	}
	if got := d.String(); got != "" {
		t.Fatalf("String after error = %q, want empty", got)
	}
	if d.Finish() == nil {
		t.Fatal("Finish did not report sticky error")
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	e := NewEncoder(8)
	e.U8(1)
	e.U8(2)
	d := NewDecoder(e.Bytes())
	d.U8()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish accepted trailing bytes")
	}
}

func TestDecoderStringListHugeCountRejected(t *testing.T) {
	e := NewEncoder(16)
	e.Uvarint(1 << 40) // absurd count, tiny buffer
	d := NewDecoder(e.Bytes())
	if got := d.StringList(); got != nil {
		t.Fatalf("StringList = %v, want nil", got)
	}
	if d.Err() == nil {
		t.Fatal("huge count accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := &Hello{DN: "/O=Grid/OU=ISI/CN=Ann Chervenak", Token: "secret"}
	got, err := DecodeHello(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.DN != h.DN || got.Token != h.Token {
		t.Fatalf("round trip = %+v, want %+v", got, h)
	}
}

func TestHelloRejectsBadMagicAndVersion(t *testing.T) {
	if _, err := DecodeHello([]byte("XXXX")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeHello(nil); err == nil {
		t.Fatal("empty hello accepted")
	}
	h := (&Hello{DN: "x"}).Encode()
	h[4] = 0xFF // corrupt version
	h[5] = 0xFF
	if _, err := DecodeHello(h); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	a := &HelloAck{Status: StatusDenied, Detail: "unknown DN"}
	got, err := DecodeHelloAck(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDenied || got.Detail != "unknown DN" {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestRequestResponseRoundTrip(t *testing.T) {
	req := &Request{ID: 99, Op: OpLRCGetTargets, Body: []byte("body")}
	got, err := DecodeRequest(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 99 || got.Op != OpLRCGetTargets || string(got.Body) != "body" {
		t.Fatalf("request round trip = %+v", got)
	}
	resp := &Response{ID: 99, Status: StatusNotFound, Err: "no such lfn", Body: []byte{1}}
	rgot, err := DecodeResponse(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if rgot.ID != 99 || rgot.Status != StatusNotFound || rgot.Err != "no such lfn" || len(rgot.Body) != 1 {
		t.Fatalf("response round trip = %+v", rgot)
	}
}

func TestDecodeRequestTooShort(t *testing.T) {
	if _, err := DecodeRequest([]byte{1, 2, 3}); err == nil {
		t.Fatal("short request accepted")
	}
}

func TestFrameRoundTripOverPipe(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	payload := []byte("the quick brown fox")
	errc := make(chan error, 1)
	go func() { errc <- ca.WriteFrame(payload) }()
	got, err := cb.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("frame = %q, want %q", got, payload)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := NewConn(a)
	if err := c.WriteFrame(make([]byte, MaxFrameSize+1)); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestEmptyFrame(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	go ca.WriteFrame(nil)
	got, err := cb.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty frame decoded as %d bytes", len(got))
	}
}

func TestOpString(t *testing.T) {
	named := make(map[string]Op)
	for op := OpPing; op < opMax; op++ {
		name := op.String()
		if opNames[op] == "" {
			t.Errorf("op %d has no entry in opNames (prints %q)", op, name)
		}
		if prev, dup := named[name]; dup {
			t.Errorf("ops %d and %d share the name %q", prev, op, name)
		}
		named[name] = op
		if !op.Valid() {
			t.Errorf("op %d (%s) not Valid", op, op)
		}
	}
	if OpInvalid.Valid() || Op(9999).Valid() {
		t.Fatal("invalid op reported Valid")
	}
	for _, op := range []Op{OpInvalid, opMax, 9999} {
		if want := fmt.Sprintf("op(%d)", op); op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
}

func TestStatusString(t *testing.T) {
	for _, s := range []Status{StatusOK, StatusDenied, StatusNotFound, StatusExists, StatusBadRequest, StatusUnsupported, StatusInternal} {
		if s.String() == "" {
			t.Errorf("status %d has empty name", s)
		}
	}
	if Status(999).String() == "" {
		t.Fatal("unknown status has empty String")
	}
}

// messageRoundTrips lists every message type's encode/decode pair.
func TestMessageRoundTrips(t *testing.T) {
	cases := []struct {
		name   string
		msg    interface{ Encode() []byte }
		decode func([]byte) (any, error)
	}{
		{"NameRequest", &NameRequest{Name: "lfn://x"}, func(b []byte) (any, error) { return DecodeNameRequest(b) }},
		{"NamesResponse", &NamesResponse{Names: []string{"a", "b"}}, func(b []byte) (any, error) { return DecodeNamesResponse(b) }},
		{"MappingRequest", &MappingRequest{Logical: "l", Target: "t"}, func(b []byte) (any, error) { return DecodeMappingRequest(b) }},
		{"BulkMappingsRequest", &BulkMappingsRequest{Mappings: []Mapping{{"l1", "t1"}, {"l2", "t2"}}}, func(b []byte) (any, error) { return DecodeBulkMappingsRequest(b) }},
		{"BulkNamesRequest", &BulkNamesRequest{Names: []string{"x", "y"}}, func(b []byte) (any, error) { return DecodeBulkNamesRequest(b) }},
		{"BulkStatusResponse", &BulkStatusResponse{Failures: []BulkFailure{{Index: 3, Status: StatusExists, Msg: "dup"}}}, func(b []byte) (any, error) { return DecodeBulkStatusResponse(b) }},
		{"BulkNamesResponse", &BulkNamesResponse{Results: []BulkNameResult{{Name: "n", Found: true, Values: []string{"v"}}}}, func(b []byte) (any, error) { return DecodeBulkNamesResponse(b) }},
		{"AttrDefineRequest", &AttrDefineRequest{Name: "size", Obj: ObjTarget, Type: AttrInt}, func(b []byte) (any, error) { return DecodeAttrDefineRequest(b) }},
		{"AttrUndefineRequest", &AttrUndefineRequest{Name: "size", Obj: ObjTarget, ClearValues: true}, func(b []byte) (any, error) { return DecodeAttrUndefineRequest(b) }},
		{"AttrWriteRequest/string", &AttrWriteRequest{Key: "pfn", Obj: ObjTarget, Name: "checksum", Value: AttrValue{Type: AttrString, S: "abc"}}, func(b []byte) (any, error) { return DecodeAttrWriteRequest(b) }},
		{"AttrWriteRequest/int", &AttrWriteRequest{Key: "pfn", Obj: ObjTarget, Name: "size", Value: AttrValue{Type: AttrInt, I: -5}}, func(b []byte) (any, error) { return DecodeAttrWriteRequest(b) }},
		{"AttrWriteRequest/float", &AttrWriteRequest{Key: "pfn", Obj: ObjTarget, Name: "q", Value: AttrValue{Type: AttrFloat, F: 2.5}}, func(b []byte) (any, error) { return DecodeAttrWriteRequest(b) }},
		{"AttrWriteRequest/date", &AttrWriteRequest{Key: "pfn", Obj: ObjTarget, Name: "when", Value: AttrValue{Type: AttrDate, I: 1086300000000000000}}, func(b []byte) (any, error) { return DecodeAttrWriteRequest(b) }},
		{"AttrRemoveRequest", &AttrRemoveRequest{Key: "k", Obj: ObjLogical, Name: "n"}, func(b []byte) (any, error) { return DecodeAttrRemoveRequest(b) }},
		{"AttrGetRequest", &AttrGetRequest{Key: "k", Obj: ObjLogical, Names: []string{"a"}}, func(b []byte) (any, error) { return DecodeAttrGetRequest(b) }},
		{"AttrGetResponse", &AttrGetResponse{Attrs: []NamedAttr{{Name: "n", Value: AttrValue{Type: AttrInt, I: 1}}}}, func(b []byte) (any, error) { return DecodeAttrGetResponse(b) }},
		{"AttrSearchRequest", &AttrSearchRequest{Name: "size", Obj: ObjTarget, Cmp: CmpGE, Value: AttrValue{Type: AttrInt, I: 100}}, func(b []byte) (any, error) { return DecodeAttrSearchRequest(b) }},
		{"AttrSearchResponse", &AttrSearchResponse{Hits: []ObjAttr{{Key: "k", Value: AttrValue{Type: AttrFloat, F: 1}}}}, func(b []byte) (any, error) { return DecodeAttrSearchResponse(b) }},
		{"AttrBulkWriteRequest", &AttrBulkWriteRequest{Items: []AttrWriteRequest{{Key: "k", Obj: ObjLogical, Name: "n", Value: AttrValue{Type: AttrString, S: "v"}}}}, func(b []byte) (any, error) { return DecodeAttrBulkWriteRequest(b) }},
		{"AttrBulkRemoveRequest", &AttrBulkRemoveRequest{Items: []AttrRemoveRequest{{Key: "k", Obj: ObjLogical, Name: "n"}}}, func(b []byte) (any, error) { return DecodeAttrBulkRemoveRequest(b) }},
		{"RLIAddRequest", &RLIAddRequest{Target: RLITarget{URL: "rls://rli1:39281", Bloom: true, Patterns: []string{"^lfn://ligo"}}}, func(b []byte) (any, error) { return DecodeRLIAddRequest(b) }},
		{"RLIListResponse", &RLIListResponse{Targets: []RLITarget{{URL: "u", Bloom: false, Patterns: nil}}}, func(b []byte) (any, error) { return DecodeRLIListResponse(b) }},
		{"SSFullStartRequest", &SSFullStartRequest{LRC: "rls://lrc0", Total: 1000000}, func(b []byte) (any, error) { return DecodeSSFullStartRequest(b) }},
		{"SSFullBatchRequest", &SSFullBatchRequest{LRC: "rls://lrc0", Names: []string{"a", "b"}}, func(b []byte) (any, error) { return DecodeSSFullBatchRequest(b) }},
		{"SSIncrementalRequest", &SSIncrementalRequest{LRC: "rls://lrc0", Added: []string{"a"}, Removed: []string{"r"}}, func(b []byte) (any, error) { return DecodeSSIncrementalRequest(b) }},
		{"SSBloomRequest", &SSBloomRequest{LRC: "rls://lrc0", Bitmap: []byte{1, 2, 3, 4}}, func(b []byte) (any, error) { return DecodeSSBloomRequest(b) }},
		{"ServerInfoResponse", &ServerInfoResponse{Role: "lrc+rli", URL: "rls://h:1", LogicalNames: 5, TargetNames: 6, Mappings: 7, IndexEntries: 8, BloomFilters: 9, UptimeSeconds: 10}, func(b []byte) (any, error) { return DecodeServerInfoResponse(b) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.decode(c.msg.Encode())
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(normalize(got), normalize(c.msg)) {
				t.Fatalf("round trip:\n got  %#v\n want %#v", got, c.msg)
			}
			// Every decoder must reject a truncated body.
			enc := c.msg.Encode()
			if len(enc) > 0 {
				if _, err := c.decode(enc[:len(enc)-1]); err == nil {
					t.Error("decoder accepted truncated body")
				}
			}
		})
	}
}

// normalize maps nil and empty slices to a comparable form by re-encoding
// through reflect.DeepEqual-friendly copies; the protocol treats them
// identically.
func normalize(v any) string {
	type enc interface{ Encode() []byte }
	if e, ok := v.(enc); ok {
		return string(e.Encode())
	}
	return ""
}

func TestQuickMappingRoundTrip(t *testing.T) {
	check := func(l, tgt string) bool {
		m := &MappingRequest{Logical: l, Target: tgt}
		got, err := DecodeMappingRequest(m.Encode())
		return err == nil && got.Logical == l && got.Target == tgt
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStringListRoundTrip(t *testing.T) {
	check := func(ss []string) bool {
		e := NewEncoder(64)
		e.StringList(ss)
		d := NewDecoder(e.Bytes())
		got := d.StringList()
		if d.Finish() != nil {
			return false
		}
		if len(got) != len(ss) {
			return false
		}
		for i := range ss {
			if got[i] != ss[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeRandomBytesNeverPanics(t *testing.T) {
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := DecodeNameRequest(b); return err },
		func(b []byte) error { _, err := DecodeBulkMappingsRequest(b); return err },
		func(b []byte) error { _, err := DecodeAttrWriteRequest(b); return err },
		func(b []byte) error { _, err := DecodeAttrSearchResponse(b); return err },
		func(b []byte) error { _, err := DecodeSSBloomRequest(b); return err },
		func(b []byte) error { _, err := DecodeRLIListResponse(b); return err },
		func(b []byte) error { _, err := DecodeResponse(b); return err },
		func(b []byte) error { _, err := DecodeHello(b); return err },
	}
	check := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		for _, d := range decoders {
			d(b) // error or success both fine; panic is the failure
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
