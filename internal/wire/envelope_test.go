package wire

import (
	"bytes"
	"net"
	"testing"
)

// TestWriteRequestMatchesEncode verifies the envelope path, which encodes
// straight into the connection's write queue, produces frames identical to
// Request.Encode, across repeated sends that exercise buffer reuse and the
// large-frame bypass.
func TestWriteRequestMatchesEncode(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)

	reqs := []*Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpLRCGetTargets, Body: []byte("payload-two")},
		{ID: 3, Op: OpLRCCreateMapping, Body: bytes.Repeat([]byte("x"), 9000)},
		{ID: 4, Op: OpStats},
		{ID: 5, Op: OpLRCBulkCreate, Body: bytes.Repeat([]byte("b"), 100<<10)},
		{ID: 6, Op: OpPing},
	}
	errc := make(chan error, 1)
	go func() {
		for _, r := range reqs {
			if err := ca.WriteRequest(r); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for _, want := range reqs {
		payload, err := cb.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(payload, want.Encode()) {
			t.Fatalf("request frame differs from Encode for ID %d", want.ID)
		}
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("DecodeRequest: %v", err)
		}
		if got.ID != want.ID || got.Op != want.Op || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("round-trip mismatch: got %+v want %+v", got, want)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
}

// TestWriteResponseMatchesEncode does the same for the response envelope, including
// the error-string field.
func TestWriteResponseMatchesEncode(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)

	resps := []*Response{
		{ID: 1, Status: StatusOK, Body: []byte("ok-body")},
		{ID: 2, Status: StatusNotFound, Err: "no such logical name"},
		{ID: 3, Status: StatusOK, Body: bytes.Repeat([]byte("y"), 9000)},
	}
	errc := make(chan error, 1)
	go func() {
		for _, r := range resps {
			if err := ca.WriteResponse(r); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for _, want := range resps {
		payload, err := cb.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(payload, want.Encode()) {
			t.Fatalf("response frame differs from Encode for ID %d", want.ID)
		}
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("DecodeResponse: %v", err)
		}
		if got.ID != want.ID || got.Status != want.Status || got.Err != want.Err || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("round-trip mismatch: got %+v want %+v", got, want)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("WriteResponse: %v", err)
	}
}
