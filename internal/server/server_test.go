package server

import (
	"net"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/disk"
	"repro/internal/lrc"
	"repro/internal/rdb"
	"repro/internal/rli"
	"repro/internal/storage"
	"repro/internal/wire"
)

func newLRCService(t testing.TB) *lrc.Service {
	return newLRCServiceWithDialer(t, nil)
}

func newLRCServiceWithDialer(t testing.TB, dial lrc.Dialer) *lrc.Service {
	t.Helper()
	eng := storage.OpenMemory(storage.Options{Device: disk.New(disk.Fast())})
	t.Cleanup(func() { eng.Close() })
	db, err := rdb.NewLRCDB(eng)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := lrc.New(ctx, lrc.Config{URL: "rls://test-lrc", DB: db, Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func newRLIService(t testing.TB) *rli.Service {
	t.Helper()
	eng := storage.OpenMemory(storage.Options{Device: disk.New(disk.Fast())})
	t.Cleanup(func() { eng.Close() })
	db, err := rdb.NewRLIDB(eng)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := rli.New(rli.Config{URL: "rls://test-rli", DB: db})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func newServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.URL == "" {
		cfg.URL = "rls://test"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// rawConn opens an in-process connection handled by the server, without the
// client library — for protocol-level failure injection.
func rawConn(t *testing.T, s *Server) *wire.Conn {
	t.Helper()
	a, b := net.Pipe()
	go s.ServeConn(b)
	c := wire.NewConn(a)
	t.Cleanup(func() { c.Close() })
	return c
}

func handshake(t *testing.T, c *wire.Conn) {
	t.Helper()
	h := wire.Hello{}
	if err := c.WriteFrame(h.Encode()); err != nil {
		t.Fatal(err)
	}
	payload, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	ack, err := wire.DecodeHelloAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Status != wire.StatusOK {
		t.Fatalf("handshake status %v: %s", ack.Status, ack.Detail)
	}
}

func call(t *testing.T, c *wire.Conn, op wire.Op, body []byte) *wire.Response {
	t.Helper()
	req := wire.Request{ID: 1, Op: op, Body: body}
	if err := c.WriteFrame(req.Encode()); err != nil {
		t.Fatal(err)
	}
	payload, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestNewRequiresARole(t *testing.T) {
	if _, err := New(Config{URL: "rls://x"}); err == nil {
		t.Fatal("role-less server accepted")
	}
	if _, err := New(Config{LRC: newLRCService(t)}); err == nil {
		t.Fatal("URL-less server accepted")
	}
}

func TestRoleString(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	if s.Role() != "lrc" {
		t.Fatalf("Role = %q", s.Role())
	}
	s2 := newServer(t, Config{RLI: newRLIService(t)})
	if s2.Role() != "rli" {
		t.Fatalf("Role = %q", s2.Role())
	}
	s3 := newServer(t, Config{LRC: newLRCService(t), RLI: newRLIService(t)})
	if s3.Role() != "lrc+rli" {
		t.Fatalf("Role = %q", s3.Role())
	}
}

func TestBadMagicHandshakeRejected(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	c := rawConn(t, s)
	if err := c.WriteFrame([]byte("JUNKJUNK")); err != nil {
		t.Fatal(err)
	}
	payload, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	ack, err := wire.DecodeHelloAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Status != wire.StatusBadRequest {
		t.Fatalf("status = %v, want bad request", ack.Status)
	}
}

func TestConnectionDroppedMidHandshake(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		s.ServeConn(b)
		close(done)
	}()
	a.Close() // drop before hello
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server goroutine leaked after client drop")
	}
}

func TestConnectionDroppedMidRequest(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		s.ServeConn(b)
		close(done)
	}()
	c := wire.NewConn(a)
	handshake(t, c)
	// Write a frame header promising more bytes than we send, then drop.
	a.Write([]byte{0x00, 0x00, 0x10, 0x00, 0x01})
	a.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server goroutine leaked after torn frame")
	}
}

func TestMalformedRequestFrameClosesConnection(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	c := rawConn(t, s)
	handshake(t, c)
	if err := c.WriteFrame([]byte{0x01}); err != nil { // too short for an envelope
		t.Fatal(err)
	}
	if _, err := c.ReadFrame(); err == nil {
		t.Fatal("server kept connection open after malformed request")
	}
}

func TestUnknownOpRejected(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	c := rawConn(t, s)
	handshake(t, c)
	resp := call(t, c, wire.Op(9999), nil)
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("unknown op status = %v", resp.Status)
	}
}

func TestMalformedBodyReturnsBadRequest(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	c := rawConn(t, s)
	handshake(t, c)
	resp := call(t, c, wire.OpLRCCreateMapping, []byte{0xFF, 0xFF, 0xFF})
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("malformed body status = %v (%s)", resp.Status, resp.Err)
	}
}

func TestPipelinedRequestsShareConnection(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	c := rawConn(t, s)
	handshake(t, c)
	// Send three pings back-to-back while reading responses concurrently
	// (net.Pipe is unbuffered, so writes and reads must overlap).
	writeErr := make(chan error, 1)
	go func() {
		for id := uint64(1); id <= 3; id++ {
			req := wire.Request{ID: id, Op: wire.OpPing}
			if err := c.WriteFrame(req.Encode()); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}()
	seen := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		payload, err := c.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusOK {
			t.Fatalf("ping %d status %v", resp.ID, resp.Status)
		}
		seen[resp.ID] = true
	}
	if len(seen) != 3 {
		t.Fatalf("got responses for %d distinct ids, want 3", len(seen))
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
}

func TestCloseUnblocksServe(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after Close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

func TestCloseTerminatesActiveConnections(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	c := rawConn(t, s)
	handshake(t, c)
	s.Close()
	if _, err := c.ReadFrame(); err == nil {
		t.Fatal("connection still alive after server Close")
	}
}

func TestServeAfterCloseFails(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := s.Serve(l); err == nil {
		t.Fatal("Serve on closed server succeeded")
	}
}

func TestAuthDeniedOpsPerPrivilege(t *testing.T) {
	gm := auth.NewGridmap()
	gm.Add("/CN=reader", "reader")
	acl := auth.NewACL()
	acl.Grant("reader", true, auth.PrivLRCRead)
	an := auth.New(auth.Config{Enabled: true, Gridmap: gm, ACL: acl})
	an.RegisterCredential("/CN=reader", "tok")

	s := newServer(t, Config{LRC: newLRCService(t), Auth: an})
	c := rawConn(t, s)
	h := wire.Hello{DN: "/CN=reader", Token: "tok"}
	if err := c.WriteFrame(h.Encode()); err != nil {
		t.Fatal(err)
	}
	payload, _ := c.ReadFrame()
	ack, _ := wire.DecodeHelloAck(payload)
	if ack.Status != wire.StatusOK {
		t.Fatalf("handshake failed: %v", ack.Status)
	}

	// Reads allowed (not-found is fine — it got past authorization).
	q := wire.NameRequest{Name: "lfn://x"}
	resp := call(t, c, wire.OpLRCGetTargets, q.Encode())
	if resp.Status == wire.StatusDenied {
		t.Fatal("read denied for reader")
	}
	// Writes denied.
	m := wire.MappingRequest{Logical: "lfn://x", Target: "pfn://x"}
	resp = call(t, c, wire.OpLRCCreateMapping, m.Encode())
	if resp.Status != wire.StatusDenied {
		t.Fatalf("write status = %v, want denied", resp.Status)
	}
	// Soft state updates denied (rli_write not granted) — and also
	// unsupported here; authorization is checked first.
	ss := wire.SSBloomRequest{LRC: "rls://x", Bitmap: nil}
	resp = call(t, c, wire.OpSSBloom, ss.Encode())
	if resp.Status != wire.StatusDenied {
		t.Fatalf("soft state status = %v, want denied", resp.Status)
	}
	// Ping needs no privilege.
	resp = call(t, c, wire.OpPing, nil)
	if resp.Status != wire.StatusOK {
		t.Fatalf("ping status = %v", resp.Status)
	}
}

func TestRoleGatingTable(t *testing.T) {
	lrcOnly := newServer(t, Config{URL: "rls://l", LRC: newLRCService(t)})
	rliOnly := newServer(t, Config{URL: "rls://r", RLI: newRLIService(t)})

	cl := rawConn(t, lrcOnly)
	handshake(t, cl)
	cr := rawConn(t, rliOnly)
	handshake(t, cr)

	q := wire.NameRequest{Name: "lfn://x"}
	if resp := call(t, cr, wire.OpLRCGetTargets, q.Encode()); resp.Status != wire.StatusUnsupported {
		t.Fatalf("LRC op on RLI-only = %v", resp.Status)
	}
	if resp := call(t, cl, wire.OpRLIGetLRCs, q.Encode()); resp.Status != wire.StatusUnsupported {
		t.Fatalf("RLI op on LRC-only = %v", resp.Status)
	}
}
