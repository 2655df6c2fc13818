package server

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// writeLog records the size of every Write the server makes on a connection.
type writeLog struct {
	net.Conn
	mu    sync.Mutex
	sizes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.sizes = append(w.sizes, len(p))
	w.mu.Unlock()
	return w.Conn.Write(p)
}

func (w *writeLog) writes() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int(nil), w.sizes...)
}

// loggedConn is rawConn with the server's side of the pipe wrapped in a
// writeLog; the handshake is done and its write forgotten. The raw client end
// is returned too, for tests that must send partial frames.
func loggedConn(t *testing.T, s *Server) (*wire.Conn, net.Conn, *writeLog) {
	t.Helper()
	a, b := net.Pipe()
	log := &writeLog{Conn: b}
	go s.ServeConn(log)
	c := wire.NewConn(a)
	t.Cleanup(func() { c.Close() })
	handshake(t, c)
	log.mu.Lock()
	log.sizes = nil
	log.mu.Unlock()
	if err := a.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return c, a, log
}

// sendBurst puts n pipelined requests on the wire in a single write, so the
// server finds all of them in its read buffer at once.
func sendBurst(t *testing.T, c *wire.Conn, n int, op wire.Op, body []byte) {
	t.Helper()
	for id := 1; id <= n; id++ {
		if err := c.QueueRequest(&wire.Request{ID: uint64(id), Op: op, Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestSerialLoopAnswersBurstInOneWrite: on the default (lock-step) loop a
// burst of K requests that arrived together is answered in one socket write,
// and the flush telemetry, which only the pipelined loop used to feed, says
// so.
func TestSerialLoopAnswersBurstInOneWrite(t *testing.T) {
	const burst = 16
	s := newServer(t, Config{LRC: newLRCService(t)})
	c, _, log := loggedConn(t, s)
	sendBurst(t, c, burst, wire.OpPing, nil)
	for id := uint64(1); id <= burst; id++ {
		if resp := readResponse(t, c); resp.ID != id || resp.Status != wire.StatusOK {
			t.Fatalf("response %d: id %d status %v", id, resp.ID, resp.Status)
		}
	}
	if w := log.writes(); len(w) != 1 {
		t.Fatalf("%d responses took %d writes %v, want 1", burst, len(w), w)
	}
	st := s.StatsSnapshot()
	if st.RespFlushes != 1 || st.RespFlushesAvoided != burst-1 {
		t.Fatalf("RespFlushes = %d, RespFlushesAvoided = %d, want 1 and %d", st.RespFlushes, st.RespFlushesAvoided, burst-1)
	}
	if got := st.RespBatchSizes[pipeBucket(burst)]; got != 1 {
		t.Fatalf("RespBatchSizes = %v, want one batch of %d", st.RespBatchSizes, burst)
	}
}

// TestSerialLoopAnswersLoneRequest: one request is answered with one write
// and without any further input; nothing in the server is on a timer, so the
// read deadline only bounds a failure.
func TestSerialLoopAnswersLoneRequest(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	c, _, log := loggedConn(t, s)
	for i := 0; i < 3; i++ {
		if resp := call(t, c, wire.OpPing, nil); resp.Status != wire.StatusOK {
			t.Fatalf("ping %d: %v", i, resp.Status)
		}
	}
	if w := log.writes(); len(w) != 3 {
		t.Fatalf("3 lock-step calls took %d writes, want 3", len(w))
	}
	if st := s.StatsSnapshot(); st.RespFlushesAvoided != 0 {
		t.Fatalf("RespFlushesAvoided = %d on lock-step traffic", st.RespFlushesAvoided)
	}
}

// TestSerialLoopDoesNotHoldAnswerBehindHalfFrame: one whole request followed
// by half of the next. The first must be answered before the other half is
// sent — a policy that flushed only on an empty read buffer would wait here.
func TestSerialLoopDoesNotHoldAnswerBehindHalfFrame(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	c, raw, _ := loggedConn(t, s)
	frame := func(id uint64) []byte {
		p := (&wire.Request{ID: id, Op: wire.OpPing}).Encode()
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...)
	}
	second := frame(2)
	if _, err := raw.Write(append(frame(1), second[:7]...)); err != nil {
		t.Fatal(err)
	}
	if resp := readResponse(t, c); resp.ID != 1 {
		t.Fatalf("first response has id %d", resp.ID)
	}
	if _, err := raw.Write(second[7:]); err != nil {
		t.Fatal(err)
	}
	if resp := readResponse(t, c); resp.ID != 2 {
		t.Fatalf("second response has id %d", resp.ID)
	}
}

// TestSerialLoopFlushesDeepBurstEarly: when the answers to a buffered burst
// pass 64 KiB the first of them go out before the input is drained, so the
// head of a deep burst does not wait for its tail.
func TestSerialLoopFlushesDeepBurstEarly(t *testing.T) {
	const burst, targets = 24, 40
	svc := newLRCService(t)
	for i := 0; i < targets; i++ {
		pfn := "gsiftp://site.example.org/" + strings.Repeat("p", 200) + string(rune('a'+i))
		add := svc.AddMapping
		if i == 0 {
			add = svc.CreateMapping
		}
		if err := add(ctx, "lfn://big", pfn); err != nil {
			t.Fatal(err)
		}
	}
	s := newServer(t, Config{LRC: svc})
	c, _, log := loggedConn(t, s)
	sendBurst(t, c, burst, wire.OpLRCGetTargets, (&wire.NameRequest{Name: "lfn://big"}).Encode())
	total := 0
	for id := uint64(1); id <= burst; id++ {
		payload, err := c.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		total += 4 + len(payload)
	}
	w := log.writes()
	if total < 3*(64<<10) {
		t.Fatalf("burst of %d bytes is too small to test the threshold", total)
	}
	if len(w) < 2 || len(w) >= burst {
		t.Fatalf("%d responses (%d bytes) took %d writes %v, want several but fewer than one each", burst, total, len(w), w)
	}
	if w[0] < 64<<10 || w[0] >= total {
		t.Fatalf("first write carried %d of %d bytes, want at least 64 KiB and not the lot", w[0], total)
	}
}

// TestHandshakeBoundsPreAuthAllocation: four bytes from an unauthenticated
// peer announcing a 64 MiB Hello get the connection closed — nothing of that
// size is allocated and no NAK is written back.
func TestHandshakeBoundsPreAuthAllocation(t *testing.T) {
	s := newServer(t, Config{LRC: newLRCService(t)})
	a, b := net.Pipe()
	defer a.Close()
	go s.ServeConn(b)
	if err := a.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := a.Write(binary.BigEndian.AppendUint32(nil, wire.MaxFrameSize)); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(a)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("connection not closed after an oversize Hello header: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("server wrote %d bytes back to an unauthenticated oversize Hello", len(got))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("%d bytes allocated for a 4-byte pre-auth header", grew)
	}
}
