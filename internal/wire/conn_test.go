package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the Write calls that reach the transport. While gate is
// non-nil every Write waits for it to close, which holds the flusher in its
// "syscall" so that what the other writers do meanwhile is deterministic.
// With fail set, Write reports it instead of writing.
type countingConn struct {
	net.Conn
	writes atomic.Int64
	closes atomic.Int64
	gate   chan struct{}
	fail   error
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	if c.fail != nil {
		return 0, c.fail
	}
	return c.Conn.Write(p)
}

func (c *countingConn) Close() error {
	c.closes.Add(1)
	return c.Conn.Close()
}

func tcpPair(t testing.TB) (net.Conn, net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	a, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-ch
	if b.err != nil {
		t.Fatal(b.err)
	}
	t.Cleanup(func() { a.Close(); b.c.Close() })
	return a, b.c
}

func pipePair(t testing.TB) (net.Conn, net.Conn) {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestConcurrentWritersCombine: N writers × M frames all arrive intact and in
// per-writer order, in fewer socket writes than frames. The first write is
// held at the gate until every other writer has queued a frame behind it, so
// the second write is known to carry at least N-1 frames.
func TestConcurrentWritersCombine(t *testing.T) {
	const writers, perWriter = 8, 200
	for name, pair := range map[string]func(testing.TB) (net.Conn, net.Conn){"pipe": pipePair, "tcp": tcpPair} {
		t.Run(name, func(t *testing.T) {
			a, b := pair(t)
			cc := &countingConn{Conn: a, gate: make(chan struct{})}
			w, r := NewConn(cc), NewConn(b)

			firstDone := make(chan struct{}, writers)
			errc := make(chan error, writers)
			for id := 0; id < writers; id++ {
				go func(id int) {
					for seq := 0; seq < perWriter; seq++ {
						// Varying lengths, so a torn or interleaved frame
						// cannot pass for a whole one.
						p := bytes.Repeat([]byte{byte(id)}, 12+(id*31+seq*7)%300)
						binary.BigEndian.PutUint32(p, uint32(id))
						binary.BigEndian.PutUint32(p[4:], uint32(seq))
						binary.BigEndian.PutUint32(p[8:], uint32(len(p)))
						if err := w.WriteFrame(p); err != nil {
							errc <- err
							return
						}
						if seq == 0 {
							firstDone <- struct{}{}
						}
					}
					errc <- nil
				}(id)
			}
			// All but the flusher return from their first WriteFrame while
			// the flusher is still held in its first Write.
			for i := 0; i < writers-1; i++ {
				<-firstDone
			}
			close(cc.gate)

			next := make([]uint32, writers)
			for i := 0; i < writers*perWriter; i++ {
				p, err := r.ReadFrame()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if len(p) < 12 || int(binary.BigEndian.Uint32(p[8:])) != len(p) {
					t.Fatalf("frame %d: torn frame of %d bytes", i, len(p))
				}
				id, seq := binary.BigEndian.Uint32(p), binary.BigEndian.Uint32(p[4:])
				if id >= writers || seq != next[id] {
					t.Fatalf("frame %d: writer %d seq %d, want seq %d", i, id, seq, next[id])
				}
				next[id]++
				for _, c := range p[12:] {
					if c != byte(id) {
						t.Fatalf("frame %d: payload of writer %d corrupted", i, id)
					}
				}
			}
			for i := 0; i < writers; i++ {
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
			}
			if n := cc.writes.Load(); n > writers*perWriter-(writers-2) {
				t.Fatalf("%d socket writes for %d frames: no combining", n, writers*perWriter)
			}
		})
	}
}

// TestWriteErrorIsStickyAndCloses: after a failed Write every later write
// returns that error, the queue is dropped and the raw connection is closed.
func TestWriteErrorIsStickyAndCloses(t *testing.T) {
	a, _ := pipePair(t)
	boom := errors.New("boom")
	cc := &countingConn{Conn: a, fail: boom}
	c := NewConn(cc)
	if err := c.WriteFrame([]byte("x")); err != boom {
		t.Fatalf("first write: %v, want boom", err)
	}
	if cc.closes.Load() == 0 {
		t.Fatal("raw connection not closed after a write error")
	}
	cc.fail = nil
	for i, write := range []func() error{
		func() error { return c.WriteFrame([]byte("y")) },
		func() error { return c.QueueRequest(&Request{ID: 1, Op: OpPing}) },
		func() error { return c.WriteResponse(&Response{ID: 1}) },
		c.Flush,
	} {
		if err := write(); err != boom {
			t.Fatalf("write %d after the failure: %v, want boom", i, err)
		}
	}
	if n := cc.writes.Load(); n != 1 {
		t.Fatalf("%d writes reached the transport, want 1", n)
	}
}

// TestSlowReaderStallsWritersAtHighWater: with the flusher stuck behind a
// peer that does not read, writers block once highWater bytes are queued;
// when the peer reads again everything arrives.
func TestSlowReaderStallsWritersAtHighWater(t *testing.T) {
	const frame, writers, perWriter = 4 << 10, 4, highWater / (4 << 10)
	const total = writers * perWriter // four times what the queue may hold
	a, b := pipePair(t)               // net.Pipe: a Write blocks until the peer reads
	w, r := NewConn(a), NewConn(b)
	var written atomic.Int64
	done := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func() {
			p := make([]byte, frame)
			for i := 0; i < perWriter; i++ {
				if err := w.WriteFrame(p); err != nil {
					done <- err
					return
				}
				written.Add(1)
			}
			done <- nil
		}()
	}
	queued := func() int {
		w.wmu.Lock()
		defer w.wmu.Unlock()
		return len(w.pending)
	}
	for queued() < highWater {
		runtime.Gosched()
	}
	time.Sleep(20 * time.Millisecond) // a writer that ignored the mark would run on
	if q := queued(); q >= highWater+frame+4 {
		t.Fatalf("queue grew to %d bytes past the %d high-water mark", q, highWater)
	}
	if n := written.Load(); n >= total {
		t.Fatal("writers were never blocked")
	}
	for i := 0; i < total; i++ {
		if p, err := r.ReadFrame(); err != nil || len(p) != frame {
			t.Fatalf("frame %d: %d bytes, %v", i, len(p), err)
		}
	}
	for i := 0; i < writers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseFlushesQueuedFrames: frames queued without a flush reach the peer
// when the connection is closed, and the peer then sees the close.
func TestCloseFlushesQueuedFrames(t *testing.T) {
	a, b := tcpPair(t)
	w, r := NewConn(a), NewConn(b)
	for id := uint64(1); id <= 3; id++ {
		if err := w.QueueResponse(&Response{ID: id, Status: StatusBadRequest, Err: "nak"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		p, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", id, err)
		}
		if resp, err := DecodeResponse(p); err != nil || resp.ID != id || resp.Err != "nak" {
			t.Fatalf("frame %d: %+v, %v", id, resp, err)
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("after the queued frames: %v, want EOF", err)
	}
}

// TestLargeFrameBypassesQueue: a frame of flushAt bytes or more that finds
// the connection idle is written from the caller's buffer, and no buffer of
// its size stays with the connection.
func TestLargeFrameBypassesQueue(t *testing.T) {
	a, b := tcpPair(t)
	w, r := NewConn(a), NewConn(b)
	body := bytes.Repeat([]byte("z"), 3*flushAt)
	errc := make(chan error, 1)
	go func() { errc <- w.WriteResponse(&Response{ID: 9, Body: body}) }()
	p, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if want := (&Response{ID: 9, Body: body}).Encode(); !bytes.Equal(p, want) {
		t.Fatalf("large frame differs from Encode: %d bytes, want %d", len(p), len(want))
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if cap(w.pending)+cap(w.spare) != 0 {
		t.Fatalf("large frame was copied: %d bytes of queue retained", cap(w.pending)+cap(w.spare))
	}
}

// TestOversizeSpareIsDropped: a burst that grew the queue past maxSpare does
// not pin that memory once it is written.
func TestOversizeSpareIsDropped(t *testing.T) {
	a, b := tcpPair(t)
	w, r := NewConn(a), NewConn(b)
	w.pending = append(make([]byte, 0, 2*maxSpare), 0, 0, 0, 0) // one empty frame in a grown queue
	w.frames = 1
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if p, err := r.ReadFrame(); err != nil || len(p) != 0 {
		t.Fatalf("frame: %d bytes, %v", len(p), err)
	}
	if cap(w.spare) > maxSpare || cap(w.pending) > maxSpare {
		t.Fatalf("retained %d / %d bytes after an oversize burst", cap(w.pending), cap(w.spare))
	}
}

// TestFrameBufferedIsExact: a whole buffered frame counts, half of one does
// not, whatever else precedes it.
func TestFrameBufferedIsExact(t *testing.T) {
	a, b := tcpPair(t)
	r := NewConn(b)
	frame := func(n int) []byte {
		p := make([]byte, 4+n)
		binary.BigEndian.PutUint32(p, uint32(n))
		return p
	}
	if r.FrameBuffered() {
		t.Fatal("empty buffer reported a frame")
	}
	second := frame(40)
	if _, err := a.Write(append(frame(10), second[:20]...)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.r.Peek(14 + 20); err != nil { // pull both pieces into the buffer
		t.Fatal(err)
	}
	if !r.FrameBuffered() {
		t.Fatal("whole first frame not reported")
	}
	if _, err := r.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if r.FrameBuffered() {
		t.Fatal("half a frame reported as buffered")
	}
	if _, err := a.Write(second[20:]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.r.Peek(len(second)); err != nil {
		t.Fatal(err)
	}
	if !r.FrameBuffered() {
		t.Fatal("completed frame not reported")
	}
}

// TestReadFrameLimit: a header announcing more than the limit fails without
// allocating what it announces.
func TestReadFrameLimit(t *testing.T) {
	a, b := pipePair(t)
	r := NewConn(b)
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrameSize)
		a.Write(hdr[:])
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := r.ReadFrameLimit(MaxHelloSize)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("frame over the limit accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("allocated %d bytes for a rejected frame", grew)
	}
}
