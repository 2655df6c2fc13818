package client

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// failingConn passes writes through until armed; from then on every Write
// waits for gate and fails.
type failingConn struct {
	net.Conn
	armed atomic.Bool
	gate  chan struct{}
}

var errWriteBroke = errors.New("scripted write failure")

func (c *failingConn) Write(p []byte) (int, error) {
	if c.armed.Load() {
		<-c.gate
		return 0, errWriteBroke
	}
	return c.Conn.Write(p)
}

// TestWriteFailureFailsEveryCallInFlight: 32 calls share a connection whose
// next write fails. One of them is the flusher and gets the error itself; the
// other 31 queued their frame behind it and are parked waiting for an answer
// that cannot come. The failed write closes the connection, so the reader
// fails all of them: every call returns an error and none hangs.
func TestWriteFailureFailsEveryCallInFlight(t *testing.T) {
	const calls = 32
	fc := &failingConn{gate: make(chan struct{})}
	c, err := Dial(ctx, Options{Dialer: func() (net.Conn, error) {
		a, b := net.Pipe()
		fc.Conn = a
		go okServer().serve(b)
		return fc, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc.armed.Store(true)
	errc := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() { errc <- c.Ping(ctx) }()
	}
	for c.InFlight() < calls {
		runtime.Gosched()
	}
	close(fc.gate)
	for i := 0; i < calls; i++ {
		select {
		case err := <-errc:
			if err == nil {
				t.Fatal("a call succeeded on a connection that cannot write")
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d calls hung after the write failure", calls-i, calls)
		}
	}
	if err := c.Ping(ctx); !errors.Is(err, errWriteBroke) && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("call after the failure: %v", err)
	}
}

// TestDialBoundsHelloAckAllocation: a server that answers the Hello with a
// header announcing 64 MiB makes Dial fail without allocating it.
func TestDialBoundsHelloAckAllocation(t *testing.T) {
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Dial(dctx, Options{Dialer: func() (net.Conn, error) {
		a, b := net.Pipe()
		go func() {
			defer b.Close()
			if _, err := wire.NewConn(b).ReadFrame(); err != nil {
				return
			}
			_, _ = b.Write(binary.BigEndian.AppendUint32(nil, wire.MaxFrameSize))
			_, _ = io.Copy(io.Discard, b) // until the client gives up
		}()
		return a, nil
	}})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Dial accepted a 64 MiB HelloAck")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("%d bytes allocated for a 4-byte HelloAck header", grew)
	}
}
