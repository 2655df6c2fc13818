package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Conn frames messages over a byte stream. One goroutine may read while any
// number write, through a combining writer (DESIGN §9): a writer appends its
// frame to the pending queue under wmu and, unless a flush is under way,
// becomes the flusher — it swaps the queue out, releases the lock, issues
// one Write for everything queued and repeats until the queue is empty.
// Writers that arrive meanwhile append and return. Frames never interleave
// and one writer's frames keep their order.
type Conn struct {
	raw net.Conn
	r   *bufio.Reader

	wmu      sync.Mutex
	drained  sync.Cond        // signalled when the flusher takes the queue or stops
	pending  []byte           // framed bytes not yet handed to a Write
	frames   int              // frames in pending
	spare    []byte           // the flusher's other buffer, swapped with pending
	flushing bool             // some goroutine is in drain
	werr     error            // first write error; sticky
	onWrite  func(frames int) // see OnWrite
}

const (
	// flushAt: a queue this long is flushed even by a Queue* call, as a full
	// bufio.Writer would be, and a frame this long that finds the connection
	// idle is written from the caller's buffer without a copy.
	flushAt = 64 << 10
	// highWater: writers block behind a flush in progress with this much
	// queued, so a peer that stops reading cannot grow the queue.
	highWater = 256 << 10
	// maxSpare: a larger buffer is not kept between flushes, so one bulk
	// response does not pin its size for the life of the connection.
	maxSpare = 1 << 20
)

// NewConn wraps a network connection.
func NewConn(raw net.Conn) *Conn {
	c := &Conn{raw: raw, r: bufio.NewReaderSize(raw, 64<<10), onWrite: func(int) {}}
	c.drained.L = &c.wmu
	return c
}

// Close writes out frames queued but not yet flushed (a NAK followed by a
// close must reach the peer), unless another goroutine is flushing, and
// closes the underlying connection. A second bounds that flush.
func (c *Conn) Close() error {
	_ = c.raw.SetWriteDeadline(time.Now().Add(time.Second)) // best effort: the close follows either way
	_ = c.Flush()
	return c.raw.Close()
}

// RemoteAddr reports the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// SetReadDeadline bounds future ReadFrame calls (idle-connection reaping).
// The zero time clears the deadline.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetDeadline bounds future reads and writes (context-deadline RPCs).
// The zero time clears the deadline.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// OnWrite registers f, which the flushing goroutine calls ahead of each
// socket write with the number of frames the write carries.
func (c *Conn) OnWrite(f func(frames int)) {
	c.wmu.Lock()
	c.onWrite = f
	c.wmu.Unlock()
}

// WriteFrame queues one length-prefixed frame and flushes. A nil return
// means the frame was written or is queued behind a flush in progress; if
// that flush fails, every later write returns its error (see drain).
func (c *Conn) WriteFrame(payload []byte) error {
	var head [4]byte
	return c.send(head[:], payload, true)
}

// send queues the frame head[4:]+body, filling head[:4] with its length,
// and flushes if asked to or if the queue has reached flushAt anyway.
func (c *Conn) send(head, body []byte, flush bool) error {
	n := len(head) - 4 + len(body)
	if n > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrameSize)
	}
	binary.BigEndian.PutUint32(head, uint32(n))
	c.wmu.Lock()
	for c.flushing && len(c.pending) >= highWater && c.werr == nil {
		c.drained.Wait()
	}
	if c.werr != nil {
		err := c.werr
		c.wmu.Unlock()
		return err
	}
	direct := n >= flushAt && !c.flushing && len(c.pending) == 0
	if !direct {
		c.pending = append(append(c.pending, head...), body...)
		c.frames++
		if c.flushing || !flush && len(c.pending) < flushAt {
			c.wmu.Unlock()
			return nil
		}
	}
	c.flushing = true
	onWrite := c.onWrite
	c.wmu.Unlock()
	var err error
	if direct {
		onWrite(1)
		// Copying head keeps the caller's on its stack.
		bufs := net.Buffers{append([]byte(nil), head...), body}
		_, err = bufs.WriteTo(c.raw)
	}
	return c.drain(err)
}

// Flush writes out the queue unless another goroutine is already doing so.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	if c.flushing || len(c.pending) == 0 {
		err := c.werr
		c.wmu.Unlock()
		return err
	}
	c.flushing = true
	c.wmu.Unlock()
	return c.drain(nil)
}

// drain is the flusher's loop; the caller has set flushing, and err is the
// outcome of a write it already made. The first error sticks, drops the
// queue and closes the connection: a writer whose queued frame is lost
// learns of it from whoever reads the connection.
func (c *Conn) drain(err error) error {
	for {
		c.wmu.Lock()
		if err != nil {
			c.werr, c.pending, c.frames = err, nil, 0
		}
		if len(c.pending) == 0 {
			c.flushing = false
			c.wmu.Unlock()
			c.drained.Broadcast()
			if err != nil {
				_ = c.raw.Close() // the write error is the one to report
			}
			return err
		}
		buf, frames, onWrite := c.pending, c.frames, c.onWrite
		c.pending, c.frames, c.spare = c.spare[:0], 0, nil
		c.wmu.Unlock()
		c.drained.Broadcast()
		onWrite(frames)
		if _, err = c.raw.Write(buf); err == nil && cap(buf) <= maxSpare {
			c.spare = buf // only the flusher touches spare
		}
	}
}

// WriteRequest queues the request envelope as one frame and flushes.
func (c *Conn) WriteRequest(r *Request) error { return c.sendRequest(r, true) }

// QueueRequest is WriteRequest without the flush, so that a burst can share
// one; the caller owes a Flush.
func (c *Conn) QueueRequest(r *Request) error { return c.sendRequest(r, false) }

func (c *Conn) sendRequest(r *Request, flush bool) error {
	var head [14]byte
	binary.BigEndian.PutUint64(head[4:], r.ID)
	binary.BigEndian.PutUint16(head[12:], uint16(r.Op))
	return c.send(head[:], r.Body, flush)
}

// WriteResponse queues the response envelope as one frame and flushes.
func (c *Conn) WriteResponse(r *Response) error { return c.sendResponse(r, true) }

// QueueResponse is WriteResponse without the flush; see QueueRequest.
func (c *Conn) QueueResponse(r *Response) error { return c.sendResponse(r, false) }

func (c *Conn) sendResponse(r *Response, flush bool) error {
	var arr [32]byte
	head := binary.BigEndian.AppendUint64(arr[:4], r.ID)
	head = binary.BigEndian.AppendUint16(head, uint16(r.Status))
	head = binary.AppendUvarint(head, uint64(len(r.Err)))
	head = append(head, r.Err...)
	return c.send(head, r.Body, flush)
}

// ReadFrame receives one frame. Only one goroutine may read at a time.
func (c *Conn) ReadFrame() ([]byte, error) { return c.ReadFrameLimit(MaxFrameSize) }

// ReadFrameLimit is ReadFrame with a tighter bound on what the peer may
// announce: nothing is allocated for a frame larger than limit, so four
// bytes from an unauthenticated peer (MaxHelloSize) cost four bytes.
func (c *Conn) ReadFrameLimit(limit int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > uint32(limit) {
		return nil, fmt.Errorf("wire: incoming frame of %d bytes exceeds limit %d", n, limit)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// FrameBuffered reports whether a whole frame — not half of one — is in the
// read buffer, so that the next ReadFrame will not touch the socket.
func (c *Conn) FrameBuffered() bool {
	if c.r.Buffered() < 4 {
		return false
	}
	hdr, _ := c.r.Peek(4) // cannot fail: the four bytes are buffered
	return uint32(c.r.Buffered()-4) >= binary.BigEndian.Uint32(hdr)
}

// Protocol constants.
const (
	// Magic begins every Hello.
	Magic = "RLS1"
	// Version is the protocol revision.
	Version = 1
	// MaxHelloSize bounds a Hello or HelloAck frame.
	MaxHelloSize = 4 << 10
)

// Hello is the connection-open handshake carrying the client identity: the
// Distinguished Name from the (simulated) X.509 credential plus a shared
// secret standing in for the GSI proof of possession.
type Hello struct {
	DN    string
	Token string
}

// Encode serializes the hello frame.
func (h *Hello) Encode() []byte {
	e := NewEncoder(len(Magic) + 2 + len(h.DN) + len(h.Token) + 8)
	e.buf = append(e.buf, Magic...)
	e.U16(Version)
	e.String(h.DN)
	e.String(h.Token)
	return e.Bytes()
}

// DecodeHello parses a hello frame.
func DecodeHello(payload []byte) (*Hello, error) {
	if len(payload) < len(Magic) || string(payload[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("wire: bad magic in hello")
	}
	d := NewDecoder(payload[len(Magic):])
	v := d.U16()
	if d.Err() == nil && v != Version {
		return nil, fmt.Errorf("wire: protocol version %d, want %d", v, Version)
	}
	h := &Hello{DN: d.String(), Token: d.String()}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return h, nil
}

// HelloAck is the server's answer to a Hello.
type HelloAck struct {
	Status Status
	Detail string // human-readable rejection reason, or server banner
}

// Encode serializes the ack frame.
func (a *HelloAck) Encode() []byte {
	e := NewEncoder(4 + len(a.Detail))
	e.U16(uint16(a.Status))
	e.String(a.Detail)
	return e.Bytes()
}

// DecodeHelloAck parses an ack frame.
func DecodeHelloAck(payload []byte) (*HelloAck, error) {
	d := NewDecoder(payload)
	a := &HelloAck{Status: Status(d.U16()), Detail: d.String()}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return a, nil
}

// Request is the envelope for one RPC call.
type Request struct {
	ID   uint64
	Op   Op
	Body []byte
}

// Encode serializes the request envelope.
func (r *Request) Encode() []byte {
	e := NewEncoder(10 + len(r.Body))
	e.U64(r.ID)
	e.U16(uint16(r.Op))
	e.buf = append(e.buf, r.Body...)
	return e.Bytes()
}

// DecodeRequest parses a request envelope; Body aliases the payload.
func DecodeRequest(payload []byte) (*Request, error) {
	if len(payload) < 10 {
		return nil, ErrTruncated
	}
	return &Request{
		ID:   binary.BigEndian.Uint64(payload),
		Op:   Op(binary.BigEndian.Uint16(payload[8:])),
		Body: payload[10:],
	}, nil
}

// Response is the envelope for one RPC reply.
type Response struct {
	ID     uint64
	Status Status
	Err    string // populated when Status != StatusOK
	Body   []byte
}

// Encode serializes the response envelope.
func (r *Response) Encode() []byte {
	e := NewEncoder(16 + len(r.Err) + len(r.Body))
	e.U64(r.ID)
	e.U16(uint16(r.Status))
	e.String(r.Err)
	e.buf = append(e.buf, r.Body...)
	return e.Bytes()
}

// DecodeResponse parses a response envelope; Body aliases the payload.
func DecodeResponse(payload []byte) (*Response, error) {
	d := NewDecoder(payload)
	r := &Response{ID: d.U64(), Status: Status(d.U16()), Err: d.String()}
	if d.Err() != nil {
		return nil, d.Err()
	}
	r.Body = d.buf
	return r, nil
}
