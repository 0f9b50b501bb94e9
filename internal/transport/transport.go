// Package transport carries protocol frames over real byte streams. It is
// the seam between the in-process simulation (internal/channel delivers
// whole frames on the event loop) and the networked deployment
// (internal/server and internal/agent exchange the same frames over
// net.Conn): a minimal length-prefixed codec with strict limits, plus a
// connection wrapper that applies read/write deadlines so a stalled or
// malicious peer cannot park a goroutine forever.
//
// Wire format: each frame is a 4-byte little-endian payload length
// followed by the payload bytes. The payload is a protocol frame
// (attestation request/response, service command/response, session hello,
// stats report) exactly as produced by internal/protocol's encoders — the
// codec adds framing only, so a frame captured on the socket is
// byte-identical to the frame the in-process channel would deliver.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

const (
	// prefixSize is the length-prefix width in bytes.
	prefixSize = 4

	// DefaultMaxFrame bounds a frame payload. It must admit the largest
	// legitimate protocol frame (a service command: 38-byte header +
	// 64 KiB body + 64-byte tag) with room to spare, while keeping a
	// malicious length prefix from provoking a large allocation.
	DefaultMaxFrame = 128 << 10
)

// Codec errors. ReadFrame's errors wrap these so callers can distinguish
// protocol abuse (close the connection) from clean shutdown (io.EOF).
var (
	ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")
	ErrEmptyFrame    = errors.New("transport: zero-length frame")
)

// AppendFrame appends the encoded frame (prefix + payload) to dst and
// returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	var prefix [prefixSize]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(len(payload)))
	dst = append(dst, prefix[:]...)
	return append(dst, payload...)
}

// framePool recycles whole-frame scratch buffers for the standalone
// WriteFrame path. Pooling *[]byte (not []byte) keeps Put itself from
// allocating a slice-header box.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// WriteFrame writes one frame to w as a single Write call (so one frame
// maps to one segment on buffered transports and one synchronous transfer
// on net.Pipe). The prefix+payload image is assembled in a pooled scratch
// buffer, so steady-state writes do not allocate; payload is only read and
// never retained past the call.
func WriteFrame(w io.Writer, payload []byte, maxFrame uint32) error {
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(payload) == 0 {
		return ErrEmptyFrame
	}
	if uint32(len(payload)) > maxFrame {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, len(payload), maxFrame)
	}
	bp := framePool.Get().(*[]byte)
	buf := AppendFrame((*bp)[:0], payload)
	_, err := w.Write(buf)
	*bp = buf[:0]
	framePool.Put(bp)
	return err
}

// ReadFrame reads one frame from r, allocating a fresh payload the caller
// owns outright. Hot paths that can honour the aliasing contract should
// use ReadFrameInto (or Conn.RecvShared) instead.
func ReadFrame(r io.Reader, maxFrame uint32) ([]byte, error) {
	return ReadFrameInto(r, nil, maxFrame)
}

// ReadFrameInto reads one frame from r, reusing scratch's backing array
// for the payload when its capacity suffices (a larger frame allocates a
// bigger slice, which the caller should adopt as the next scratch). The
// length prefix is validated against maxFrame before any payload
// allocation, so a hostile prefix cannot force a large allocation. A
// truncated prefix or payload yields io.ErrUnexpectedEOF (io.EOF only when
// the stream ends cleanly between frames).
//
// Ownership: the returned slice aliases scratch; it is the caller's until
// the caller reuses scratch for the next frame. Anything that must outlive
// that point has to be copied out first.
func ReadFrameInto(r io.Reader, scratch []byte, maxFrame uint32) ([]byte, error) {
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrame
	}
	// Read the prefix through scratch when possible: a stack-local prefix
	// array would escape through the io.Reader interface and cost an
	// allocation per frame.
	var prefix []byte
	if cap(scratch) >= prefixSize {
		prefix = scratch[:prefixSize]
	} else {
		prefix = make([]byte, prefixSize)
	}
	if _, err := io.ReadFull(r, prefix); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("transport: truncated length prefix: %w", err)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(prefix)
	if n == 0 {
		return nil, ErrEmptyFrame
	}
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	var payload []byte
	if uint64(cap(scratch)) >= uint64(n) {
		payload = scratch[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("transport: truncated frame payload: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	return payload, nil
}

// Options configure a Conn.
type Options struct {
	// MaxFrame bounds payload size in both directions (0 = DefaultMaxFrame).
	MaxFrame uint32
	// ReadTimeout bounds one Recv call (0 = no deadline). A Recv that
	// times out returns a net.Error with Timeout() == true; the connection
	// stays usable, so callers can treat timeouts as idle ticks.
	//
	// The deadline is armed (now + ReadTimeout) only by a Recv that may
	// read the socket: one whose frame is not already whole in the read
	// buffer. A Recv served entirely from the buffer cannot block, so it
	// skips the deadline syscall; every Recv that can block still waits
	// at most ReadTimeout from its own start.
	ReadTimeout time.Duration
	// WriteTimeout bounds one Send call (0 = no deadline).
	WriteTimeout time.Duration
	// Metrics, when non-nil, receives per-frame byte and error accounting
	// (see NewMetrics). Recording is atomics-only, preserving the codec's
	// zero-allocation contract; the standalone ReadFrame/WriteFrame
	// helpers never record.
	Metrics *Metrics
}

// Conn frames payloads over a net.Conn. Send and Recv are each safe for
// one concurrent caller (they serialise internally), mirroring net.Conn's
// one-reader/one-writer contract.
type Conn struct {
	nc  net.Conn
	opt Options

	rmu  sync.Mutex
	br   *bufio.Reader
	rbuf []byte // RecvShared's reusable payload buffer (guarded by rmu)

	wmu  sync.Mutex
	wbuf []byte // Send's reusable prefix+payload image (guarded by wmu)
}

// NewConn wraps nc. The caller must not read from or write to nc directly
// afterwards.
func NewConn(nc net.Conn, opt Options) *Conn {
	if opt.MaxFrame == 0 {
		opt.MaxFrame = DefaultMaxFrame
	}
	return &Conn{nc: nc, opt: opt, br: bufio.NewReader(nc)}
}

// Pipe returns both ends of an in-memory, synchronous connection (net.Pipe)
// wrapped as frame connections — the deterministic loopback used by tests
// to exercise the exact socket code path without a network stack.
func Pipe(opt Options) (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a, opt), NewConn(b, opt)
}

// Send writes one frame, applying the write deadline. The prefix+payload
// image is assembled in a per-connection scratch buffer (still one Write
// call, so frame-per-segment behaviour is unchanged) and payload is never
// retained — the caller may reuse it immediately.
func (c *Conn) Send(payload []byte) error {
	err := c.send(payload)
	c.opt.Metrics.sendDone(len(payload), err)
	return err
}

func (c *Conn) send(payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.opt.WriteTimeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.opt.WriteTimeout)); err != nil {
			return err
		}
	}
	if len(payload) == 0 {
		return ErrEmptyFrame
	}
	if uint32(len(payload)) > c.opt.MaxFrame {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, len(payload), c.opt.MaxFrame)
	}
	c.wbuf = AppendFrame(c.wbuf[:0], payload)
	_, err := c.nc.Write(c.wbuf)
	return err
}

// Recv reads one frame, applying the read deadline. The returned payload
// is freshly allocated and owned by the caller outright; loops that can
// honour the aliasing contract should prefer RecvShared.
func (c *Conn) Recv() ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return c.recvLocked(nil)
}

// RecvShared reads one frame into the connection's reusable buffer. The
// returned slice is valid only until the next Recv or RecvShared call on
// this connection — a caller that retains the frame (or hands it to
// anything that might) must copy it first. This is the zero-allocation
// read path for per-frame serving loops.
func (c *Conn) RecvShared() ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.rbuf == nil {
		c.rbuf = make([]byte, 0, 512)
	}
	frame, err := c.recvLocked(c.rbuf)
	if frame != nil {
		c.rbuf = frame // adopt any growth for the next frame
	}
	return frame, err
}

func (c *Conn) recvLocked(scratch []byte) ([]byte, error) {
	if c.opt.ReadTimeout > 0 && !c.frameBuffered() {
		if err := c.nc.SetReadDeadline(time.Now().Add(c.opt.ReadTimeout)); err != nil {
			return nil, err
		}
	}
	frame, err := ReadFrameInto(c.br, scratch, c.opt.MaxFrame)
	c.opt.Metrics.recvDone(frame, err)
	return frame, err
}

// frameBuffered reports whether the next frame (prefix and payload) is
// already whole in the read buffer, so reading it cannot touch the socket.
func (c *Conn) frameBuffered() bool {
	n := c.br.Buffered()
	if n < prefixSize {
		return false
	}
	prefix, _ := c.br.Peek(prefixSize) // buffered: no I/O, cannot fail
	return uint64(n) >= prefixSize+uint64(binary.LittleEndian.Uint32(prefix))
}

// SetReadTimeout replaces the per-Recv deadline for subsequent reads.
// It lets a server hold the first frame of a connection to a short
// hello deadline and then relax to the steady-state read timeout once
// the peer has proven it speaks the protocol. It must not be called
// concurrently with Recv or RecvShared (it serialises on the read lock,
// so a call made between reads is safe).
func (c *Conn) SetReadTimeout(d time.Duration) {
	c.rmu.Lock()
	c.opt.ReadTimeout = d
	c.rmu.Unlock()
}

// Close closes the underlying connection, unblocking any pending Send or
// Recv.
func (c *Conn) Close() error { return c.nc.Close() }

// LocalAddr reports the underlying connection's local address.
func (c *Conn) LocalAddr() net.Addr { return c.nc.LocalAddr() }

// RemoteAddr reports the underlying connection's remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// IsTimeout reports whether err is a deadline expiry — an idle tick for
// loops that use ReadTimeout as a heartbeat interval.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
