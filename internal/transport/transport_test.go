package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{0x41},
		[]byte("hello frames"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	var stream bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&stream, p, 0); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&stream, 0)
		if err != nil {
			t.Fatalf("ReadFrame[%d]: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&stream, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("ReadFrame on drained stream: %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var stream bytes.Buffer
	// A hostile 1 GiB length prefix must be rejected before allocation.
	stream.Write([]byte{0x00, 0x00, 0x00, 0x40})
	if _, err := ReadFrame(&stream, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized prefix: %v, want ErrFrameTooLarge", err)
	}

	if err := WriteFrame(io.Discard, bytes.Repeat([]byte{1}, 32), 16); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameRejectsEmptyAndTruncated(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), 0); !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("zero-length frame: %v, want ErrEmptyFrame", err)
	}
	if err := WriteFrame(io.Discard, nil, 0); !errors.Is(err, ErrEmptyFrame) {
		t.Fatalf("zero-length write: %v, want ErrEmptyFrame", err)
	}
	// Truncated prefix.
	if _, err := ReadFrame(bytes.NewReader([]byte{5, 0}), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated prefix: %v, want io.ErrUnexpectedEOF", err)
	}
	// Prefix promises 8 bytes, stream holds 3.
	if _, err := ReadFrame(bytes.NewReader([]byte{8, 0, 0, 0, 1, 2, 3}), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestPipeConnExchange(t *testing.T) {
	a, b := Pipe(Options{})
	defer a.Close()
	defer b.Close()

	done := make(chan error, 1)
	go func() {
		frame, err := b.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- b.Send(append([]byte("echo:"), frame...))
	}()
	if err := a.Send([]byte("ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	reply, err := a.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if string(reply) != "echo:ping" {
		t.Fatalf("reply = %q", reply)
	}
	if err := <-done; err != nil {
		t.Fatalf("peer: %v", err)
	}
}

func TestRecvTimeoutIsIdleTick(t *testing.T) {
	a, b := Pipe(Options{ReadTimeout: 20 * time.Millisecond})
	defer a.Close()
	defer b.Close()

	_, err := a.Recv()
	if err == nil || !IsTimeout(err) {
		t.Fatalf("Recv on idle pipe: %v, want timeout", err)
	}

	// The connection must remain usable after a timeout.
	go func() { b.Send([]byte("late")) }() //nolint:errcheck
	deadline := time.Now().Add(2 * time.Second)
	for {
		frame, err := a.Recv()
		if err == nil {
			if string(frame) != "late" {
				t.Fatalf("frame = %q", frame)
			}
			return
		}
		if !IsTimeout(err) || time.Now().After(deadline) {
			t.Fatalf("Recv after timeout: %v", err)
		}
	}
}

// armCounter wraps a net.Conn and counts read-deadline arms.
type armCounter struct {
	net.Conn
	arms int
}

func (c *armCounter) SetReadDeadline(t time.Time) error {
	c.arms++
	return c.Conn.SetReadDeadline(t)
}

// TestBufferedFramesArmDeadlineOnce pins the saving of the ReadTimeout
// contract: 100 frames delivered in one write reach the reader in one
// socket read, so they arm the read deadline once, not once per frame.
func TestBufferedFramesArmDeadlineOnce(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	const frames = 100
	var burst []byte
	for i := 0; i < frames; i++ {
		burst = AppendFrame(burst, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7})
	}
	go a.Write(burst) //nolint:errcheck
	counted := &armCounter{Conn: b}
	c := NewConn(counted, Options{ReadTimeout: 5 * time.Second})
	for i := 0; i < frames; i++ {
		frame, err := c.RecvShared()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if frame[0] != byte(i) {
			t.Fatalf("frame %d carries index %d", i, frame[0])
		}
	}
	if counted.arms > 2 {
		t.Fatalf("%d frames in one write armed the read deadline %d times, want <= 2", frames, counted.arms)
	}
}

// TestPartialFrameRearmsDeadline pins the other half of the contract: a
// peer that sends whole frames plus part of the next in one write and then
// stalls. The whole frames are served from the buffer even after the first
// deadline has expired, and the Recv that must wait for the rest of the
// partial frame arms a fresh deadline: it times out one ReadTimeout after
// it starts, not at the stale deadline and not never.
func TestPartialFrameRearmsDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	const whole = 3
	var burst []byte
	for i := 0; i < whole; i++ {
		burst = AppendFrame(burst, []byte("whole frame"))
	}
	burst = append(burst, AppendFrame(nil, []byte("partial frame"))[:6]...)
	go a.Write(burst) //nolint:errcheck
	c := NewConn(b, Options{ReadTimeout: timeout})

	if _, err := c.RecvShared(); err != nil {
		t.Fatalf("frame 0: %v", err)
	}
	time.Sleep(timeout + timeout/2) // the deadline armed for frame 0 expires
	for i := 1; i < whole; i++ {
		if _, err := c.RecvShared(); err != nil {
			t.Fatalf("buffered frame %d after the first deadline: %v", i, err)
		}
	}
	start := time.Now()
	_, err := c.RecvShared()
	elapsed := time.Since(start)
	if !IsTimeout(err) {
		t.Fatalf("Recv on a stalled partial frame: %v, want timeout", err)
	}
	if elapsed < timeout*9/10 || elapsed > timeout+time.Second {
		t.Fatalf("stalled partial frame timed out after %v, want about %v", elapsed, timeout)
	}
}
