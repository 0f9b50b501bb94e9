package main

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// Hostile frame kinds, each dying at a different gate stage.
const (
	kindForged    = iota // well-formed AttResp answering no nonce: decode, then pending-map miss
	kindTruncated        // AttResp magic with a short body: classify, then decode fails
	kindJunk             // no known magic: classify only
	numKinds
)

// floodStream is a seeded, pre-encoded hostile frame stream cut into
// write batches at frame boundaries.
type floodStream struct {
	buf     []byte
	batches []floodBatch
	kinds   [numKinds]uint64 // frames of each kind over the whole stream
	frames  int
}

type floodBatch struct {
	lo, hi int
	kinds  [numKinds]uint64
	frames uint64
}

// buildFlood encodes frames hostile frames from seed into batches of
// about batchBytes. Equal seeds give byte-identical streams.
func buildFlood(seed int64, frames, batchBytes int) *floodStream {
	rng := rand.New(rand.NewSource(seed))
	fs := &floodStream{frames: frames}
	cur := floodBatch{}
	var payload []byte
	for i := 0; i < frames; i++ {
		k := rng.Intn(numKinds)
		payload = payload[:0]
		switch k {
		case kindForged, kindTruncated:
			r := protocol.AttResp{
				Fast:    rng.Intn(2) == 0,
				Epoch:   rng.Uint32(),
				Nonce:   rng.Uint64() | 1<<63, // the daemon's nonces count up from 1
				Counter: rng.Uint64(),
			}
			rng.Read(r.Measurement[:])
			payload = r.AppendEncode(payload)
			if k == kindTruncated {
				payload = payload[:3+rng.Intn(len(payload)-3)]
			}
		case kindJunk:
			n := 1 + rng.Intn(48)
			for j := 0; j < n; j++ {
				payload = append(payload, byte(rng.Intn(256)))
			}
			if payload[0] == 0x41 { // 'A' opens every protocol magic
				payload[0] = 0x5a
			}
		}
		fs.buf = transport.AppendFrame(fs.buf, payload)
		fs.kinds[k]++
		cur.kinds[k]++
		cur.frames++
		if len(fs.buf)-cur.lo >= batchBytes {
			cur.hi = len(fs.buf)
			fs.batches = append(fs.batches, cur)
			cur = floodBatch{lo: len(fs.buf)}
		}
	}
	if cur.frames > 0 {
		cur.hi = len(fs.buf)
		fs.batches = append(fs.batches, cur)
	}
	return fs
}

// flooder is one flood connection: it says hello as its own device,
// drains whatever the daemon sends it, and writes the hostile stream
// unpaced, so its rate is set by TCP backpressure from the daemon.
type flooder struct {
	conn net.Conn
	fs   *floodStream

	stop    atomic.Bool
	written [numKinds]uint64 // frames written, by kind
	bytes   uint64           // bytes written, hello included
	blocked time.Duration    // time inside Write
	elapsed time.Duration    // time in the write loop
	err     error

	drainDone chan struct{}
	writeDone chan struct{}
}

// startFlood dials addr, sends the hello and waits for the daemon's first
// request (so the hello is accepted before the flood starts), then writes
// batches until stopped.
func startFlood(addr, id string, fs *floodStream) (*flooder, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	f := &flooder{conn: conn, fs: fs, drainDone: make(chan struct{}), writeDone: make(chan struct{})}
	hello := (&protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: id}).Encode()
	frame := transport.AppendFrame(nil, hello)
	if _, err := conn.Write(frame); err != nil {
		conn.Close()
		return nil, err
	}
	f.bytes = uint64(len(frame))
	first := make(chan struct{})
	go func() {
		defer close(f.drainDone)
		var once sync.Once
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			if n > 0 {
				once.Do(func() { close(first) })
			}
			if err != nil {
				if err != io.EOF {
					once.Do(func() { close(first) })
				}
				return
			}
		}
	}()
	select {
	case <-first:
	case <-time.After(10 * time.Second):
		conn.Close()
		<-f.drainDone
		return nil, errTimeout("flood hello")
	}
	go f.writeLoop()
	return f, nil
}

func (f *flooder) writeLoop() {
	defer close(f.writeDone)
	start := now()
	for i := 0; !f.stop.Load(); i++ {
		b := f.fs.batches[i%len(f.fs.batches)]
		t := now()
		_, err := f.conn.Write(f.fs.buf[b.lo:b.hi])
		f.blocked += time.Duration(now() - t)
		if err != nil {
			f.err = err
			break
		}
		for k := range b.kinds {
			f.written[k] += b.kinds[k]
		}
		f.bytes += uint64(b.hi - b.lo)
	}
	f.elapsed = time.Duration(now() - start)
}

// halt stops writing and returns once the write loop has exited.
func (f *flooder) halt() {
	f.stop.Store(true)
	<-f.writeDone
}

func (f *flooder) frames() uint64 {
	var n uint64
	for _, k := range f.written {
		n += k
	}
	return n
}

func (f *flooder) close() {
	f.halt()
	f.conn.Close()
	<-f.drainDone
}
