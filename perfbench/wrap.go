package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"proverattest/internal/protocol"
)

// Every layer is timed from outside the daemon: the benchmark wraps the
// net.Conns the daemon accepts (serverConn) and, in traced executions, the
// ones provers dial (proverConn), and splits the byte streams back into
// frames to stamp each attestation round at its boundaries.

var clockBase = time.Now()

// now is a monotonic nanosecond clock shared by every stamp of a run.
func now() int64 { return int64(time.Since(clockBase)) }

// frameStream reassembles length-prefixed frames (transport's wire format)
// from arbitrary read or write chunks.
type frameStream struct {
	buf []byte
}

// feed appends p and calls fn on every frame it completes. The frame is
// only valid during the call.
func (s *frameStream) feed(p []byte, fn func(frame []byte)) {
	s.buf = append(s.buf, p...)
	off := 0
	for len(s.buf)-off >= 4 {
		n := int(binary.LittleEndian.Uint32(s.buf[off:]))
		if len(s.buf)-off-4 < n {
			break
		}
		fn(s.buf[off+4 : off+4+n])
		off += 4 + n
	}
	s.buf = append(s.buf[:0], s.buf[off:]...)
}

type roundKey struct {
	dev   string
	nonce uint64
}

// round is one honest attestation round as seen at the conn boundaries.
// All stamps come from now(); zero means the event was not seen.
type round struct {
	dev   string
	nonce uint64
	fast  bool
	// issued is the daemon's Write of the request, served the return of
	// the daemon's Read that completed the response, verdict the entry of
	// the daemon's next Read on that connection — by then the read loop
	// has finished handling the response.
	issued, served, verdict int64
	// proverIn is the prover's Read return that completed the request and
	// proverOut its Write of the response (traced executions only).
	proverIn, proverOut int64
}

// inputCap bounds the frames sampled for the layer ladder.
const inputCap = 512

// recorder collects the rounds, frame samples and waiters of one daemon
// lifetime's traffic.
type recorder struct {
	mu        sync.Mutex
	flood     map[string]bool // device IDs whose connections carry a flood
	floodConn *serverConn     // the daemon's side of the latest flood connection
	rounds    map[roundKey]*round
	last      map[string]int64 // each device's latest request write
	waiters   map[string]chan *round
	inbound   [][]byte   // sampled honest inbound frames (post-hello)
	reqs      []devFrame // sampled request frames
	ids       []string   // devices seen in hellos

	honestFrames atomic.Uint64 // post-hello frames read on honest connections
	honestOpen   atomic.Int64  // honest connections the daemon still reads
}

func newRecorder(flood ...string) *recorder {
	r := &recorder{
		flood:   map[string]bool{},
		rounds:  map[roundKey]*round{},
		last:    map[string]int64{},
		waiters: map[string]chan *round{},
	}
	for _, id := range flood {
		r.flood[id] = true
	}
	return r
}

// wait registers a channel that receives dev's next completed round.
func (r *recorder) wait(dev string) chan *round {
	ch := make(chan *round, 1)
	r.mu.Lock()
	r.waiters[dev] = ch
	r.mu.Unlock()
	return ch
}

func (r *recorder) unwait(dev string) {
	r.mu.Lock()
	delete(r.waiters, dev)
	r.mu.Unlock()
}

// hello notes a device's hello on c and reports whether c carries a flood.
func (r *recorder) hello(dev string, c *serverConn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flood[dev] {
		r.floodConn = c
		return true
	}
	r.ids = append(r.ids, dev)
	c.honest.Store(true)
	r.honestOpen.Add(1)
	return false
}

func (r *recorder) markFlood(dev string) {
	r.mu.Lock()
	r.flood[dev] = true
	r.mu.Unlock()
}

func (r *recorder) flooded() *serverConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.floodConn
}

func (r *recorder) issue(dev string, nonce uint64, t int64, frame []byte) {
	r.mu.Lock()
	r.rounds[roundKey{dev, nonce}] = &round{dev: dev, nonce: nonce, issued: t}
	r.last[dev] = t
	if len(r.reqs) < inputCap {
		r.reqs = append(r.reqs, devFrame{dev: dev, frame: append([]byte(nil), frame...)})
	}
	r.mu.Unlock()
}

func (r *recorder) lastIssue(dev string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last[dev]
}

func (r *recorder) sampleInbound(frame []byte) {
	r.mu.Lock()
	if len(r.inbound) < inputCap {
		r.inbound = append(r.inbound, append([]byte(nil), frame...))
	}
	r.mu.Unlock()
}

// serve marks dev's round as fully read by the daemon; nil when the
// response answers no request this recorder saw.
func (r *recorder) serve(dev string, nonce uint64, fast bool, t int64) *round {
	r.mu.Lock()
	defer r.mu.Unlock()
	rd := r.rounds[roundKey{dev, nonce}]
	if rd == nil || rd.served != 0 {
		return nil
	}
	rd.served, rd.fast = t, fast
	return rd
}

func (r *recorder) finish(rd *round, t int64) {
	r.mu.Lock()
	rd.verdict = t
	ch := r.waiters[rd.dev]
	r.mu.Unlock()
	if ch != nil {
		select {
		case ch <- rd:
		default:
		}
	}
}

func (r *recorder) proverIn(dev string, nonce uint64, t int64) {
	r.mu.Lock()
	if rd := r.rounds[roundKey{dev, nonce}]; rd != nil && rd.proverIn == 0 {
		rd.proverIn = t
	}
	r.mu.Unlock()
}

func (r *recorder) proverOut(dev string, nonce uint64, t int64) {
	r.mu.Lock()
	if rd := r.rounds[roundKey{dev, nonce}]; rd != nil && rd.proverOut == 0 {
		rd.proverOut = t
	}
	r.mu.Unlock()
}

// snapshot copies every round issued in [from, to).
func (r *recorder) snapshot(from, to int64) []round {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []round
	for _, rd := range r.rounds {
		if rd.issued >= from && rd.issued < to {
			out = append(out, *rd)
		}
	}
	return out
}

// pendingSince reports whether any round issued in [from, to) still lacks
// a verdict.
func (r *recorder) pendingSince(from, to int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rd := range r.rounds {
		if rd.issued >= from && rd.issued < to && rd.verdict == 0 {
			return true
		}
	}
	return false
}

func (r *recorder) completed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for _, rd := range r.rounds {
		if rd.verdict != 0 {
			n++
		}
	}
	return n
}

// settle waits until the daemon's read loop has ended on every honest
// connection, so every frame they carried has been handled and counted.
func (r *recorder) settle() {
	waitFor(ioTimeout, func() bool { return r.honestOpen.Load() == 0 })
}

// tapListener wraps every accepted connection in a serverConn.
type tapListener struct {
	net.Listener
	rec *recorder
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, rec: l.rec}, nil
}

// serverConn is the daemon's side of one connection. A flood connection is
// recognised by its hello and from then on only counts bytes, so the
// stream parsing never sits on the gate path being measured.
type serverConn struct {
	net.Conn
	rec *recorder

	flood      atomic.Bool
	honest     atomic.Bool
	readDone   atomic.Bool
	bytesIn    atomic.Uint64
	entryBytes atomic.Uint64 // bytesIn when the daemon last entered Read

	mu     sync.Mutex
	dev    string
	in     frameStream
	out    frameStream
	req    protocol.AttReq
	resp   protocol.AttResp
	served []*round // responses read, awaiting the daemon's next Read
}

func (c *serverConn) Read(p []byte) (int, error) {
	c.entryBytes.Store(c.bytesIn.Load())
	if c.flood.Load() {
		n, err := c.Conn.Read(p)
		c.bytesIn.Add(uint64(n))
		return n, err
	}
	t := now()
	c.mu.Lock()
	served := c.served
	c.served = nil
	c.mu.Unlock()
	for _, rd := range served {
		c.rec.finish(rd, t)
	}
	n, err := c.Conn.Read(p)
	c.bytesIn.Add(uint64(n))
	if n > 0 {
		t = now()
		c.mu.Lock()
		c.in.feed(p[:n], func(f []byte) { c.inbound(f, t) })
		c.mu.Unlock()
	}
	// A failed read ends the daemon's read loop on this connection: every
	// frame it carried has been handled by now.
	if err != nil && c.honest.Load() && c.readDone.CompareAndSwap(false, true) {
		c.rec.honestOpen.Add(-1)
	}
	return n, err
}

// inbound handles one complete frame read by the daemon; c.mu is held.
func (c *serverConn) inbound(f []byte, t int64) {
	if c.dev == "" {
		if h, err := protocol.DecodeHello(f); err == nil {
			c.dev = h.DeviceID
			if c.rec.hello(c.dev, c) {
				c.flood.Store(true)
			}
		}
		return
	}
	c.rec.honestFrames.Add(1)
	c.rec.sampleInbound(f)
	if protocol.ClassifyFrame(f) == protocol.FrameAttResp && protocol.DecodeAttRespInto(f, &c.resp) == nil {
		if rd := c.rec.serve(c.dev, c.resp.Nonce, c.resp.Fast, t); rd != nil {
			c.served = append(c.served, rd)
		}
	}
}

func (c *serverConn) Write(p []byte) (int, error) {
	if !c.flood.Load() {
		t := now()
		c.mu.Lock()
		c.out.feed(p, func(f []byte) {
			if protocol.ClassifyFrame(f) == protocol.FrameAttReq && protocol.DecodeAttReqInto(f, &c.req) == nil {
				c.rec.issue(c.dev, c.req.Nonce, t, f)
			}
		})
		c.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// proverConn is a prover's side of one connection in a traced execution:
// it stamps when each request finished arriving and when its response
// started leaving.
type proverConn struct {
	net.Conn
	rec *recorder
	dev string

	mu   sync.Mutex
	in   frameStream
	out  frameStream
	req  protocol.AttReq
	resp protocol.AttResp
}

func (c *proverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		t := now()
		c.mu.Lock()
		c.in.feed(p[:n], func(f []byte) {
			if protocol.ClassifyFrame(f) == protocol.FrameAttReq && protocol.DecodeAttReqInto(f, &c.req) == nil {
				c.rec.proverIn(c.dev, c.req.Nonce, t)
			}
		})
		c.mu.Unlock()
	}
	return n, err
}

func (c *proverConn) Write(p []byte) (int, error) {
	t := now()
	c.mu.Lock()
	c.out.feed(p, func(f []byte) {
		if protocol.ClassifyFrame(f) == protocol.FrameAttResp && protocol.DecodeAttRespInto(f, &c.resp) == nil {
			c.rec.proverOut(c.dev, c.resp.Nonce, t)
		}
	})
	c.mu.Unlock()
	return c.Conn.Write(p)
}
