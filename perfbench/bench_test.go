package main

import (
	"bytes"
	"io"
	"net"
	"testing"

	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

func TestNearestRankEdges(t *testing.T) {
	one := []float64{7}
	for _, q := range []float64{0.001, 0.5, 0.99, 1} {
		if got := nearestRank(one, q); got != 7 {
			t.Errorf("n=1 q=%g: got %g, want 7", q, got)
		}
	}
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.001, 1}, {0.01, 1}, {0.5, 50}, {0.501, 51}, {0.99, 99}, {1, 100}} {
		if got := nearestRank(hundred, c.q); got != c.want {
			t.Errorf("n=100 q=%g: got %g, want %g", c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 0.5}, {100, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, p99) = %d, want 10", b)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestFloodStreamDeterministic(t *testing.T) {
	a, b := buildFlood(7, 5000, 4096), buildFlood(7, 5000, 4096)
	if !bytes.Equal(a.buf, b.buf) || a.kinds != b.kinds {
		t.Fatal("equal seeds gave different flood streams")
	}
	if c := buildFlood(8, 5000, 4096); bytes.Equal(a.buf, c.buf) {
		t.Fatal("different seeds gave the same flood stream")
	}
	// Batches tile the stream at frame boundaries and carry its counts.
	var kinds [numKinds]uint64
	lo := 0
	for _, bt := range a.batches {
		if bt.lo != lo {
			t.Fatalf("batch starts at %d, want %d", bt.lo, lo)
		}
		if n := len(frames(a.buf[bt.lo:bt.hi])); uint64(n) != bt.frames {
			t.Fatalf("batch holds %d whole frames, counted %d", n, bt.frames)
		}
		for k := range kinds {
			kinds[k] += bt.kinds[k]
		}
		lo = bt.hi
	}
	if lo != len(a.buf) || kinds != a.kinds {
		t.Fatalf("batches cover %d of %d bytes, kinds %v vs %v", lo, len(a.buf), kinds, a.kinds)
	}
	// Each frame dies where its kind says.
	var got [numKinds]uint64
	var resp protocol.AttResp
	for _, f := range frames(a.buf) {
		switch {
		case protocol.ClassifyFrame(f) == protocol.FrameUnknown:
			got[kindJunk]++
		case protocol.ClassifyFrame(f) != protocol.FrameAttResp:
			t.Fatalf("flood frame classifies as %v", protocol.ClassifyFrame(f))
		case protocol.DecodeAttRespInto(f, &resp) != nil:
			got[kindTruncated]++
		case resp.Nonce>>63 == 1:
			got[kindForged]++
		default:
			t.Fatalf("forged response with a low nonce %d", resp.Nonce)
		}
	}
	if got != a.kinds {
		t.Fatalf("classified kinds %v, generated %v", got, a.kinds)
	}
}

// scriptConn replays scripted read chunks and discards writes.
type scriptConn struct {
	net.Conn
	reads [][]byte
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.reads) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.reads[0])
	if c.reads[0] = c.reads[0][n:]; len(c.reads[0]) == 0 {
		c.reads = c.reads[1:]
	}
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) { return len(p), nil }

func TestServerConnAttribution(t *testing.T) {
	rec := newRecorder("flood-dev")
	hello := transport.AppendFrame(nil, helloFrame("dev-a"))
	stats := transport.AppendFrame(nil, (&protocol.StatsReport{Received: 1}).AppendEncode(nil))
	resp := transport.AppendFrame(nil, (&protocol.AttResp{Nonce: 1, Counter: 1}).Encode())
	other := transport.AppendFrame(nil, (&protocol.AttResp{Nonce: 99}).Encode())
	fc := &scriptConn{reads: [][]byte{hello, stats, other, resp[:10], resp[10:]}}
	c := &serverConn{Conn: fc, rec: rec}
	buf := make([]byte, 4096)
	read := func() {
		t.Helper()
		if _, err := c.Read(buf); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	read() // hello
	req := &protocol.AttReq{Freshness: protocol.FreshCounter, Auth: protocol.AuthNone, Nonce: 1, Counter: 1}
	if _, err := c.Write(transport.AppendFrame(nil, req.Encode())); err != nil {
		t.Fatal(err)
	}
	rd := rec.rounds[roundKey{"dev-a", 1}]
	if rd == nil || rd.issued == 0 {
		t.Fatal("request write not recorded as a round")
	}
	read() // stats frame between the request and its response
	read() // response to a nonce never issued
	read() // first half of the response
	if rd.served != 0 || rd.verdict != 0 {
		t.Fatal("round advanced before its response was complete")
	}
	read() // second half
	if rd.served == 0 || rd.verdict != 0 {
		t.Fatalf("after the response: served=%d verdict=%d, want served only", rd.served, rd.verdict)
	}
	if n := rec.honestOpen.Load(); n != 1 {
		t.Fatalf("%d honest connections read, want 1", n)
	}
	read() // the daemon's next read (EOF here): the verdict is in
	if rd.verdict == 0 || rd.verdict < rd.served || rd.served < rd.issued {
		t.Fatalf("stamps out of order: %+v", *rd)
	}
	if len(rec.rounds) != 1 {
		t.Fatalf("%d rounds recorded, want 1", len(rec.rounds))
	}
	if n := rec.honestFrames.Load(); n != 3 {
		t.Fatalf("honest frames %d, want 3 (stats + two responses)", n)
	}
	if n := rec.honestOpen.Load(); n != 0 {
		t.Fatalf("%d honest connections still read after EOF, want 0", n)
	}
	read()
	if n := rec.honestOpen.Load(); n != 0 {
		t.Fatalf("a second failed read moved the honest count to %d", n)
	}

	// A flood connection is recognised by its hello and only counted.
	junk := bytes.Repeat([]byte{0x5a}, 100)
	fl := &serverConn{Conn: &scriptConn{reads: [][]byte{transport.AppendFrame(nil, helloFrame("flood-dev")), junk}}, rec: rec}
	fl.Read(buf)
	fl.Read(buf)
	fl.Read(buf)
	if !fl.flood.Load() || rec.flooded() != fl {
		t.Fatal("flood connection not recognised from its hello")
	}
	if want := uint64(len(transport.AppendFrame(nil, helloFrame("flood-dev"))) + len(junk)); fl.entryBytes.Load() != want {
		t.Fatalf("entry bytes %d, want %d", fl.entryBytes.Load(), want)
	}
	if n := rec.honestFrames.Load(); n != 3 {
		t.Fatalf("flood bytes parsed as honest frames: %d", n)
	}
	if n := rec.honestOpen.Load(); n != 0 {
		t.Fatalf("a flood connection's EOF moved the honest count to %d", n)
	}
}

func TestEmulatorAcceptedByVerifier(t *testing.T) {
	if err := checkDigest(benchMaster, golden, 3); err != nil {
		t.Fatal(err)
	}
	const id = "emu-test"
	key := protocol.DeriveDeviceKey(benchMaster, id)
	v, err := protocol.NewVerifier(protocol.VerifierConfig{
		Freshness:     protocol.FreshCounter,
		Auth:          protocol.NewHMACAuth(key[:]),
		AttestKey:     key[:],
		Golden:        golden,
		AllowFastPath: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEmulator(benchMaster, id, golden, 0.5, 4)
	var stale []byte
	for i := 0; i < 40; i++ {
		req, err := v.NewRequest()
		if err != nil {
			t.Fatal(err)
		}
		frame := req.Encode()
		if i == 0 {
			stale = frame
		}
		out, err := e.respond(frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := v.CheckResponse(out); !ok {
			t.Fatalf("round %d refused: %v", i, err)
		}
	}
	if e.full < 2 || e.fast < 2 || v.FastAccepted != e.fast {
		t.Fatalf("full=%d fast=%d, verifier fast-accepted %d", e.full, e.fast, v.FastAccepted)
	}
	if _, err := e.respond(stale, nil); err != errStale || e.freshRejects != 1 {
		t.Fatalf("replayed request: err=%v freshRejects=%d", err, e.freshRejects)
	}
}
