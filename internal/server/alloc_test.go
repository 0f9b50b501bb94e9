package server

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"proverattest/internal/core"
	"proverattest/internal/protocol"
)

// These tests lock in the daemon's per-frame allocation budget. The frame
// families a hostile peer can emit at line rate — rate-limited, unknown,
// and unsolicited-response frames — must die at the serving gate without
// GC pressure: zero allocations for the first two, at most one object per
// frame anywhere on the reject path (acceptance bar; the measured paths
// below are zero today).

func newAllocRig(t testing.TB) (*Server, *deviceState) {
	t.Helper()
	s, err := New(Config{
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: testMaster,
		Golden:       core.GoldenRAMPattern(),
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := s.device("alloc-dev")
	if err != nil {
		t.Fatal(err)
	}
	return s, dev
}

func allocsPerFrame(t *testing.T, name string, limit float64, fn func()) {
	t.Helper()
	fn() // warm up
	if n := testing.AllocsPerRun(1000, fn); n > limit {
		t.Errorf("%s: %v allocs/frame, want <= %v", name, n, limit)
	}
}

func TestHandleFrameUnknownZeroAllocs(t *testing.T) {
	s, dev := newAllocRig(t)
	frame := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	allocsPerFrame(t, "unknown frame", 0, func() { s.handleFrame(dev, nil, frame, time.Now()) })
	if s.Counters().UnknownFrames == 0 {
		t.Fatal("unknown frames not counted")
	}
}

func TestHandleFrameRateLimitedZeroAllocs(t *testing.T) {
	s, dev := newAllocRig(t)
	// An empty bucket with a negligible refill rate: every frame is over
	// budget, the cheapest (and most attacker-reachable) reject of all.
	bucket := newTokenBucket(1e-9, 1)
	bucket.tokens = 0
	frame := []byte{0xDE, 0xAD}
	allocsPerFrame(t, "rate-limited frame", 0, func() { s.handleFrame(dev, bucket, frame, time.Now()) })
	if s.Counters().RateLimited == 0 {
		t.Fatal("rate-limited frames not counted")
	}
}

func TestHandleFrameUnsolicitedRespZeroAllocs(t *testing.T) {
	s, dev := newAllocRig(t)
	// A well-formed response answering no outstanding nonce: decode-into,
	// shard-locked map miss, static-error reject.
	frame := (&protocol.AttResp{Nonce: 0xFEED}).Encode()
	allocsPerFrame(t, "unsolicited response", 0, func() { s.handleFrame(dev, nil, frame, time.Now()) })
	if s.Counters().ResponsesUnsolicited == 0 {
		t.Fatal("unsolicited responses not counted")
	}
}

func TestHandleFrameMalformedRespZeroAllocs(t *testing.T) {
	s, dev := newAllocRig(t)
	// Classifies as a response (magic + version) but fails strict framing.
	frame := (&protocol.AttResp{Nonce: 1}).Encode()[:respTruncated]
	allocsPerFrame(t, "malformed response", 0, func() { s.handleFrame(dev, nil, frame, time.Now()) })
	c := s.Counters()
	if c.ResponsesMalformed == 0 || c.MalformedFrames == 0 {
		t.Fatal("malformed responses not counted on their distinct cause series")
	}
	if c.ResponsesRejected != c.ResponsesMalformed {
		t.Fatalf("rejected roll-up %d != malformed cause %d (no mismatches occurred)",
			c.ResponsesRejected, c.ResponsesMalformed)
	}
	if c.UnknownFrames != 0 {
		t.Fatal("malformed responses leaked into the unknown-kind counter")
	}
}

// TestHandleFrameMalformedStatsDistinctCause pins the accounting split:
// a frame that classifies as stats but fails strict decode lands on the
// malformed-stats series, not on unknown-kind (where it was historically
// conflated) and not on the response counters.
func TestHandleFrameMalformedStatsDistinctCause(t *testing.T) {
	s, dev := newAllocRig(t)
	frame := (&protocol.StatsReport{Received: 1}).Encode()
	frame = frame[:len(frame)-1] // classifies as stats, fails length check
	allocsPerFrame(t, "malformed stats", 0, func() { s.handleFrame(dev, nil, frame, time.Now()) })
	c := s.Counters()
	if c.MalformedFrames == 0 {
		t.Fatal("malformed stats frames not counted as malformed")
	}
	if c.UnknownFrames != 0 || c.ResponsesRejected != 0 || c.StatsReports != 0 {
		t.Fatalf("malformed stats conflated with another cause: %v", c)
	}
}

// TestHandleFrameFastAcceptZeroAllocs pins the quiescent-fleet steady
// state: an accepted O(1) fast response — decode-into, shard-locked
// memoized compare, retire — must not allocate, since a clean fleet
// emits exactly these at the attestation rate forever. Requests are
// pre-issued and responses pre-encoded so the measured region is the
// daemon's per-frame path alone.
func TestHandleFrameFastAcceptZeroAllocs(t *testing.T) {
	s, err := New(Config{
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: testMaster,
		Golden:       core.GoldenRAMPattern(),
		FastPath:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := s.device("alloc-fast-dev")
	if err != nil {
		t.Fatal(err)
	}
	key := protocol.DeriveDeviceKey(testMaster, "alloc-fast-dev")
	fr := protocol.NewFastResponder(key[:], core.GoldenRAMPattern())

	// The arming full round.
	req, err := dev.v.NewRequest()
	if err != nil {
		t.Fatal(err)
	}
	var resp protocol.AttResp
	fr.RespondInto(req, &resp)
	s.handleFrame(dev, nil, resp.Encode(), time.Now())
	if c := s.Counters(); c.ResponsesAccepted != 1 || c.ResponsesFast != 0 {
		t.Fatalf("arming round: %+v", c)
	}

	// Pre-issue enough fast rounds for the warm-ups plus AllocsPerRun.
	const rounds = 1200
	frames := make([][]byte, 0, rounds)
	for i := 0; i < rounds; i++ {
		req, err := dev.v.NewRequest()
		if err != nil {
			t.Fatal(err)
		}
		if !req.AllowFast {
			t.Fatalf("round %d: armed verifier withheld fast permission", i)
		}
		var r protocol.AttResp
		if !fr.RespondInto(req, &r) {
			t.Fatalf("round %d: clean responder fell back to the full MAC", i)
		}
		frames = append(frames, r.Encode())
	}
	i := 0
	allocsPerFrame(t, "fast accept", 0, func() { s.handleFrame(dev, nil, frames[i], time.Now()); i++ })
	c := s.Counters()
	if c.ResponsesFast != uint64(i) || c.ResponsesRejected != 0 {
		t.Fatalf("after %d fast frames: %+v", i, c)
	}
}

// respTruncated cuts a response mid-measurement: long enough to classify,
// short enough to fail DecodeAttRespInto's length check.
const respTruncated = 20

// BenchmarkHandleFrameUnsolicited times the daemon's gate on its most
// attacker-reachable reject: a well-formed response answering no
// outstanding nonce — decode-into, shard-locked map miss, static error.
// Frames carry the serving loop's gateClock sample, so the histogram
// clock is paid on the same 1-in-64 share of frames as on a connection.
func BenchmarkHandleFrameUnsolicited(b *testing.B) {
	s, dev := newAllocRig(b)
	frame := (&protocol.AttResp{Nonce: 0xFEED}).Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleFrame(dev, nil, frame, gateClock(uint64(i)))
	}
}

func TestHandleFrameStatsWithinBudget(t *testing.T) {
	s, dev := newAllocRig(t)
	frame := (&protocol.StatsReport{Received: 1}).Encode()
	// One decoded StatsReport object per heartbeat frame is the budget.
	allocsPerFrame(t, "stats frame", 1, func() { s.handleFrame(dev, nil, frame, time.Now()) })
	if dev.lastStats.Load() == nil {
		t.Fatal("stats report not retained")
	}
}

// TestDeviceHeapPerDevice pins the per-device memory cost that sizes the
// MaxDevices default: every verifier shares the daemon's golden image, so
// a device entry is a few KiB of keys, maps and counters. A per-device
// image copy (512 KiB) would fail this by a factor of thirty.
func TestDeviceHeapPerDevice(t *testing.T) {
	s, err := New(Config{
		Freshness:    protocol.FreshCounter,
		Auth:         protocol.AuthHMACSHA1,
		MasterSecret: testMaster,
		Golden:       core.GoldenRAMPattern(),
		FastPath:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := s.device(fmt.Sprintf("heap-dev-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s.Devices() != n {
		t.Fatalf("Devices = %d, want %d", s.Devices(), n)
	}
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	if per >= 16<<10 {
		t.Fatalf("live heap grew %d B per device, want < %d (golden image copied per device?)", per, 16<<10)
	}
	t.Logf("live heap per device: %d B", per)
}
