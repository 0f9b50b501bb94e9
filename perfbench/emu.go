package main

import (
	stdhmac "crypto/hmac"
	stdsha1 "crypto/sha1"
	"errors"
	"fmt"
	"math/rand"

	"proverattest/internal/protocol"
)

// emulator is the benchmark's own minimal prover: it answers attestation
// requests like an honest device with a write monitor, but with none of
// the simulated MCU behind internal/agent, so the enroll workload's heap
// and CPU are the daemon's own. The full measurement uses the standard
// library's HMAC-SHA1 (checked digest-equal to protocol.Measure); the fast
// response uses protocol.FastMAC.
type emulator struct {
	id     string
	key    [20]byte
	golden []byte

	// fullShare is the probability of answering a fast-permitted request
	// with a full measurement anyway (drawn from rng); 0 answers fast
	// whenever permitted.
	fullShare float64
	rng       *rand.Rand

	armed       bool
	epoch       uint32
	digest      [20]byte
	lastCounter uint64

	freshRejects uint64 // requests refused as stale (must stay 0)
	full, fast   uint64
	req          protocol.AttReq
	resp         protocol.AttResp
}

func newEmulator(master []byte, id string, golden []byte, fullShare float64, seed int64) *emulator {
	return &emulator{
		id:        id,
		key:       protocol.DeriveDeviceKey(master, id),
		golden:    golden,
		fullShare: fullShare,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// measure is HMAC-SHA1(K_Attest, signed-request ‖ memory) with the
// standard library.
func measure(key []byte, req *protocol.AttReq, memory []byte) [20]byte {
	m := stdhmac.New(stdsha1.New, key)
	m.Write(req.SignedBytes())
	m.Write(memory)
	var out [20]byte
	m.Sum(out[:0])
	return out
}

var errStale = errors.New("emulator: stale request counter")

// respond answers one request frame with an encoded response appended to
// dst.
func (e *emulator) respond(frame, dst []byte) ([]byte, error) {
	if err := protocol.DecodeAttReqInto(frame, &e.req); err != nil {
		return dst, fmt.Errorf("emulator %s: %w", e.id, err)
	}
	if e.req.Counter <= e.lastCounter {
		e.freshRejects++
		return dst, errStale
	}
	e.lastCounter = e.req.Counter
	e.resp = protocol.AttResp{Nonce: e.req.Nonce, Counter: e.req.Counter}
	if e.req.AllowFast && e.armed && (e.fullShare == 0 || e.rng.Float64() >= e.fullShare) {
		e.resp.Fast = true
		e.resp.Epoch = e.epoch
		e.resp.Measurement = protocol.FastMAC(e.key[:], &e.req, e.epoch, &e.digest)
		e.fast++
		return e.resp.AppendEncode(dst), nil
	}
	e.resp.Measurement = measure(e.key[:], &e.req, e.golden)
	e.full++
	if !e.armed {
		// Only the first full measurement arms the verifier's fast record;
		// later full answers report epoch 0, which leaves that record in
		// place. A re-arm per full answer would race requests the daemon
		// issued before its verdict on the re-arming response.
		e.armed = true
		e.epoch = 1
		e.digest = e.resp.Measurement
		e.resp.Epoch = e.epoch
	}
	return e.resp.AppendEncode(dst), nil
}

// checkDigest is the emulator's correctness precondition: its standard
// library measurement must equal protocol.Measure on a seeded request.
func checkDigest(master, golden []byte, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	key := protocol.DeriveDeviceKey(master, fmt.Sprintf("digest-check-%d", rng.Int63()))
	req := &protocol.AttReq{
		Freshness: protocol.FreshCounter,
		Auth:      protocol.AuthHMACSHA1,
		Nonce:     rng.Uint64(),
		Counter:   rng.Uint64(),
	}
	if got, want := measure(key[:], req, golden), protocol.Measure(key[:], req, golden); got != want {
		return fmt.Errorf("emulator digest %x != protocol.Measure %x", got, want)
	}
	return nil
}
