package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"time"

	"proverattest/internal/agent"
	"proverattest/internal/cluster"
	"proverattest/internal/crypto/hmac"
	"proverattest/internal/journal"
	"proverattest/internal/obs"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// The ladder replays a workload's own recorded inputs through each
// layer's public functions, in the order the daemon calls them, so each
// end-to-end figure can be split into layer costs plus a residue: the
// private glue (locks, buckets, deadlines, syscalls, scheduling) no public
// function exposes.

// ladderInputs are the frames a workload's daemon actually handled.
type ladderInputs struct {
	inbound [][]byte // honest post-hello frames the daemon read
	reqs    []devFrame
	ids     []string
	flood   *floodStream // gate_flood only
}

type devFrame struct {
	dev   string
	frame []byte
}

func captureInputs(rec *recorder) ladderInputs {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	in := ladderInputs{ids: append([]string(nil), rec.ids...)}
	in.inbound = append(in.inbound, rec.inbound...)
	in.reqs = append(in.reqs, rec.reqs...)
	return in
}

// perOp is the median nanoseconds per call of fn over five batches, each
// sized to run at least 10 ms.
func perOp(fn func(i int)) float64 {
	n := 1
	for {
		t := now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		if now()-t >= int64(10*time.Millisecond) || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var s [5]float64
	for k := range s {
		t := now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		s[k] = float64(now()-t) / float64(n)
	}
	return median(s[:])
}

// allocsPerOp is the process-wide heap allocations per call of fn.
func allocsPerOp(n int, fn func(i int)) float64 {
	runtime.GC()
	m0 := mallocs()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(mallocs()-m0) / float64(n)
}

// replayConn serves a recorded byte stream in a loop; the rest of
// net.Conn is never called with zero deadlines.
type replayConn struct {
	net.Conn
	data []byte
	off  int
}

func (c *replayConn) Read(p []byte) (int, error) {
	if c.off == len(c.data) {
		c.off = 0
	}
	n := copy(p, c.data[c.off:])
	c.off += n
	return n, nil
}

type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// frames splits a length-prefixed stream into payloads.
func frames(stream []byte) [][]byte {
	var out [][]byte
	var fs frameStream
	fs.feed(stream, func(f []byte) { out = append(out, append([]byte(nil), f...)) })
	return out
}

func stream(payloads [][]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = transport.AppendFrame(b, p)
	}
	return b
}

// recvCost times RecvShared and counts its allocations over a stream.
func recvCost(data []byte, nframes int) (ns, allocs float64) {
	tc := transport.NewConn(&replayConn{data: data}, transport.Options{})
	recv := func(int) {
		if _, err := tc.RecvShared(); err != nil {
			panic(err) // a recorded stream that no longer parses is a benchmark bug
		}
	}
	return perOp(recv), allocsPerOp(4*nframes, recv)
}

// proverGuard is the §3.1 cost asymmetry on a real agent, in simulated
// MCU cycles: a forged request's gate cost against an authentic request's
// full measurement and fast response.
type proverGuard struct {
	gateCycles, measureCycles, fastCycles uint64
	fullMs, fastUs                        float64
	repeatable                            bool
	detail                                string
}

// replayAgent feeds one device's recorded requests through fresh real
// agents: the first full request, a forged copy of the next (its tag
// flipped) and the genuine next one, which a monitor-equipped agent
// answers fast when the request permits it.
func replayAgent(in ladderInputs) (*proverGuard, error) {
	byDev := map[string][][]byte{}
	for _, r := range in.reqs {
		byDev[r.dev] = append(byDev[r.dev], r.frame)
	}
	var dev string
	var full, next []byte
	var devs []string
	for d := range byDev {
		devs = append(devs, d)
	}
	sort.Strings(devs)
	var req protocol.AttReq
	for _, d := range devs {
		rs := byDev[d]
		for i := 0; i+1 < len(rs); i++ {
			if protocol.DecodeAttReqInto(rs[i], &req) != nil || req.AllowFast {
				continue
			}
			if protocol.DecodeAttReqInto(rs[i+1], &req) == nil && req.AllowFast {
				dev, full, next = d, rs[i], rs[i+1]
				break
			}
		}
		if dev != "" {
			break
		}
	}
	if dev == "" {
		return nil, fmt.Errorf("ladder: no device with a full request followed by a fast-permitted one")
	}
	forged := append([]byte(nil), next...)
	forged[len(forged)-1] ^= 0x01
	g := &proverGuard{repeatable: true}
	var fullMs, fastUs []float64
	for rep := 0; rep < 5; rep++ {
		a, err := agent.New(agent.Config{
			DeviceID:     dev,
			Freshness:    protocol.FreshCounter,
			Auth:         protocol.AuthHMACSHA1,
			MasterSecret: benchMaster,
			FastPath:     true,
		})
		if err != nil {
			return nil, err
		}
		c0 := a.Snapshot()
		t := now()
		if a.Process(full) == nil {
			return nil, fmt.Errorf("ladder: agent refused a recorded full request")
		}
		fullMs = append(fullMs, float64(now()-t)/1e6)
		c1 := a.Snapshot()
		if a.Process(forged) != nil {
			return nil, fmt.Errorf("ladder: agent answered a forged request")
		}
		c2 := a.Snapshot()
		t = now()
		if a.Process(next) == nil {
			return nil, fmt.Errorf("ladder: agent refused a recorded fast-permitted request")
		}
		fastUs = append(fastUs, float64(now()-t)/1e3)
		c3 := a.Snapshot()
		if c3.FastResponses != 1 {
			return nil, fmt.Errorf("ladder: agent answered the fast-permitted request with a full measurement")
		}
		m, gc, f := c1.ActiveCycles-c0.ActiveCycles, c2.ActiveCycles-c1.ActiveCycles, c3.ActiveCycles-c2.ActiveCycles
		if rep == 0 {
			g.measureCycles, g.gateCycles, g.fastCycles = m, gc, f
		} else if m != g.measureCycles || gc != g.gateCycles || f != g.fastCycles {
			g.repeatable = false
			g.detail = fmt.Sprintf("replay %d: measure=%d gate=%d fast=%d, first: %d %d %d",
				rep, m, gc, f, g.measureCycles, g.gateCycles, g.fastCycles)
		}
	}
	g.fullMs, g.fastUs = median(fullMs), median(fastUs)
	return g, nil
}

// layerCosts is one workload's ladder: every public-function cost, timed
// on that workload's inputs.
type layerCosts map[string]float64

func measureLayers(in ladderInputs, gateFlood *floodStream) (layerCosts, *proverGuard, error) {
	L := layerCosts{}
	key := protocol.DeriveDeviceKey(benchMaster, in.ids[0])

	// transport: the workload's own inbound stream (the flood for
	// gate_flood), and the request frames the daemon wrote.
	inbound := in.inbound
	if in.flood != nil {
		inbound = frames(in.flood.buf)
	}
	L["transport.recv_ns"], L["transport.allocs_per_frame"] = recvCost(stream(inbound), len(inbound))
	sendC := transport.NewConn(discardConn{}, transport.Options{WriteTimeout: 10 * time.Second})
	L["transport.send_ns"] = perOp(func(i int) { sendC.Send(in.reqs[i%len(in.reqs)].frame) })

	// protocol gate.
	L["protocol.classify_ns"] = perOp(func(i int) { protocol.ClassifyFrame(inbound[i%len(inbound)]) })
	var resps [][]byte
	for _, f := range inbound {
		if protocol.ClassifyFrame(f) == protocol.FrameAttResp {
			resps = append(resps, f)
		}
	}
	var resp protocol.AttResp
	L["protocol.decode_ns"] = perOp(func(i int) { protocol.DecodeAttRespInto(resps[i%len(resps)], &resp) })
	v, err := protocol.NewVerifier(protocol.VerifierConfig{
		Freshness:     protocol.FreshCounter,
		Auth:          protocol.NewHMACAuth(key[:]),
		AttestKey:     key[:],
		Golden:        golden,
		AllowFastPath: true,
	})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < 8; i++ {
		if _, err := v.NewRequest(); err != nil {
			return nil, nil, err
		}
	}
	miss := protocol.AttResp{Nonce: 1 << 63}
	L["protocol.check_miss_ns"] = perOp(func(i int) { v.CheckDecodedResponse(&miss) })

	// protocol issue and fast check.
	L["protocol.new_request_us"] = perOp(func(int) {
		r, _ := v.NewRequest()
		v.Abandon(r.Nonce)
	}) / 1e3
	req, err := v.NewRequest()
	if err != nil {
		return nil, nil, err
	}
	arm := protocol.AttResp{Epoch: 1, Nonce: req.Nonce, Counter: req.Counter, Measurement: protocol.Measure(key[:], req, golden)}
	if ok, err := v.CheckDecodedResponse(&arm); !ok {
		return nil, nil, fmt.Errorf("ladder: arming full response refused: %v", err)
	}
	L["protocol.check_fast_ns"] = checkFastCost(v, key[:], arm.Measurement)

	// MAC work.
	L["protocol.measure_ms"] = perOp(func(int) { protocol.Measure(key[:], req, golden) }) / 1e6
	macNs := perOp(func(int) {
		m := hmac.NewSHA1(key[:])
		m.Write(golden)
		var out [hmac.TagSize]byte
		m.SumInto(&out)
	})
	L["crypto.hmac_sha1_mb_per_s"] = float64(len(golden)) / macNs * 1e3

	// Device state.
	L["protocol.new_verifier_us"] = perOp(func(int) { newVerifier(key[:]) }) / 1e3
	L["protocol.new_verifier_bytes"] = bytesPerOp(64, func(int) { newVerifier(key[:]) })
	L["protocol.derive_key_us"] = perOp(func(i int) { protocol.DeriveDeviceKey(benchMaster, in.ids[i%len(in.ids)]) }) / 1e3

	// obs: what the daemon records per gate-rejected frame.
	reg := obs.New()
	ctr := reg.Counter("perfbench_counter", "ladder counter")
	hist := reg.Histogram("perfbench_seconds", "ladder histogram", nil)
	L["obs.counter_inc_ns"] = perOp(func(int) { ctr.Inc() })
	L["obs.observe_ns"] = perOp(func(int) { hist.Observe(200 * time.Nanosecond) })
	L["obs.clock_pair_ns"] = perOp(func(int) { _ = time.Since(time.Now()) })

	// journal: one append per recorded device snapshot.
	if err := journalCosts(L, in.ids, key[:]); err != nil {
		return nil, nil, err
	}

	// The load generator's own prover work.
	em := newEmulator(benchMaster, in.ids[0], golden, 0, 1)
	var out []byte
	reqFrame := req.Encode()
	L["loadgen.emu_full_us"] = perOp(func(int) {
		em.lastCounter, em.armed = 0, false
		out, _ = em.respond(reqFrame, out[:0])
	}) / 1e3

	// Gate-path costs over the flood stream the gate was measured with.
	if gateFlood != nil {
		ff := frames(gateFlood.buf)
		L["gate.recv_ns"], _ = recvCost(gateFlood.buf, len(ff))
		L["gate.classify_ns"] = perOp(func(i int) { protocol.ClassifyFrame(ff[i%len(ff)]) })
		var fr [][]byte
		for _, f := range ff {
			if protocol.ClassifyFrame(f) == protocol.FrameAttResp {
				fr = append(fr, f)
			}
		}
		L["gate.decode_ns"] = perOp(func(i int) { protocol.DecodeAttRespInto(fr[i%len(fr)], &resp) })
	}

	g, err := replayAgent(in)
	if err != nil {
		return nil, nil, err
	}
	return L, g, nil
}

func newVerifier(key []byte) *protocol.Verifier {
	v, err := protocol.NewVerifier(protocol.VerifierConfig{
		Freshness:     protocol.FreshCounter,
		Auth:          protocol.NewHMACAuth(key),
		AttestKey:     key,
		Golden:        golden,
		AllowFastPath: true,
	})
	if err != nil {
		panic(err) // fixed, valid configuration
	}
	return v
}

func bytesPerOp(n int, fn func(int)) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// checkFastCost times CheckDecodedResponse on valid fast responses,
// preparing each batch's requests and responses outside the timing.
func checkFastCost(v *protocol.Verifier, key []byte, digest [20]byte) float64 {
	const n = 2000
	resps := make([]protocol.AttResp, n)
	var s [5]float64
	for k := range s {
		for i := range resps {
			r, err := v.NewRequest()
			if err != nil {
				panic(err)
			}
			resps[i] = protocol.AttResp{Fast: true, Epoch: 1, Nonce: r.Nonce, Counter: r.Counter,
				Measurement: protocol.FastMAC(key, r, 1, &digest)}
		}
		t := now()
		for i := range resps {
			v.CheckDecodedResponse(&resps[i])
		}
		s[k] = float64(now()-t) / n
	}
	return median(s[:])
}

// journalCosts appends one snapshot per recorded device to a scratch
// journal without fsync, then times fsyncs of a freshly appended record.
func journalCosts(L layerCosts, ids []string, key []byte) error {
	root, err := stateRoot()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNone})
	if err != nil {
		return err
	}
	defer log.Close()
	v := newVerifier(key)
	if _, err := v.NewRequest(); err != nil {
		return err
	}
	snap := cluster.Snapshot{State: v.ExportState()}
	L["journal.append_us"] = perOp(func(i int) { log.Append(ids[i%len(ids)], &snap) }) / 1e3
	st := log.Stats()
	L["journal.record_bytes"] = float64(st.Bytes) / float64(st.Appends)
	var syncs []float64
	for i := 0; i < 31; i++ {
		if err := log.Append(ids[i%len(ids)], &snap); err != nil {
			return err
		}
		t := now()
		if err := log.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, float64(now()-t)/1e3)
	}
	L["journal.sync_us"] = median(syncs)
	return nil
}
