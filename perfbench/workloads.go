package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"proverattest/internal/agent"
	"proverattest/internal/journal"
	"proverattest/internal/protocol"
	"proverattest/internal/server"
)

// Workload sizing. Periods leave each round's pipeline idle before the
// next request and still give every latency distribution of a 30-second
// window well over 1000 samples.
const (
	attestPeriod    = 15 * time.Millisecond // two real agents, open loop
	floodPeriod     = 10 * time.Millisecond // honest emulator beside the flood
	fleetSize       = 32                    // background fleet enrolled at every bring-up
	segments        = 6                     // bring-ups, each measured for 1/6 of the window, per attest/gate_flood run
	enrollN         = 64                    // devices per enroll cycle
	warmUp          = 300 * time.Millisecond
	floodFrames     = 1 << 16
	floodBatchBytes = 64 << 10
	probeWindow     = time.Second
)

// workers is the load generator's connection and goroutine budget.
func workers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

type check struct {
	name   string
	ok     bool
	detail string
}

// result is one execution of a workload (untraced or traced).
type result struct {
	traced bool

	setup, heap       []float64 // one per bring-up or enroll cycle
	enroll, reconnect []float64 // session times in ns, dial to verdict, by pass
	sessionWorkers    int       // connections the sessions ran on at once
	verified, frames  []float64 // one per window or enroll cycle
	full, fast        []float64 // round latencies in ns, misses included
	attempted, failed uint64

	gates       []*gateWindow // flood windows (gate_flood) or the gate probe
	journalAppd []float64     // journal appends per device over both passes, per enroll cycle
	journalP1   []float64     // journal appends per device during pass 1, per enroll cycle
	spans       []round       // traced rounds
	inputs      ladderInputs
	checks      []check
}

func (res *result) check(name string, ok bool, format string, args ...any) {
	res.checks = append(res.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// foldWindow adds the live provers' rounds issued in [from, to) to the
// latency distributions. A round without a verdict is a miss: it counts
// as failed and enters both distributions with the time it had waited when
// the run gave up on it, a lower bound on its latency.
func (res *result) foldWindow(rec *recorder, live map[string]bool, from, to, gaveUp int64) {
	for _, rd := range rec.snapshot(from, to) {
		if !live[rd.dev] {
			continue
		}
		res.attempted++
		if rd.verdict == 0 {
			res.failed++
			res.full = append(res.full, float64(gaveUp-rd.issued))
			res.fast = append(res.fast, float64(gaveUp-rd.issued))
			continue
		}
		res.addRound(rd)
	}
}

func (res *result) addRound(rd round) {
	lat := float64(rd.verdict - rd.issued)
	if rd.fast {
		res.fast = append(res.fast, lat)
	} else {
		res.full = append(res.full, lat)
	}
	if res.traced && rd.proverIn != 0 && rd.proverOut != 0 {
		res.spans = append(res.spans, rd)
	}
}

// foldSessions adds the rounds of enroll-style sessions: each answered
// exactly one request, so the rounds the daemon read a response for are
// the sessions' rounds.
func (res *result) foldSessions(rec *recorder, sessions int) {
	res.attempted += uint64(sessions)
	n := 0
	for _, rd := range rec.snapshot(0, math.MaxInt64) {
		if rd.served == 0 {
			continue
		}
		n++
		if rd.verdict == 0 {
			res.failed++
			continue
		}
		res.addRound(rd)
	}
	if n < sessions {
		res.failed += uint64(sessions - n)
	}
}

func deviceIDs(rng *rand.Rand, prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%016x", prefix, rng.Uint64())
	}
	return ids
}

func emulators(rng *rand.Rand, ids []string, fullShare float64) []*emulator {
	out := make([]*emulator, len(ids))
	for i, id := range ids {
		out[i] = newEmulator(benchMaster, id, golden, fullShare, rng.Int63())
	}
	return out
}

// bringUp starts a daemon and enrolls a background fleet through it on a
// single connection at a time: pass 1 (dial, hello, one full round) then
// pass 2 (redial, one fast round), recording the sessions and the fleet's
// heap per device. One worker keeps the bring-up's session times free of
// contention between sessions, which the enroll workload measures.
func bringUp(res *result, cfg server.Config, rec *recorder, fleet []*emulator) (*rig, error) {
	r, err := startRig(cfg, rec, nil)
	if err != nil {
		return nil, err
	}
	h0 := liveHeap()
	p1, err := r.pass(fleet, 1, res.traced)
	if err != nil {
		r.close()
		return nil, err
	}
	h1 := liveHeap()
	p2, err := r.pass(fleet, 1, res.traced)
	if err != nil {
		r.close()
		return nil, err
	}
	res.enroll = append(res.enroll, p1...)
	res.reconnect = append(res.reconnect, p2...)
	res.sessionWorkers = 1
	res.heap = append(res.heap, (h1-h0)/float64(len(fleet)))
	return r, nil
}

// window measures the steady state for d: accepted responses and frames
// consumed per second from the daemon's counters.
func window(res *result, r *rig, d time.Duration) (from, to int64, c0, c1 server.Counters) {
	c0 = r.srv.Counters()
	t0 := time.Now()
	from = now()
	time.Sleep(d)
	to = now()
	c1 = r.srv.Counters()
	secs := time.Since(t0).Seconds()
	res.verified = append(res.verified, float64(c1.ResponsesAccepted-c0.ResponsesAccepted)/secs)
	res.frames = append(res.frames, float64(framesIn(c1)-framesIn(c0))/secs)
	return from, to, c0, c1
}

// framesIn counts every frame the daemon consumed, hellos included.
func framesIn(c server.Counters) uint64 { return c.FramesIn + c.ConnsAccepted + c.ConnsRejected }

// drainRounds waits until every round issued in [from, to) has a verdict
// or the grace period ends, and returns when the run gave up.
func drainRounds(rec *recorder, from, to int64) int64 {
	waitFor(3*time.Second, func() bool { return !rec.pendingSince(from, to) })
	return now()
}

// verdictChecks compares the daemon's verdict counters with the honest
// provers' rounds: every verdict the daemon reached on an honest round is
// an accept or a refusal, so accepts beyond that mean a hostile frame was
// accepted. A refused fast response is a round failure, not an error: the
// daemon drops a device's fast record when a request went out before the
// verdict that re-armed it, and demands the full MAC again. A refused full
// measurement from an honest prover is an error.
func verdictChecks(res *result, r *rig, c server.Counters) {
	res.failed += c.ResponsesMismatched + c.ResponsesFastRejected
	res.check("honest_measurements_verified", c.ResponsesMismatched == 0,
		"full measurements refused: %d", c.ResponsesMismatched)
	seen := r.rec.completed()
	res.check("no_hostile_frame_accepted", c.ResponsesAccepted+c.ResponsesMismatched+c.ResponsesFastRejected == seen,
		"daemon accepted %d and refused %d+%d responses; honest rounds with verdicts %d",
		c.ResponsesAccepted, c.ResponsesMismatched, c.ResponsesFastRejected, seen)
}

func emulatorChecks(res *result, emus ...*emulator) {
	var stale uint64
	for _, e := range emus {
		stale += e.freshRejects
	}
	res.check("device_freshness_rejects_zero", stale == 0, "emulated provers refused %d stale requests", stale)
}

// runAttest: two real agents on a fixed period, one full-MAC only and one
// with the write-monitor fast path; no adversary.
func runAttest(seed int64, d time.Duration, traced, probe bool) (*result, error) {
	res := &result{traced: traced}
	rng := rand.New(rand.NewSource(seed))
	var fleets []*emulator
	for seg := 0; seg < segments; seg++ {
		var live []*liveProver
		for i, id := range deviceIDs(rng, "attest", 2) {
			a, err := agent.New(agent.Config{
				DeviceID:     id,
				Freshness:    protocol.FreshCounter,
				Auth:         protocol.AuthHMACSHA1,
				MasterSecret: benchMaster,
				FastPath:     i == 1,
			})
			if err != nil {
				return nil, err
			}
			live = append(live, &liveProver{id: id, agent: a})
		}
		fleet := emulators(rng, deviceIDs(rng, "fleet", fleetSize), 0)
		fleets = append(fleets, fleet...)
		t0 := time.Now()
		r, err := bringUp(res, daemonConfig(attestPeriod), newRecorder(), fleet)
		if err != nil {
			return nil, err
		}
		if err := r.connect(live[0], traced); err != nil {
			return nil, err
		}
		// Both agents run on the daemon's one period, so their relative
		// phase, fixed for a connection's lifetime, decides whether the
		// fast agent's rounds overlap the full agent's measurement and
		// verdict. Each segment connects the fast agent at a seeded offset
		// inside its own slice of the period: every run covers the same
		// spread of phases. The wait is not set-up work.
		frac := (float64(seg) + rng.Float64()) / segments
		wait := phaseWait(r.rec.lastIssue(live[0].id), frac)
		time.Sleep(wait)
		if err := r.connect(live[1], traced); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, (time.Since(t0) - wait).Seconds())

		time.Sleep(warmUp)
		from, to, _, _ := window(res, r, d/segments)
		res.foldWindow(r.rec, map[string]bool{live[0].id: true, live[1].id: true}, from, to, drainRounds(r.rec, from, to))
		last := seg == segments-1
		if probe && last {
			g, err := gateProbe(r, seed, probeWindow)
			if err != nil {
				return nil, err
			}
			res.gates = append(res.gates, g)
		}
		if last {
			res.inputs = captureInputs(r.rec)
		}
		var stale, forged, malformed uint64
		for _, p := range live {
			st := p.agent.Snapshot()
			stale, forged, malformed = stale+st.FreshnessRejected, forged+st.AuthRejected, malformed+st.Malformed
			if err := p.stop(); err != nil {
				return nil, fmt.Errorf("agent %s: %w", p.id, err)
			}
		}
		res.check("agent_gate_clean", stale+forged+malformed == 0,
			"agents rejected %d stale, %d unauthentic, %d malformed requests", stale, forged, malformed)
		r.rec.settle()
		verdictChecks(res, r, r.srv.Counters())
		if err := r.close(); err != nil {
			return nil, err
		}
	}
	emulatorChecks(res, fleets...)
	res.checks = dedupeChecks(res.checks)
	return res, nil
}

// phaseWait is how long to wait so the next connection's requests go out
// frac of an attestation period after the request written at last.
func phaseWait(last int64, frac float64) time.Duration {
	period := int64(attestPeriod)
	at := last + int64(frac*float64(period))
	for at < now() {
		at += period
	}
	return time.Duration(at - now())
}

// runGateFlood: one honest emulated prover on a fixed period (half its
// permitted rounds answered with the full MAC, half fast) beside one flood
// connection writing the seeded hostile stream unpaced.
func runGateFlood(seed int64, d time.Duration, traced bool) (*result, error) {
	res := &result{traced: traced}
	rng := rand.New(rand.NewSource(seed))
	floodID := fmt.Sprintf("flood-%016x", rng.Uint64())
	fs := buildFlood(seed, floodFrames, floodBatchBytes)
	var emus []*emulator
	for seg := 0; seg < segments; seg++ {
		id := deviceIDs(rng, "honest", 1)[0]
		he := newEmulator(benchMaster, id, golden, 0.5, rng.Int63())
		honest := &liveProver{id: id, emu: he}
		fleet := emulators(rng, deviceIDs(rng, "fleet", fleetSize), 0)
		emus = append(append(emus, fleet...), he)
		t0 := time.Now()
		r, err := bringUp(res, daemonConfig(floodPeriod), newRecorder(floodID), fleet)
		if err != nil {
			return nil, err
		}
		if err := r.connect(honest, traced); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())

		cStart := r.srv.Counters()
		hStart := r.rec.honestFrames.Load()
		f, err := startFlood(r.addr, floodID, fs)
		if err != nil {
			return nil, err
		}
		time.Sleep(warmUp)
		m0 := mallocs()
		from, to, c0, c1 := window(res, r, d/segments)
		m1 := mallocs()
		f.halt()
		fc := r.rec.flooded()
		drained := fc != nil && waitFor(5*time.Second, func() bool { return fc.entryBytes.Load() == f.bytes })
		res.foldWindow(r.rec, map[string]bool{honest.id: true}, from, to, drainRounds(r.rec, from, to))
		res.gates = append(res.gates, newGateWindow(c0, c1, m1-m0, to-from, f))
		if err := honest.stop(); err != nil {
			return nil, fmt.Errorf("honest prover: %w", err)
		}
		r.rec.settle()
		cEnd := r.srv.Counters()
		if seg == segments-1 {
			res.inputs = captureInputs(r.rec)
			res.inputs.flood = fs
		}
		res.check("flood_drained", drained, "daemon read %d of %d flood bytes", entryBytes(fc), f.bytes)
		floodCauses(res, cStart, cEnd, f, r.rec.honestFrames.Load()-hStart)
		res.check("flood_write_error_free", f.err == nil, "flood writer: %v", f.err)
		verdictChecks(res, r, cEnd)
		f.close()
		if err := r.close(); err != nil {
			return nil, err
		}
	}
	emulatorChecks(res, emus...)
	res.checks = dedupeChecks(res.checks)
	return res, nil
}

func entryBytes(c *serverConn) uint64 {
	if c == nil {
		return 0
	}
	return c.entryBytes.Load()
}

// floodCauses checks that every flood frame the daemon read is counted
// under exactly one reject cause, the cause its kind dies at.
func floodCauses(res *result, a, b server.Counters, f *flooder, honestFrames uint64) {
	unsol := b.ResponsesUnsolicited - a.ResponsesUnsolicited
	malformed := b.MalformedFrames - a.MalformedFrames
	unknown := b.UnknownFrames - a.UnknownFrames
	limited := (b.RateLimited - a.RateLimited) + (b.TierLimited - a.TierLimited) + (b.DaemonRateLimited - a.DaemonRateLimited)
	read := (b.FramesIn - a.FramesIn) - honestFrames
	res.check("flood_frames_one_cause_each",
		unsol+malformed+unknown+limited == read && read == f.frames(),
		"causes unsolicited=%d malformed=%d unknown=%d limited=%d sum=%d, flood frames read=%d written=%d",
		unsol, malformed, unknown, limited, unsol+malformed+unknown+limited, read, f.frames())
	res.check("flood_causes_match_kinds",
		unsol == f.written[kindForged] && malformed == f.written[kindTruncated] && unknown == f.written[kindJunk],
		"forged=%d truncated=%d junk=%d", f.written[kindForged], f.written[kindTruncated], f.written[kindJunk])
}

// gateWindow is the gate's black-box figures over one flood window.
type gateWindow struct {
	rejectsPerS    float64
	frameNs        float64 // 1e9 ÷ flood frames consumed per second
	allocsPerFrame float64 // process-wide mallocs ÷ frames consumed
	writeBlocked   float64 // share of the flood writer's time inside Write
	forgedShare    float64
	respShare      float64
}

// gate is the median of each figure over the flood windows (nil when the
// execution had none).
func (res *result) gate() *gateWindow {
	if len(res.gates) == 0 {
		return nil
	}
	pick := func(f func(*gateWindow) float64) float64 {
		xs := make([]float64, len(res.gates))
		for i, g := range res.gates {
			xs[i] = f(g)
		}
		return median(xs)
	}
	return &gateWindow{
		rejectsPerS:    pick(func(g *gateWindow) float64 { return g.rejectsPerS }),
		frameNs:        pick(func(g *gateWindow) float64 { return g.frameNs }),
		allocsPerFrame: pick(func(g *gateWindow) float64 { return g.allocsPerFrame }),
		writeBlocked:   pick(func(g *gateWindow) float64 { return g.writeBlocked }),
		forgedShare:    res.gates[0].forgedShare,
		respShare:      res.gates[0].respShare,
	}
}

func newGateWindow(c0, c1 server.Counters, allocs uint64, ns int64, f *flooder) *gateWindow {
	secs := float64(ns) / 1e9
	rej := float64((c1.ResponsesUnsolicited - c0.ResponsesUnsolicited) +
		(c1.MalformedFrames - c0.MalformedFrames) + (c1.UnknownFrames - c0.UnknownFrames))
	g := &gateWindow{rejectsPerS: rej / secs}
	if rej > 0 {
		g.frameNs = 1e9 / g.rejectsPerS
		g.allocsPerFrame = float64(allocs) / float64(c1.FramesIn-c0.FramesIn)
	}
	if f.elapsed > 0 {
		g.writeBlocked = float64(f.blocked) / float64(f.elapsed)
	}
	total := float64(f.fs.frames)
	g.forgedShare = float64(f.fs.kinds[kindForged]) / total
	g.respShare = float64(f.fs.kinds[kindForged]+f.fs.kinds[kindTruncated]) / total
	return g
}

// gateProbe floods a workload's own daemon for d after its measurement
// window (traced runs of attest and enroll), so every workload reports the
// gate's black-box figures under its own daemon configuration.
func gateProbe(r *rig, seed int64, d time.Duration) (*gateWindow, error) {
	id := fmt.Sprintf("probe-%016x", uint64(seed))
	r.rec.markFlood(id)
	f, err := startFlood(r.addr, id, buildFlood(seed, floodFrames, floodBatchBytes))
	if err != nil {
		return nil, err
	}
	defer f.close()
	time.Sleep(warmUp / 2)
	c0, m0, t0 := r.srv.Counters(), mallocs(), now()
	time.Sleep(d)
	c1, m1, t1 := r.srv.Counters(), mallocs(), now()
	f.halt()
	return newGateWindow(c0, c1, m1-m0, t1-t0, f), nil
}

// enrollConfig issues one request per session (the period never comes
// round) and abandons unanswered ones after 500 ms, 50× an enroll round's
// p99, so departed cycles' device state is released promptly.
func enrollConfig() server.Config {
	cfg := daemonConfig(time.Hour)
	cfg.RequestTimeout = 500 * time.Millisecond
	return cfg
}

// runEnroll: cycles of a fresh persistent daemon (fsync=always) through
// which enrollN seeded emulated devices enroll (pass 1) and reconnect
// (pass 2), until d has passed.
func runEnroll(seed int64, d time.Duration, traced, probe bool) (*result, error) {
	res := &result{traced: traced, sessionWorkers: workers()}
	rng := rand.New(rand.NewSource(seed))
	root, err := stateRoot()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var all []*emulator
	var last *recorder
	for cycle := 0; cycle < 3 || time.Since(start) < d; cycle++ {
		emus := emulators(rng, deviceIDs(rng, "enroll", enrollN), 0)
		all = append(all, emus...)
		rec := newRecorder()
		t0 := time.Now()
		dir, err := os.MkdirTemp(root, "enroll-")
		if err != nil {
			return nil, err
		}
		store, err := server.OpenPersistentStore(dir, server.PersistOptions{Fsync: journal.FsyncAlways})
		if err != nil {
			return nil, err
		}
		r, err := startRig(enrollConfig(), rec, store)
		if err != nil {
			store.Close()
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		c0 := r.srv.Counters()
		// Only the first cycle's heap is clean: each request's abandon
		// timer keeps its device state reachable for RequestTimeout, so
		// later cycles start with their predecessors' devices still live.
		var h0 float64
		if cycle == 0 {
			h0 = liveHeap()
		}
		tp := time.Now()
		p1, err := r.pass(emus, workers(), traced)
		passes := time.Since(tp)
		if err != nil {
			r.close()
			return nil, err
		}
		appends1 := store.Stats().Appends
		if cycle == 0 {
			res.heap = append(res.heap, (liveHeap()-h0)/enrollN)
		}
		tp = time.Now()
		p2, err := r.pass(emus, workers(), traced)
		passes += time.Since(tp)
		if err != nil {
			r.close()
			return nil, err
		}
		c1 := r.srv.Counters()
		appends := store.Stats().Appends
		res.enroll = append(res.enroll, p1...)
		res.reconnect = append(res.reconnect, p2...)
		res.verified = append(res.verified, float64(c1.ResponsesAccepted-c0.ResponsesAccepted)/passes.Seconds())
		res.frames = append(res.frames, float64(framesIn(c1)-framesIn(c0))/passes.Seconds())
		res.journalAppd = append(res.journalAppd, float64(appends)/enrollN)
		res.journalP1 = append(res.journalP1, float64(appends1)/enrollN)
		res.foldSessions(rec, 2*enrollN)
		verdictChecks(res, r, c1)
		if probe && time.Since(start) >= d {
			g, err := gateProbe(r, seed, probeWindow)
			if err != nil {
				r.close()
				return nil, err
			}
			res.gates = append(res.gates, g)
			probe = false
		}
		if err := r.close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		last = rec
	}
	res.inputs = captureInputs(last)
	emulatorChecks(res, all...)
	res.checks = dedupeChecks(res.checks)
	return res, nil
}

// dedupeChecks keeps one entry per check name: the first failure, or the
// last pass.
func dedupeChecks(cs []check) []check {
	idx := map[string]int{}
	var out []check
	for _, c := range cs {
		i, ok := idx[c.name]
		switch {
		case !ok:
			idx[c.name] = len(out)
			out = append(out, c)
		case out[i].ok:
			out[i] = c
		}
	}
	return out
}
