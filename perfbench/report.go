package main

import (
	"bufio"
	"fmt"
)

// spanParts is the conn-boundary split of a set of traced rounds, each
// part's median in microseconds.
type spanParts struct {
	n                                int
	request, respond, response, veri float64
}

func splitSpans(rounds []round, fast bool) spanParts {
	var rq, rs, rp, vf []float64
	for _, rd := range rounds {
		if rd.fast != fast {
			continue
		}
		rq = append(rq, float64(rd.proverIn-rd.issued)/1e3)
		rs = append(rs, float64(rd.proverOut-rd.proverIn)/1e3)
		rp = append(rp, float64(rd.served-rd.proverOut)/1e3)
		vf = append(vf, float64(rd.verdict-rd.served)/1e3)
	}
	return spanParts{
		n:        len(rq),
		request:  newDist(rq).p50(),
		respond:  newDist(rs).p50(),
		response: newDist(rp).p50(),
		veri:     newDist(vf).p50(),
	}
}

// perLayer assembles the traced run's metrics: every layer cost, the
// conn-boundary spans, the black-box server figures from the untraced
// half, and the three ladders with their sums and residues.
func perLayer(out *bufio.Writer, workload string, base, tr *result, L layerCosts, g *proverGuard) []metric {
	full, fast := splitSpans(tr.spans, false), splitSpans(tr.spans, true)
	baseFull, trFull := newDist(base.full), newDist(tr.full)
	obsFrame := 3*L["obs.counter_inc_ns"] + L["obs.clock_pair_ns"] + L["obs.observe_ns"]

	// Gate ladder, per hostile frame, in the order handleFrame runs it.
	gw := base.gate()
	gateSum := L["gate.recv_ns"] + L["gate.classify_ns"] + gw.respShare*L["gate.decode_ns"] +
		gw.forgedShare*L["protocol.check_miss_ns"] + obsFrame
	gateResidue := gw.frameNs - gateSum
	fmt.Fprintf(out, "ladder gate ns/frame: recv %.1f + classify %.1f + decode %.1f×%.3f + check_miss %.1f×%.3f + obs %.1f = %.1f; server.flood_frame_ns %.1f; residue %.1f; process allocs/frame %.3f (RecvShared %.3f)\n",
		L["gate.recv_ns"], L["gate.classify_ns"], L["gate.decode_ns"], gw.respShare, L["protocol.check_miss_ns"], gw.forgedShare,
		obsFrame, gateSum, gw.frameNs, gateResidue, gw.allocsPerFrame, L["transport.allocs_per_frame"])

	// Round ladder, per full round: the conn-boundary spans up to the
	// daemon's read of the response, then the public functions the daemon
	// runs on it.
	agentFullUs, agentFastUs := g.fullMs*1e3, g.fastUs
	if workload == "attest" {
		agentFullUs, agentFastUs = full.respond, fast.respond
	}
	fullE2E := baseFull.p50() / 1e3
	verifyLayers := (L["transport.recv_ns"]+L["protocol.classify_ns"]+L["protocol.decode_ns"]+obsFrame)/1e3 + L["protocol.measure_ms"]*1e3
	roundSum := full.request + full.respond + full.response + verifyLayers
	roundResidue := fullE2E - roundSum
	fmt.Fprintf(out, "ladder round us (full, n=%d): wire.request %.1f + prover %.1f + wire.response %.1f + recv/classify/decode/obs %.2f + measure %.1f = %.1f; full_round p50 %.1f; residue %.1f; traced server.verify %.1f\n",
		full.n, full.request, full.respond, full.response, verifyLayers-L["protocol.measure_ms"]*1e3, L["protocol.measure_ms"]*1e3,
		roundSum, fullE2E, roundResidue, full.veri)

	// Enroll ladder, per device: a worker's session from dial to verdict.
	appendsP1 := 0.0 // no store outside enroll
	if len(base.journalP1) > 0 {
		appendsP1 = median(base.journalP1)
	}
	enrollE2E := newDist(base.enroll).p50() / 1e3
	enrollSum := L["protocol.derive_key_us"] + L["protocol.new_verifier_us"] + L["protocol.new_request_us"] +
		appendsP1*(L["journal.append_us"]+L["journal.sync_us"]) +
		(L["transport.send_ns"]+L["transport.recv_ns"]+L["protocol.classify_ns"]+L["protocol.decode_ns"]+obsFrame)/1e3 +
		L["protocol.measure_ms"]*1e3 + L["loadgen.emu_full_us"]
	enrollResidue := enrollE2E - enrollSum
	fmt.Fprintf(out, "ladder enroll us/device (%d at once): derive_key %.2f + new_verifier %.1f + new_request %.2f + journal %.2f×(append %.2f + sync %.1f) + transport/gate %.2f + measure %.1f + prover %.1f = %.1f; per-device session %.1f; residue %.1f\n",
		base.sessionWorkers, L["protocol.derive_key_us"], L["protocol.new_verifier_us"], L["protocol.new_request_us"], appendsP1,
		L["journal.append_us"], L["journal.sync_us"],
		(L["transport.send_ns"]+L["transport.recv_ns"]+L["protocol.classify_ns"]+L["protocol.decode_ns"]+obsFrame)/1e3,
		L["protocol.measure_ms"]*1e3, L["loadgen.emu_full_us"], enrollSum, enrollE2E, enrollResidue)

	overhead := (trFull.p50()/baseFull.p50() - 1) * 100
	fmt.Fprintf(out, "tracing overhead: full_round p50 %.4gms untraced, %.4gms traced (%+.2f%%); fast_round p50 %.4gus untraced, %.4gus traced\n",
		baseFull.p50()/1e6, trFull.p50()/1e6, overhead, newDist(base.fast).p50()/1e3, newDist(tr.fast).p50()/1e3)
	fmt.Fprintf(out, "prover guard: gate %d cycles, full measurement %d cycles, fast response %d cycles, measure/gate %.1f×\n",
		g.gateCycles, g.measureCycles, g.fastCycles, float64(g.measureCycles)/float64(g.gateCycles))

	journalAppends := 0.0
	if len(base.journalAppd) > 0 {
		journalAppends = median(base.journalAppd)
	}
	return []metric{
		{"transport.recv_ns", "ns", L["transport.recv_ns"]},
		{"transport.allocs_per_frame", "allocs/frame", L["transport.allocs_per_frame"]},
		{"transport.send_ns", "ns", L["transport.send_ns"]},
		{"protocol.classify_ns", "ns", L["protocol.classify_ns"]},
		{"protocol.decode_ns", "ns", L["protocol.decode_ns"]},
		{"protocol.check_miss_ns", "ns", L["protocol.check_miss_ns"]},
		{"protocol.new_request_us", "us", L["protocol.new_request_us"]},
		{"protocol.check_fast_ns", "ns", L["protocol.check_fast_ns"]},
		{"protocol.measure_ms", "ms", L["protocol.measure_ms"]},
		{"crypto.hmac_sha1_mb_per_s", "MB/s", L["crypto.hmac_sha1_mb_per_s"]},
		{"protocol.new_verifier_us", "us", L["protocol.new_verifier_us"]},
		{"protocol.new_verifier_bytes", "B", L["protocol.new_verifier_bytes"]},
		{"protocol.derive_key_us", "us", L["protocol.derive_key_us"]},
		{"obs.counter_inc_ns", "ns", L["obs.counter_inc_ns"]},
		{"obs.observe_ns", "ns", L["obs.observe_ns"]},
		{"obs.clock_pair_ns", "ns", L["obs.clock_pair_ns"]},
		{"journal.append_us", "us", L["journal.append_us"]},
		{"journal.sync_us", "us", L["journal.sync_us"]},
		{"journal.record_bytes", "B", L["journal.record_bytes"]},
		{"journal.appends_per_device", "count", journalAppends},
		{"server.flood_frame_ns", "ns", gw.frameNs},
		{"server.gate_residue_ns", "ns", gateResidue},
		{"server.allocs_per_frame", "allocs/frame", gw.allocsPerFrame},
		{"server.verify_ms", "ms", full.veri / 1e3},
		{"server.round_residue_us", "us", roundResidue},
		{"server.enroll_residue_us", "us", enrollResidue},
		{"agent.full_ms", "ms", agentFullUs / 1e3},
		{"agent.fast_us", "us", agentFastUs},
		{"anchor.gate_cycles", "cycles", float64(g.gateCycles)},
		{"anchor.measure_cycles", "cycles", float64(g.measureCycles)},
		{"anchor.fast_cycles", "cycles", float64(g.fastCycles)},
		{"anchor.measure_gate_ratio", "ratio", float64(g.measureCycles) / float64(g.gateCycles)},
		{"wire.request_us", "us", full.request},
		{"wire.response_us", "us", full.response},
		{"loadgen.write_blocked_fraction", "ratio", gw.writeBlocked},
		{"loadgen.emu_full_us", "us", L["loadgen.emu_full_us"]},
		{"ladder.gate_sum_ns", "ns", gateSum},
		{"ladder.round_sum_us", "us", roundSum},
		{"ladder.enroll_sum_us", "us", enrollSum},
		{"trace.overhead_pct", "%", overhead},
	}
}
