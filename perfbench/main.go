// Command perfbench is attestd's benchmark. It runs an in-process daemon
// (server.New + Serve on a loopback listener), drives it over loopback TCP
// with one of three workloads and prints every metric by name with its
// unit; the last line of standard output is the JSON result. See
// README.md for the workloads, metrics and ladders.
//
//	go run . --workload attest --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

var workloadNames = []string{"attest", "gate_flood", "enroll"}

type metric struct {
	name, unit string
	value      float64
}

func main() {
	workload := flag.String("workload", "", "attest, gate_flood or enroll")
	seed := flag.Int64("seed", 1, "seed for device IDs, the flood stream and the emulators' choices")
	seconds := flag.Int("seconds", 15, "measurement time")
	trace := flag.Int("trace", 0, "1 runs the traced execution and prints the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		os.Exit(2)
	}
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
}

func execute(workload string, seed int64, d time.Duration, traced, probe bool) (*result, error) {
	switch workload {
	case "attest":
		return runAttest(seed, d, traced, probe)
	case "gate_flood":
		return runGateFlood(seed, d, traced)
	default:
		return runEnroll(seed, d, traced, probe)
	}
}

func run(workload string, seed int64, d time.Duration, traced bool) error {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	st := stampRun()
	sj, _ := json.Marshal(st)
	fmt.Fprintf(out, "stamp %s\n", sj)
	fmt.Fprintf(out, "workload %s seed %d seconds %.0f trace %v workers %d\n", workload, seed, d.Seconds(), traced, workers())

	digestErr := checkDigest(benchMaster, golden, seed)
	var (
		metrics  []metric
		checks   []check
		attempts uint64
		failed   uint64
	)
	checks = append(checks, check{"emulator_digest_equals_protocol_measure", digestErr == nil, fmt.Sprint(digestErr)})

	if !traced {
		res, err := execute(workload, seed, d, false, false)
		if err != nil {
			return err
		}
		metrics = endToEnd(res)
		checks = append(checks, res.checks...)
		checks = append(checks, e2eCheck(metrics))
		attempts, failed = res.attempted, res.failed
		printRounds(out, workload, res)
	} else {
		// Untraced half first: its end-to-end figures are what the ladder's
		// residues are taken against; the traced half's difference from it
		// is the tracing overhead.
		base, err := execute(workload, seed, d/2, false, true)
		if err != nil {
			return err
		}
		tr, err := execute(workload, seed, d/2, true, false)
		if err != nil {
			return err
		}
		gateFlood := tr.inputs.flood
		if gateFlood == nil {
			gateFlood = buildFlood(seed, floodFrames, floodBatchBytes)
		}
		L, guard, err := measureLayers(tr.inputs, gateFlood)
		if err != nil {
			return err
		}
		metrics = perLayer(out, workload, base, tr, L, guard)
		checks = append(checks, dedupeChecks(append(base.checks, tr.checks...))...)
		checks = append(checks, check{"prover_cycles_repeat_exactly", guard.repeatable, guard.detail})
		attempts, failed = base.attempted+tr.attempted, base.failed+tr.failed
		path, err := writeSpans(workload, seed, tr.spans)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(tr.spans), path)
	}

	correct := true
	for _, c := range checks {
		status := "ok"
		if !c.ok {
			status, correct = "FAIL", false
		}
		fmt.Fprintf(out, "check %-40s %s %s\n", c.name, status, c.detail)
	}
	if attempts > 0 {
		fmt.Fprintf(out, "round_fail_fraction %.6f (failed %d of %d honest rounds)\n", float64(failed)/float64(attempts), failed, attempts)
	}
	m := map[string]any{}
	for _, mt := range metrics {
		fmt.Fprintf(out, "metric %-34s %14.6g %s\n", mt.name, mt.value, mt.unit)
		m[mt.name] = map[string]any{"value": mt.value, "unit": mt.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(attempts, 1),
		"failed":    failed,
		"metrics":   m,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// endToEnd is the untraced run's bounded metrics, every one on every
// workload. Round tails, enroll_per_s and reconnect_per_s are printed by
// printRounds but not bounded: on a shared host they move with its load by
// more than any bound the benchmark may set.
func endToEnd(res *result) []metric {
	return []metric{
		{"setup_s", "s", median(res.setup)},
		{"full_round_ms_p50", "ms", newDist(res.full).p50() / 1e6},
		{"fast_round_us_p50", "us", newDist(res.fast).p50() / 1e3},
		{"verified_rounds_per_s", "1/s", median(res.verified)},
		{"frames_in_per_s", "1/s", median(res.frames)},
		{"heap_bytes_per_device", "B", median(res.heap)},
	}
}

func e2eCheck(ms []metric) check {
	bad := ""
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.value <= 0 {
			bad += fmt.Sprintf(" %s=%v", m.name, m.value)
		}
	}
	return check{"every_e2e_metric_measured", bad == "", "not positive and finite:" + bad}
}

func printRounds(out *bufio.Writer, workload string, res *result) {
	for _, d := range []struct {
		name string
		xs   []float64
		unit float64
		u    string
	}{{"full_round", res.full, 1e6, "ms"}, {"fast_round", res.fast, 1e3, "us"}} {
		ds := newDist(d.xs)
		q := supportedTail(ds.n())
		fmt.Fprintf(out, "%s n=%d p50=%.4g p90=%.4g p95=%.4g p99=%.4g p99.9=%.4g %s; highest percentile with 10 samples beyond: p%g\n",
			d.name, ds.n(), ds.p50()/d.unit, ds.q(0.9)/d.unit, ds.q(0.95)/d.unit, ds.q(0.99)/d.unit, ds.q(0.999)/d.unit, d.u, q*100)
	}
	fmt.Fprintf(out, "setup_s per bring-up %v\n", compact(res.setup))
	fmt.Fprintf(out, "sessions on %d connection(s): enroll n=%d p50=%.4gms enroll_per_s %.6g; reconnect n=%d p50=%.4gus reconnect_per_s %.6g\n",
		res.sessionWorkers, len(res.enroll), newDist(res.enroll).p50()/1e6, sessionRate(res.enroll, res.sessionWorkers),
		len(res.reconnect), newDist(res.reconnect).p50()/1e3, sessionRate(res.reconnect, res.sessionWorkers))
	if g := res.gate(); g != nil {
		fmt.Fprintf(out, "gate_rejects_per_s %.6g (flood frames rejected per second at the gate; loadgen.write_blocked_fraction %.3f)\n",
			g.rejectsPerS, g.writeBlocked)
	}
}

// sessionRate is devices per second through workers connections at the
// median session time: each worker runs sessions back to back. The median
// keeps one stalled session from moving the figure.
func sessionRate(ns []float64, workers int) float64 {
	return float64(workers) * 1e9 / newDist(ns).p50()
}

func compact(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}

// writeSpans writes the traced rounds as spans: one round span per round
// and its four conn-boundary children, which partition it exactly.
func writeSpans(workload string, seed int64, rounds []round) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type span struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent string `json:"parent,omitempty"`
		Round  string `json:"round"`
	}
	for _, rd := range rounds {
		id := fmt.Sprintf("%s/%d", rd.dev, rd.nonce)
		root := "round.full"
		if rd.fast {
			root = "round.fast"
		}
		for _, s := range []span{
			{root, rd.issued, rd.verdict, "", id},
			{"wire.request", rd.issued, rd.proverIn, root, id},
			{"agent.respond", rd.proverIn, rd.proverOut, root, id},
			{"wire.response", rd.proverOut, rd.served, root, id},
			{"server.verify", rd.served, rd.verdict, root, id},
		} {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
