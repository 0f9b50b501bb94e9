package server

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"proverattest/internal/agent"
	"proverattest/internal/faultnet"
	"proverattest/internal/protocol"
	"proverattest/internal/transport"
)

// Server-side chaos: the daemon under slow-loris peers, injected accept
// failures, and a full seeded fleet-survival smoke run (the make
// chaos-smoke target). The agent-side half of the chaos matrix lives in
// internal/agent/chaos_test.go.

// TestSlowLorisEvicted pins both halves of the slow-loris defence: a
// connection that never completes a hello dies at the hello deadline,
// and one that completes the hello and then stalls — with or without a
// burst of buffered frames first — is evicted at the read timeout, while
// an honest agent on the same daemon keeps getting verdicts (no shard or
// listener wedge).
func TestSlowLorisEvicted(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.HelloTimeout = 80 * time.Millisecond
		c.ReadTimeout = 150 * time.Millisecond
		c.AttestEvery = 25 * time.Millisecond
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln) //nolint:errcheck

	// Loris #1: connects and says nothing. Must die at HelloTimeout, not
	// hold an fd for the (much longer) steady-state ReadTimeout.
	mute, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	waitFor(t, 5*time.Second, "hello-timeout eviction", func() bool {
		return s.Counters().HelloTimeouts >= 1
	})

	// Loris #2: completes a valid hello, then stalls forever. Must be
	// evicted at the post-hello read deadline.
	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	hello := &protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: "loris"}
	if err := transport.NewConn(stalled, transport.Options{}).Send(hello.Encode()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "read-stall eviction", func() bool {
		return s.Counters().Evictions >= 1
	})

	// Loris #3: a hello, five frames and half of a sixth in one write,
	// then a stall. The whole frames are served from the read buffer
	// without a deadline arm; the half frame must still meet a read
	// deadline and get the connection evicted.
	junk := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	hello.DeviceID = "loris-burst"
	burst := transport.AppendFrame(nil, hello.Encode())
	for i := 0; i < 5; i++ {
		burst = transport.AppendFrame(burst, junk)
	}
	burst = append(burst, transport.AppendFrame(nil, junk)[:6]...)
	unknown0 := s.Counters().UnknownFrames
	bursty, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bursty.Close()
	if _, err := bursty.Write(burst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "burst-then-stall eviction", func() bool {
		return s.Counters().Evictions >= 2
	})
	if got := s.Counters().UnknownFrames - unknown0; got != 5 {
		t.Fatalf("burst loris: %d unknown frames counted, want the 5 whole ones", got)
	}

	// The honest agent is unaffected by either loris.
	a := testAgent(t, "honest-dev")
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Serve(ctx, nc) //nolint:errcheck
	waitFor(t, 10*time.Second, "honest verdicts despite lorises", func() bool {
		return s.Counters().ResponsesAccepted >= 2
	})
}

// TestServeSurvivesInjectedAcceptFailures wraps the listener in faultnet
// so a deterministic subset of accepts fail with a Temporary() error:
// the accept loop must retry instead of exiting, and every agent that
// dials must still end up served.
func TestServeSurvivesInjectedAcceptFailures(t *testing.T) {
	s := testServer(t, func(c *Config) { c.AttestEvery = 25 * time.Millisecond })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := faultnet.WrapListener(ln, faultnet.ListenerOptions{AcceptFailEvery: 2})
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(fln) }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const agents = 3
	for i := 0; i < agents; i++ {
		a := testAgent(t, fmt.Sprintf("accept-dev-%d", i))
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		go a.Serve(ctx, nc) //nolint:errcheck
	}
	waitFor(t, 15*time.Second, "all agents served through accept faults", func() bool {
		return s.Devices() == agents && s.Counters().ResponsesAccepted >= agents
	})
	if got := s.Counters().AcceptRetries; got < 1 {
		t.Fatalf("AcceptRetries = %d, want >= 1 (the fault injector fails every 2nd accept)", got)
	}
	select {
	case err := <-serveDone:
		t.Fatalf("Serve exited (%v) instead of retrying temporary accept failures", err)
	default:
	}
}

// TestShutdownDrains pins the graceful-drain contract: Shutdown stops
// accepting and issuing, waits for the outstanding verdicts to resolve,
// and returns with zero inflight. New connections during the drain are
// refused and counted.
func TestShutdownDrains(t *testing.T) {
	s := testServer(t, func(c *Config) {
		c.AttestEvery = 20 * time.Millisecond
		c.RequestTimeout = 500 * time.Millisecond
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	a := testAgent(t, "drain-dev")
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Serve(ctx, nc) //nolint:errcheck
	waitFor(t, 10*time.Second, "first verdict", func() bool {
		return s.Counters().ResponsesAccepted >= 1
	})

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := s.Inflight(); got != 0 {
		t.Fatalf("Inflight = %d after drain, want 0", got)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestChaosSmoke is the seeded survival run behind `make chaos-smoke`:
// a small fleet over faultnet chaos (flapping links, dropped frames),
// then the chaos stops and every agent must recover — fresh MAC work on
// every device, monotone fleet aggregates, zero phantom reboots — and a
// graceful drain must leak no goroutines.
func TestChaosSmoke(t *testing.T) {
	const (
		chaosSeed = 42
		fleet     = 4
	)
	g0 := runtime.NumGoroutine()

	s := testServer(t, func(c *Config) {
		c.AttestEvery = 20 * time.Millisecond
		c.RequestTimeout = 300 * time.Millisecond
		c.ReadTimeout = time.Second
		c.WriteTimeout = time.Second
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	sched := faultnet.MustParseSchedule("flap=120ms:reset;pct=5:drop")
	var chaosOn atomic.Bool
	chaosOn.Store(true)
	var dialSeq atomic.Int64
	dial := func(ctx context.Context) (net.Conn, error) {
		n := dialSeq.Add(1)
		var d net.Dialer
		nc, err := d.DialContext(ctx, "tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		if !chaosOn.Load() {
			return nc, nil
		}
		return faultnet.Wrap(nc, sched, faultnet.Options{Seed: chaosSeed + n}), nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	agents := make([]*agent.Agent, fleet)
	runDone := make(chan error, fleet)
	for i := range agents {
		agents[i] = testAgent(t, fmt.Sprintf("smoke-dev-%d", i))
		a := agents[i]
		seed := int64(i)
		go func() {
			runDone <- a.Run(ctx, dial, agent.Backoff{
				Base: 10 * time.Millisecond, Max: 100 * time.Millisecond,
				Jitter: 0.2, Seed: chaosSeed + seed,
			})
		}()
	}

	// Chaos phase: flapping links force reconnects, yet verdicts and
	// stats keep flowing and the aggregate stays monotone.
	var prev protocol.StatsReport
	waitFor(t, 60*time.Second, "chaos-phase verdicts and reconnects", func() bool {
		cur := s.AgentStats()
		if cur.Regressed(&prev) {
			t.Fatalf("fleet aggregate regressed under chaos: %+v -> %+v", prev, cur)
		}
		prev = cur
		return s.Counters().ResponsesAccepted >= 2*fleet && dialSeq.Load() >= 2*fleet
	})

	// Recovery phase: stop injecting faults; every device must perform
	// fresh MAC work on a clean link — 100% agent recovery.
	chaosOn.Store(false)
	marks := make([]uint64, fleet)
	for i, a := range agents {
		marks[i] = a.Snapshot().Measurements
	}
	waitFor(t, 60*time.Second, "every agent measuring again post-chaos", func() bool {
		for i, a := range agents {
			if a.Snapshot().Measurements <= marks[i] {
				return false
			}
		}
		return true
	})

	if got := s.Counters().StatsEpochs; got != 0 {
		t.Fatalf("StatsEpochs = %d, want 0 (reconnects are not reboots)", got)
	}
	if got := s.Devices(); got != fleet {
		t.Fatalf("Devices = %d, want %d", got, fleet)
	}

	// Drain: stop the fleet, shut the daemon down gracefully, and demand
	// the goroutine count returns to its pre-test baseline.
	cancel()
	for i := 0; i < fleet; i++ {
		select {
		case <-runDone:
		case <-time.After(10 * time.Second):
			t.Fatal("agent Run did not exit on cancel")
		}
	}
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	waitFor(t, 10*time.Second, "goroutines back to baseline after drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= g0+2
	})
}
