package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"proverattest/internal/agent"
	"proverattest/internal/core"
	"proverattest/internal/protocol"
	"proverattest/internal/server"
	"proverattest/internal/transport"
)

// benchMaster derives every device key of the benchmark's fleets.
var benchMaster = []byte("perfbench fleet master secret")

// golden is the measured-memory image every simulated device boots with.
var golden = core.GoldenRAMPattern()

// ioTimeout bounds every benchmark-side wait on the daemon; hitting it
// means the run failed.
const ioTimeout = 10 * time.Second

// daemonConfig is the attestd configuration every workload starts from:
// counter freshness with HMAC-signed requests, no rate limits (so every
// hostile frame reaches classify and decode) and caps far above anything
// a workload reaches. Unanswered requests (the flood device never answers
// its own) are abandoned after two seconds.
func daemonConfig(period time.Duration) server.Config {
	return server.Config{
		Freshness:      protocol.FreshCounter,
		Auth:           protocol.AuthHMACSHA1,
		MasterSecret:   benchMaster,
		Golden:         golden,
		FastPath:       true,
		AttestEvery:    period,
		RequestTimeout: 2 * time.Second,
		MaxInflight:    1 << 20,
		MaxDevices:     1 << 16,
	}
}

// rig is one in-process attestd serving a tapped loopback listener.
type rig struct {
	srv   *server.Server
	rec   *recorder
	store *server.PersistentStore
	addr  string
	done  chan error
}

func startRig(cfg server.Config, rec *recorder, store *server.PersistentStore) (*rig, error) {
	if store != nil {
		cfg.Store = store
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{srv: srv, rec: rec, store: store, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { r.done <- srv.Serve(tapListener{Listener: ln, rec: rec}) }()
	return r, nil
}

// close stops the daemon and waits for its accept loop and handlers.
func (r *rig) close() error {
	err := r.srv.Close()
	if serr := <-r.done; serr != nil && err == nil {
		err = serr
	}
	if r.store != nil {
		if cerr := r.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// dial connects a prover to the daemon, wrapped for tracing when asked.
func (r *rig) dial(dev string, traced bool) (net.Conn, error) {
	nc, err := net.Dial("tcp", r.addr)
	if err != nil {
		return nil, err
	}
	if traced {
		return &proverConn{Conn: nc, rec: r.rec, dev: dev}, nil
	}
	return nc, nil
}

func helloFrame(id string) []byte {
	return (&protocol.Hello{Freshness: protocol.FreshCounter, Auth: protocol.AuthHMACSHA1, DeviceID: id}).Encode()
}

// session takes one emulated device through a whole connection: dial,
// hello, answer the daemon's first request, wait until the daemon has
// handled the response, close.
func (r *rig) session(e *emulator, traced bool) error {
	ch := r.rec.wait(e.id)
	defer r.rec.unwait(e.id)
	conn, err := r.dial(e.id, traced)
	if err != nil {
		return err
	}
	defer conn.Close()
	tc := transport.NewConn(conn, transport.Options{ReadTimeout: ioTimeout, WriteTimeout: ioTimeout})
	if err := tc.Send(helloFrame(e.id)); err != nil {
		return fmt.Errorf("hello %s: %w", e.id, err)
	}
	frame, err := tc.RecvShared()
	if err != nil {
		return fmt.Errorf("request for %s: %w", e.id, err)
	}
	resp, err := e.respond(frame, nil)
	if err != nil {
		return err
	}
	if err := tc.Send(resp); err != nil {
		return fmt.Errorf("response from %s: %w", e.id, err)
	}
	select {
	case <-ch:
		return nil
	case <-time.After(ioTimeout):
		return errTimeout("verdict for " + e.id)
	}
}

// pass runs one session per emulator on at most workers connections at
// once and returns each session's time from dial to verdict, in ns.
func (r *rig) pass(emus []*emulator, workers int, traced bool) ([]float64, error) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	times := make([]float64, len(emus))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(emus) {
					return
				}
				t := now()
				err := r.session(emus[i], traced)
				times[i] = float64(now() - t)
				if err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return times, ferr
}

// liveProver is a prover that stays connected for the measurement window:
// a real internal/agent or an emulator answering every request.
type liveProver struct {
	id     string
	agent  *agent.Agent
	emu    *emulator
	cancel context.CancelFunc
	conn   net.Conn
	done   chan error
}

// connect dials p, starts it answering and waits for its first verdict.
func (r *rig) connect(p *liveProver, traced bool) error {
	ch := r.rec.wait(p.id)
	defer r.rec.unwait(p.id)
	conn, err := r.dial(p.id, traced)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel, p.conn, p.done = cancel, conn, make(chan error, 1)
	if p.agent != nil {
		go func() { p.done <- p.agent.Serve(ctx, conn) }()
	} else {
		go func() { p.done <- serveEmulator(ctx, p.emu, conn) }()
	}
	select {
	case <-ch:
		return nil
	case <-time.After(ioTimeout):
		p.stop()
		return errTimeout("first verdict for " + p.id)
	}
}

// stop disconnects the prover and waits for its serve loop.
func (p *liveProver) stop() error {
	if p.cancel == nil {
		return nil
	}
	p.cancel()
	p.conn.Close()
	err := <-p.done
	p.cancel = nil
	if errors.Is(err, context.Canceled) || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// serveEmulator answers every request on conn until ctx ends.
func serveEmulator(ctx context.Context, e *emulator, conn net.Conn) error {
	tc := transport.NewConn(conn, transport.Options{WriteTimeout: ioTimeout})
	go func() {
		<-ctx.Done()
		conn.Close()
	}()
	if err := tc.Send(helloFrame(e.id)); err != nil {
		return err
	}
	var out []byte
	for {
		frame, err := tc.RecvShared()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if protocol.ClassifyFrame(frame) != protocol.FrameAttReq {
			continue
		}
		if out, err = e.respond(frame, out[:0]); err != nil {
			return err
		}
		if err := tc.Send(out); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
	}
}

// liveHeap is the live heap after a full collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// errTimeout names what the benchmark gave up waiting for.
type errTimeout string

func (e errTimeout) Error() string { return "timed out waiting for " + string(e) }

// waitFor polls cond every millisecond until it holds or d passes.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// stateRoot is where enroll daemons keep their state directories: inside
// the build directory of the checkout the benchmark runs from.
func stateRoot() (string, error) {
	dir := ".bench_build/state"
	return dir, os.MkdirAll(dir, 0o755)
}
