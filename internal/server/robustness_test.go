package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/leakcheck"
)

// TestDaemonSlowReaderEvicted: a client that submits requests but never
// reads responses fills its bounded response queue; once a handler has
// waited out the write timeout the connection is evicted, the daemon stays
// responsive to well-behaved clients, and Close completes cleanly.
func TestDaemonSlowReaderEvicted(t *testing.T) {
	defer leakcheck.Check(t)()
	m, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHub(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(h, "127.0.0.1:0",
		WithWriteTimeout(50*time.Millisecond),
		WithWriteQueue(2))
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve() }()
	defer func() {
		d.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
		h.Drain(context.Background())
	}()

	// The slow reader: raw frames in, nothing ever read back. Far more
	// requests than queue capacity, so responses pile up behind a socket
	// nobody drains.
	slow, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	for i := 0; i < 64; i++ {
		f := &Frame{V: ProtocolVersion, ID: uint64(i + 1), Op: OpStatus}
		if err := WriteFrame(slow, f); err != nil {
			break // daemon already evicted us: exactly what we want
		}
	}

	// Eviction closes the socket server-side; the read unblocks with an
	// error rather than hanging for a response that will never come.
	slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := slow.Read(buf); err != nil {
			break // EOF/reset: evicted
		}
	}

	// A well-behaved client is unaffected, before and after the eviction.
	c, err := Dial(context.Background(), d.Addr())
	if err != nil {
		t.Fatalf("dial after slow-reader eviction: %v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Status(ctx); err != nil {
		t.Fatalf("status while slow reader wedged: %v", err)
	}
}

// TestClientCallsRaceDaemonCrash: a swarm of pipelined calls races the
// daemon dying mid-flight. Every call resolves quickly — success or a
// typed, classifiable error — no call hangs, and nothing leaks.
func TestClientCallsRaceDaemonCrash(t *testing.T) {
	defer leakcheck.Check(t)()
	m, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHub(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(h, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve() }()

	c, err := Dial(context.Background(), d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 16*8)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := c.Status(ctx); err != nil {
					errs <- err
					return // connection is gone; stop hammering
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let the swarm get airborne
	d.Close()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve: %v", err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("calls still hanging 5s after daemon crash")
	}
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrConnLost) && !errors.Is(err, ErrClientClosed) {
			t.Fatalf("crash surfaced untyped error: %v", err)
		}
	}

	// While disconnected, calls fail fast — no blocking on the redialer.
	start := time.Now()
	_, err = c.Status(ctx)
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("call while disconnected = %v, want ErrConnLost", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("disconnected call took %v, want fail-fast", d)
	}
	h.Drain(context.Background())
}

// TestClientReconnectCorrelation: the daemon process dies and a
// replacement binds the same address; the client's redialer restores
// service, and because frame IDs are allocated from one counter across
// connections, concurrent traces after the reconnect each get exactly the
// exchange they asked for.
func TestClientReconnectCorrelation(t *testing.T) {
	defer leakcheck.Check(t)()
	m, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHub(m)
	if err != nil {
		t.Fatal(err)
	}
	h.StartScheduler()
	defer h.Drain(context.Background())

	d1, err := NewDaemon(h, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := d1.Addr()
	serve1 := make(chan error, 1)
	go func() { serve1 <- d1.Serve() }()

	c, err := Dial(context.Background(), addr,
		WithReconnect(ReconnectPolicy{Base: 5 * time.Millisecond, Max: 25 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	g := doc.NewGenerator(3)
	ids := make([]string, 3)
	for i := range ids {
		req, err := PORequest(g.PO(tp1, seller))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = resp.ExchangeID
	}

	// Kill the daemon process-style: listener and conns die, hub survives.
	d1.Close()
	if err := <-serve1; err != nil {
		t.Errorf("Serve: %v", err)
	}
	waitCond(t, 5*time.Second, "client to notice the drop", func() bool {
		_, err := c.Status(ctx)
		return errors.Is(err, ErrConnLost)
	})

	// A replacement daemon takes over the same address and the same hub.
	var d2 *Daemon
	waitCond(t, 5*time.Second, "address to rebind", func() bool {
		d2, err = NewDaemon(h, addr)
		return err == nil
	})
	serve2 := make(chan error, 1)
	go func() { serve2 <- d2.Serve() }()
	defer func() {
		d2.Close()
		if err := <-serve2; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	waitCond(t, 5*time.Second, "redialer to restore service", func() bool {
		return c.Connected()
	})

	// Correlation across the reconnect: a concurrent mix of traces, each
	// asserting its response is for the requested exchange.
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		id := ids[i%len(ids)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := c.Trace(ctx, id)
			if err != nil {
				t.Errorf("trace %s after reconnect: %v", id, err)
				return
			}
			if tr.ExchangeID != id {
				t.Errorf("trace for %s answered with %s: correlation broken", id, tr.ExchangeID)
			}
		}()
	}
	wg.Wait()
}

// TestOversizedFrameKeepsConnection: a response or a request whose frame
// would exceed MaxFrame fails that one call. The writer refuses the frame
// before anything is sent, so the connection stays up and the next call on
// the same client succeeds; neither failure is the retryable ErrConnLost,
// which would have a retrying caller loop forever.
func TestOversizedFrameKeepsConnection(t *testing.T) {
	defer leakcheck.Check(t)()
	m, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHub(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(h, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A JSON string whose frame is just over the cap.
	huge := json.RawMessage(`"` + strings.Repeat("x", MaxFrame) + `"`)
	d.Handle("huge", func(context.Context, json.RawMessage) (any, error) { return huge, nil })
	d.Handle("huge-error", func(context.Context, json.RawMessage) (any, error) { return nil, errors.New(string(huge)) })
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve() }()
	defer func() {
		d.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
		h.Drain(context.Background())
	}()
	c, err := Dial(context.Background(), d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The daemon answers the oversized response's request alone, with an
	// internal error naming the size and the cap.
	err = c.Call(ctx, "huge", struct{}{}, nil)
	size := len(`{"v":1,"id":2,"op":"huge","body":}`) + len(huge)
	if err == nil || errors.Is(err, ErrConnLost) || !strings.Contains(err.Error(), fmt.Sprintf("%d bytes (cap %d)", size, MaxFrame)) {
		t.Errorf("oversized response: got %v, want an internal error naming %d bytes and the cap", err, size)
	}
	if _, err := c.Status(ctx); err != nil {
		t.Fatalf("status after an oversized response: %v", err)
	}

	// An error too large to send back is answered with one naming its size.
	err = c.Call(ctx, "huge-error", struct{}{}, nil)
	if err == nil || errors.Is(err, ErrConnLost) || !strings.Contains(err.Error(), "server: error response: server: frame exceeds size cap") {
		t.Errorf("oversized error response: got %.200v, want an internal error naming the size and the cap", err)
	}
	if _, err := c.Status(ctx); err != nil {
		t.Fatalf("status after an oversized error response: %v", err)
	}

	// The client refuses an oversized request before writing it.
	err = c.Call(ctx, OpStatus, huge, nil)
	if !errors.Is(err, ErrFrameTooLarge) || errors.Is(err, ErrConnLost) {
		t.Errorf("oversized request: got %v, want ErrFrameTooLarge and not ErrConnLost", err)
	}
	if _, err := c.Status(ctx); err != nil {
		t.Fatalf("status after an oversized request: %v", err)
	}
}

// waitCond polls cond until it holds or the deadline expires.
func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
