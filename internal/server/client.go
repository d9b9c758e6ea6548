package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
)

// ErrClientClosed is returned by calls on a client that was Closed.
var ErrClientClosed = errors.New("server: client closed")

// ErrConnLost is the typed retryable error of a dropped connection: every
// in-flight call fails fast with it the moment the connection breaks
// (instead of hanging until its context deadline), and new calls keep
// failing with it while the background redialer works. Callers match it
// with errors.Is and retry: by the time they do, the client may already be
// reconnected.
var ErrConnLost = errors.New("server: connection lost (retryable)")

// ReconnectPolicy shapes the client's automatic redial after a dropped
// connection or a failed dial attempt: capped exponential backoff starting
// at Base, doubling up to Max, with up to 50% uniform jitter on every
// wait. The zero value disables reconnection (a broken client stays
// broken, the pre-federation behavior).
type ReconnectPolicy struct {
	// Base is the first retry's backoff; Max caps the doubling.
	Base time.Duration
	Max  time.Duration
}

// DefaultReconnect is the policy Dial installs: 50ms doubling to 2s.
var DefaultReconnect = ReconnectPolicy{Base: 50 * time.Millisecond, Max: 2 * time.Second}

// DialOption configures Dial.
type DialOption func(*Client)

// WithReconnect overrides the client's reconnect policy. A zero policy
// disables automatic reconnection.
func WithReconnect(p ReconnectPolicy) DialOption {
	return func(c *Client) { c.rc = p }
}

// callResult is what a pending call receives: its response frame, or the
// connection-loss error that failed it fast.
type callResult struct {
	f   *Frame
	err error
}

// Client is one logical connection to a daemon. Calls are safe for
// concurrent use: requests are pipelined and matched to their responses by
// frame ID, so many goroutines share one client. When the connection
// drops, in-flight calls fail fast with ErrConnLost and a background
// redialer re-establishes the connection with capped exponential backoff +
// jitter; frame IDs are allocated from one counter across reconnects, so
// correlation can never alias a response from a previous connection.
type Client struct {
	addr string
	rc   ReconnectPolicy

	writeMu sync.Mutex

	mu       sync.Mutex
	conn     net.Conn // nil while disconnected
	hello    HelloResponse
	pending  map[uint64]chan callResult
	nextID   uint64
	lost     error // last disconnect cause
	redial   bool  // background redialer running
	rng      *rand.Rand
	closed   bool
	closedCh chan struct{}
}

// Dial connects to a daemon, honoring ctx for the dial and handshake, and
// performs the OpHello handshake so a protocol-version mismatch surfaces
// immediately (as a CodeVersion error) rather than on first use. The
// initial dial does not retry — a wrong address fails fast; automatic
// reconnection begins once a connection has been established.
func Dial(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	conn, hello, err := dialHello(ctx, addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		addr:     addr,
		rc:       DefaultReconnect,
		conn:     conn,
		hello:    hello,
		pending:  map[uint64]chan callResult{},
		nextID:   1, // ID 1 was the handshake's
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
		closedCh: make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	go c.readLoop(conn)
	return c, nil
}

// dialHello dials addr and performs the OpHello handshake on the fresh
// connection (single-threaded, so raw frame I/O is safe), bounded by ctx's
// deadline.
func dialHello(ctx context.Context, addr string) (net.Conn, HelloResponse, error) {
	var hello HelloResponse
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, hello, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	fail := func(err error) (net.Conn, HelloResponse, error) {
		conn.Close()
		return nil, hello, err
	}
	if err := WriteFrame(conn, &Frame{V: ProtocolVersion, ID: 1, Op: OpHello, Body: json.RawMessage("{}")}); err != nil {
		return fail(fmt.Errorf("server: handshake %s: %w", addr, err))
	}
	f, err := ReadFrame(conn, MaxFrame)
	if err != nil {
		return fail(fmt.Errorf("server: handshake %s: %w", addr, err))
	}
	if f.Err != nil {
		return fail(DecodeError(f.Err))
	}
	if err := json.Unmarshal(f.Body, &hello); err != nil {
		return fail(fmt.Errorf("server: decode hello: %w", err))
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, hello, nil
}

// Hello returns the daemon's most recent handshake response.
func (c *Client) Hello() HelloResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hello
}

// Connected reports whether the client currently holds a live connection.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn != nil
}

// Close tears the client down for good: the connection is closed, in-flight
// calls fail with ErrClientClosed, and the redialer (if running) stops.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- callResult{err: ErrClientClosed}
	}
	close(c.closedCh)
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// readLoop consumes one connection's responses until it breaks.
func (c *Client) readLoop(conn net.Conn) {
	for {
		f, err := ReadFrame(conn, MaxFrame)
		if err != nil {
			c.connLost(conn, err)
			return
		}
		c.mu.Lock()
		ch := c.pending[f.ID]
		delete(c.pending, f.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- callResult{f: f}
		}
	}
}

// connLost handles the death of one specific connection: every pending
// call fails fast with ErrConnLost and the background redialer starts.
// Stale notifications (a write error racing the read loop, or an error on
// an already-replaced connection) are ignored.
func (c *Client) connLost(conn net.Conn, cause error) {
	c.mu.Lock()
	if c.conn != conn {
		c.mu.Unlock()
		return
	}
	c.conn = nil
	c.lost = cause
	err := fmt.Errorf("%w: %v", ErrConnLost, cause)
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- callResult{err: err}
	}
	start := !c.closed && !c.redial && c.rc.Base > 0
	if start {
		c.redial = true
	}
	c.mu.Unlock()
	conn.Close()
	if start {
		go c.redialLoop()
	}
}

// redialLoop re-establishes the connection with capped exponential backoff
// and jitter, until it succeeds or the client is closed.
func (c *Client) redialLoop() {
	backoff := c.rc.Base
	for {
		c.mu.Lock()
		if c.closed {
			c.redial = false
			c.mu.Unlock()
			return
		}
		jitter := time.Duration(0)
		if backoff > 1 {
			jitter = time.Duration(c.rng.Int63n(int64(backoff)/2 + 1))
		}
		c.mu.Unlock()

		select {
		case <-time.After(backoff + jitter):
		case <-c.closedCh:
			return
		}

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		conn, hello, err := dialHello(ctx, c.addr)
		cancel()
		if err != nil {
			if backoff *= 2; backoff > c.rc.Max {
				backoff = c.rc.Max
			}
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conn = conn
		c.hello = hello
		c.lost = nil
		c.redial = false
		c.mu.Unlock()
		go c.readLoop(conn)
		return
	}
}

// Call performs one op: in is encoded as the request body, and the
// response body is unmarshaled into out (out may be nil to discard it).
// Wire errors come back typed: errors.Is sees the core sentinels and
// errors.As extracts *core.ExchangeError, exactly as in-process callers
// do. While the connection is down, Call fails fast with ErrConnLost
// (retryable) instead of blocking on the redialer. A request whose frame
// would exceed MaxFrame fails with ErrFrameTooLarge before anything is
// sent, and the connection stays up.
func (c *Client) Call(ctx context.Context, op string, in, out any) error {
	f, err := c.call(ctx, op, in)
	if err != nil {
		return err
	}
	if out != nil && len(f.Body) > 0 {
		if err := json.Unmarshal(f.Body, out); err != nil {
			return fmt.Errorf("server: decode %s response: %w", op, err)
		}
	}
	return nil
}

// call sends one request and returns its successful response frame.
func (c *Client) call(ctx context.Context, op string, in any) (*Frame, error) {
	ch := make(chan callResult, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	conn := c.conn
	if conn == nil {
		lost := c.lost
		c.mu.Unlock()
		if lost != nil {
			return nil, fmt.Errorf("%w: %v", ErrConnLost, lost)
		}
		return nil, ErrConnLost
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}()

	if err := c.send(conn, id, op, in); err != nil {
		return nil, err
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, r.err
		}
		if r.f.Err != nil {
			return nil, DecodeError(r.f.Err)
		}
		return r.f, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// send encodes one request frame into a pooled buffer, outside writeMu,
// and writes it holding writeMu only for the Write. A write error is the
// connection's loss.
func (c *Client) send(conn net.Conn, id uint64, op string, in any) error {
	buf := formats.GetBuffer()
	defer formats.PutBuffer(buf)
	if err := appendFrame(buf, ProtocolVersion, id, op, orNull(in), nil); err != nil {
		return fmt.Errorf("server: %s request: %w", op, err)
	}
	c.writeMu.Lock()
	_, err := conn.Write(buf.Bytes())
	c.writeMu.Unlock()
	if err != nil {
		err = fmt.Errorf("server: write frame: %w", err)
		c.connLost(conn, err)
		return fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return nil
}

// Status fetches the hub's unified snapshot.
func (c *Client) Status(ctx context.Context) (*core.StatusSnapshot, error) {
	out := &core.StatusSnapshot{}
	if err := c.Call(ctx, OpStatus, struct{}{}, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Submit runs one exchange on the daemon and returns its outcome.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (*SubmitResponse, error) {
	out := &SubmitResponse{}
	if err := c.Call(ctx, OpSubmit, req, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Forward relays a submit to a peer daemon on behalf of another node and
// returns the owner's response body as it arrived, a SubmitResponse in
// JSON: the relaying node answers its own caller with it instead of
// decoding and encoding it again. The body is a window of the response
// frame, which nothing else holds.
func (c *Client) Forward(ctx context.Context, req ForwardRequest) (json.RawMessage, error) {
	f, err := c.call(ctx, OpForward, req)
	if err != nil {
		return nil, err
	}
	return f.Body, nil
}

// Heartbeat probes a peer daemon's liveness.
func (c *Client) Heartbeat(ctx context.Context, req HeartbeatRequest) (*HeartbeatResponse, error) {
	out := &HeartbeatResponse{}
	if err := c.Call(ctx, OpHeartbeat, req, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Trace fetches one exchange's record and trace lines.
func (c *Client) Trace(ctx context.Context, exchangeID string) (*TraceResponse, error) {
	out := &TraceResponse{}
	if err := c.Call(ctx, OpTrace, TraceRequest{ExchangeID: exchangeID}, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DLQ lists the daemon's dead-letter queue.
func (c *Client) DLQ(ctx context.Context) (*DLQResponse, error) {
	out := &DLQResponse{}
	if err := c.Call(ctx, OpDLQ, struct{}{}, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Resubmit reruns one dead-lettered exchange by ID, or all of them.
func (c *Client) Resubmit(ctx context.Context, exchangeID string, all bool) (*ResubmitResponse, error) {
	out := &ResubmitResponse{}
	req := ResubmitRequest{ExchangeID: exchangeID, All: all}
	if err := c.Call(ctx, OpResubmit, req, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Scrub runs a read-only full-file walk of the daemon's journal and
// reports valid records, mid-file corrupt regions and torn tail bytes.
func (c *Client) Scrub(ctx context.Context) (*ScrubResponse, error) {
	out := &ScrubResponse{}
	if err := c.Call(ctx, OpScrub, struct{}{}, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Drain gracefully drains the daemon's hub under the given deadline
// (0 = the daemon's default) and checkpoints its journal.
func (c *Client) Drain(ctx context.Context, timeoutMS int64) (*DrainResponse, error) {
	out := &DrainResponse{}
	if err := c.Call(ctx, OpDrain, DrainRequest{TimeoutMS: timeoutMS}, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PORequest builds the SubmitRequest for a normalized purchase order.
func PORequest(po *doc.PurchaseOrder) (SubmitRequest, error) {
	raw, err := json.Marshal(po)
	if err != nil {
		return SubmitRequest{}, fmt.Errorf("server: marshal po: %w", err)
	}
	return SubmitRequest{Kind: string(core.DocPO), PO: raw}, nil
}
