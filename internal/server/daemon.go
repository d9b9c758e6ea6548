package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/formats"
)

// Daemon serves one hub over the wire protocol. Each accepted connection
// gets a reader goroutine; each request frame is served on its own
// goroutine so slow exchanges never head-of-line-block status queries on
// the same connection (responses correlate by frame ID).
type Daemon struct {
	hub *core.Hub
	ln  net.Listener

	name         string
	drainTimeout time.Duration
	writeTimeout time.Duration
	writeQueue   int
	handlers     map[string]HandlerFunc

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Option configures a Daemon.
type Option func(*Daemon)

// WithName sets the daemon name reported by OpHello.
func WithName(name string) Option { return func(d *Daemon) { d.name = name } }

// WithDrainTimeout sets the default OpDrain deadline used when the request
// carries none (default 30s).
func WithDrainTimeout(t time.Duration) Option {
	return func(d *Daemon) { d.drainTimeout = t }
}

// WithWriteTimeout bounds each response frame's write (default 10s). A
// client that stops reading long enough to stall a write past the deadline
// is evicted — its connection is closed — instead of wedging the
// connection's writer.
func WithWriteTimeout(t time.Duration) Option {
	return func(d *Daemon) {
		if t > 0 {
			d.writeTimeout = t
		}
	}
}

// WithWriteQueue bounds each connection's response queue (default 256
// frames). Handlers that outrun a slow reader block on the full queue for
// at most the write timeout, then the connection is evicted.
func WithWriteQueue(n int) Option {
	return func(d *Daemon) {
		if n > 0 {
			d.writeQueue = n
		}
	}
}

// HandlerFunc serves one op: body is the request frame's body, the
// returned value is encoded as the response body (an error becomes a
// typed WireError, exactly like built-in ops). body is a window of the
// request frame's payload; a handler decodes it and keeps nothing of it
// after it returns.
type HandlerFunc func(ctx context.Context, body json.RawMessage) (any, error)

// Handle registers fn for op, consulted before the built-in ops — an
// extension point for layers above the daemon (the cluster node overrides
// OpSubmit to route by partner ownership and adds OpForward/OpHeartbeat)
// without the server package depending on them. An override can delegate
// to the built-in behavior with Builtin. Handle must be called before
// Serve — the map is read without a lock once connections are being
// accepted — and after NewDaemon, because a cluster node's member list can
// only be final once every daemon has its bound address.
func (d *Daemon) Handle(op string, fn HandlerFunc) { d.handlers[op] = fn }

// NewDaemon listens on addr ("127.0.0.1:0" for an ephemeral port) and
// returns a daemon ready to Serve the hub.
func NewDaemon(h *core.Hub, addr string, opts ...Option) (*Daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		hub:          h,
		ln:           ln,
		name:         "b2bhub",
		drainTimeout: 30 * time.Second,
		writeTimeout: 10 * time.Second,
		writeQueue:   256,
		handlers:     map[string]HandlerFunc{},
		ctx:          ctx,
		cancel:       cancel,
		conns:        map[net.Conn]struct{}{},
	}
	for _, o := range opts {
		o(d)
	}
	return d, nil
}

// Addr is the daemon's listen address (host:port).
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Hub is the hub the daemon serves.
func (d *Daemon) Hub() *core.Hub { return d.hub }

// Context is the daemon's lifecycle context: cancelled by Close, it bounds
// the hub work of in-flight requests and any background work layered on
// the daemon (heartbeat loops, takeover replays).
func (d *Daemon) Context() context.Context { return d.ctx }

// Serve accepts connections until Close; it returns nil on a clean close.
func (d *Daemon) Serve() error {
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			d.mu.Lock()
			closed := d.closed
			d.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			conn.Close()
			return nil
		}
		d.conns[conn] = struct{}{}
		d.wg.Add(1)
		d.mu.Unlock()
		go d.handleConn(conn)
	}
}

// Close stops accepting and shuts each connection down in order: a read
// deadline stops its reader, its in-flight handlers finish, its writer
// flushes their responses, and only then is the socket closed. Close
// cancels the daemon context first, so handlers still waiting on the hub
// abort their exchanges between steps and answer with the cancellation.
// It does not touch the hub otherwise — drain the hub first for a graceful
// shutdown (DrainAndClose), and every drained exchange's response reaches
// its client.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.wg.Wait()
		return nil
	}
	d.closed = true
	conns := make([]net.Conn, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	d.cancel()
	err := d.ln.Close()
	for _, c := range conns {
		// An error means the connection was already evicted and closed:
		// its reader has stopped on its own.
		_ = c.SetReadDeadline(time.Now())
	}
	d.wg.Wait()
	return err
}

// DrainAndClose is the graceful shutdown sequence shared by the SIGTERM
// handler and tests: drain the hub under the deadline, checkpoint the
// journal (when there is one), then close the daemon. The drain summary is
// returned even when the deadline expired (with the deadline error).
func (d *Daemon) DrainAndClose(timeout time.Duration) (core.DrainSummary, error) {
	if timeout <= 0 {
		timeout = d.drainTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	sum, err := d.hub.Drain(ctx)
	if err == nil {
		if cerr := d.hub.CheckpointJournal(); cerr != nil && !errors.Is(cerr, core.ErrNoJournal) {
			err = cerr
		}
	}
	if cerr := d.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return sum, err
}

// connState wraps one accepted connection: its request group, the bounded
// response queue, and the single writer goroutine that drains it under a
// per-frame write deadline. Responses used to be written directly by the
// handler goroutines under a mutex — one client that stopped reading could
// park every handler of the connection on a blocked write forever. Now a
// handler encodes its response frame into a pooled buffer, enqueues it and
// moves on; a reader that stalls the writer past the write deadline (or
// keeps the queue full past it) is evicted: the connection is closed, the
// pipelined handlers finish into a draining queue, and the rest of the
// daemon never notices.
type connState struct {
	c       net.Conn
	writeTO time.Duration
	out     chan *bytes.Buffer // encoded frames, each from formats.GetBuffer
	reqs    sync.WaitGroup
	wdone   chan struct{}

	aborted   chan struct{}
	abortOnce sync.Once
}

// abort evicts the connection: further queued frames are discarded and the
// socket is closed (which also unblocks the read loop).
func (cs *connState) abort() {
	cs.abortOnce.Do(func() {
		close(cs.aborted)
		cs.c.Close()
	})
}

// respond enqueues one encoded response frame. A full queue blocks the
// handler for at most the write timeout before the connection is declared
// wedged and evicted.
func (cs *connState) respond(frame *bytes.Buffer) {
	select {
	case cs.out <- frame:
		return
	case <-cs.aborted:
	default:
		t := time.NewTimer(cs.writeTO)
		defer t.Stop()
		select {
		case cs.out <- frame:
			return
		case <-cs.aborted:
		case <-t.C:
			cs.abort()
		}
	}
	formats.PutBuffer(frame)
}

// writeLoop is the connection's single writer: it drains the response
// queue under a per-frame write deadline until the queue is closed,
// returning each frame's buffer to the pool once written. After a write
// failure or deadline expiry it keeps draining (discarding) so handlers
// never block on a dead connection.
func (cs *connState) writeLoop() {
	defer close(cs.wdone)
	for frame := range cs.out {
		select {
		case <-cs.aborted: // discard: the connection is gone
		default:
			if cs.writeTO > 0 {
				_ = cs.c.SetWriteDeadline(time.Now().Add(cs.writeTO))
			}
			if _, err := cs.c.Write(frame.Bytes()); err != nil {
				cs.abort()
			}
		}
		formats.PutBuffer(frame)
	}
}

func (d *Daemon) handleConn(c net.Conn) {
	cs := &connState{
		c:       c,
		writeTO: d.writeTimeout,
		out:     make(chan *bytes.Buffer, d.writeQueue),
		wdone:   make(chan struct{}),
		aborted: make(chan struct{}),
	}
	go cs.writeLoop()
	defer func() {
		cs.reqs.Wait() // all handlers enqueued (or timed out enqueueing)
		close(cs.out)  // writer flushes what is queued, then exits
		<-cs.wdone
		cs.abort()
		d.mu.Lock()
		delete(d.conns, c)
		d.mu.Unlock()
		d.wg.Done()
	}()
	for {
		f, err := ReadFrame(c, MaxFrame)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				cs.respond(encodeResponse(0, "", nil, protoError(CodeBadFrame, err.Error())))
			}
			return
		}
		if f.V != ProtocolVersion {
			cs.respond(encodeResponse(f.ID, "", nil, protoError(CodeVersion,
				fmt.Sprintf("server: protocol version %d not supported (daemon speaks %d)", f.V, ProtocolVersion))))
			continue
		}
		cs.reqs.Add(1)
		go func(f *Frame) {
			defer cs.reqs.Done()
			body, err := d.serve(f.Op, f.Body)
			cs.respond(encodeResponse(f.ID, f.Op, body, err))
		}(f)
	}
}

// encodeResponse encodes the response frame to request id into a pooled
// buffer: the handler's body, or its error as a typed WireError. A body
// that does not encode, or whose frame would exceed MaxFrame, is answered
// with a CodeInternal error instead, so only this request fails and the
// connection stays up.
func encodeResponse(id uint64, op string, body any, err error) *bytes.Buffer {
	buf := formats.GetBuffer()
	if err == nil {
		if err = appendFrame(buf, ProtocolVersion, id, op, orNull(body), nil); err == nil {
			return buf
		}
		err = protoError(CodeInternal, fmt.Sprintf("server: %s response: %v", op, err))
	}
	we, ok := err.(*WireError)
	if !ok {
		we = EncodeError(err)
	}
	if ferr := appendFrame(buf, ProtocolVersion, id, op, nil, we); ferr != nil {
		// Only the size fails an error frame, whose op or message echoes an
		// input too large to send back; a frame that names only the size
		// cannot fail.
		_ = appendFrame(buf, ProtocolVersion, id, "", nil,
			protoError(CodeInternal, fmt.Sprintf("server: error response: %v", ferr)))
	}
	return buf
}

// Error implements error so a *WireError can flow through serve directly
// for protocol-level failures.
func (w *WireError) Error() string { return w.Message }

func (d *Daemon) serve(op string, body json.RawMessage) (any, error) {
	if fn, ok := d.handlers[op]; ok {
		return fn(d.ctx, body)
	}
	return d.Builtin(op, body)
}

// Builtin serves one op with the daemon's built-in handler, bypassing any
// override registered with Handle. An override delegates to it the ops it
// does not decode itself (the cluster node's submit override hands it a
// body that does not decode, so the caller gets the built-in decode
// error; a submit it has decoded runs through Submit).
func (d *Daemon) Builtin(op string, body json.RawMessage) (any, error) {
	switch op {
	case OpHello:
		return d.hello(), nil
	case OpStatus:
		return d.hub.Status(), nil
	case OpSubmit:
		return d.submit(body)
	case OpTrace:
		return d.trace(body)
	case OpDLQ:
		return d.dlq(), nil
	case OpResubmit:
		return d.resubmitOp(body)
	case OpDrain:
		return d.drain(body)
	case OpScrub:
		return d.scrub()
	default:
		return nil, protoError(CodeUnknownOp, fmt.Sprintf("server: unknown op %q", op))
	}
}

func (d *Daemon) hello() *HelloResponse {
	h := &HelloResponse{
		Version: ProtocolVersion,
		Name:    d.name,
		Journal: d.hub.Journal() != nil,
	}
	for _, p := range d.hub.Snapshot().Model.Partners {
		h.Partners = append(h.Partners, p.ID)
	}
	sort.Strings(h.Partners)
	return h
}

func (d *Daemon) submit(body json.RawMessage) (any, error) {
	var sr SubmitRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, protoError(CodeBadFrame, fmt.Sprintf("server: decode submit: %v", err))
	}
	return d.Submit(&sr)
}

// Submit runs one decoded submit request on the hub's sharded scheduler,
// as OpSubmit does once its body decodes: a request that does not convert
// to a core.Request is a CodeBadFrame error, TimeoutMS bounds the
// exchange, and the request's priority and retry override apply. The
// cluster node calls it for the submits it routes, so a body is decoded
// once wherever it runs.
func (d *Daemon) Submit(sr *SubmitRequest) (any, error) {
	req, err := sr.CoreRequest()
	if err != nil {
		return nil, protoError(CodeBadFrame, err.Error())
	}
	ctx := d.ctx
	if sr.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(sr.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res, err := d.hub.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	out := &SubmitResponse{Wire: res.Wire}
	if res.Exchange != nil {
		out.ExchangeID = res.Exchange.ID
		out.Partner = res.Exchange.Partner.ID
	}
	if res.POA != nil {
		raw, err := json.Marshal(res.POA)
		if err != nil {
			return nil, protoError(CodeInternal, fmt.Sprintf("server: marshal poa: %v", err))
		}
		out.POA = raw
	}
	return out, nil
}

func (d *Daemon) trace(body json.RawMessage) (any, error) {
	var tr TraceRequest
	if err := json.Unmarshal(body, &tr); err != nil {
		return nil, protoError(CodeBadFrame, fmt.Sprintf("server: decode trace: %v", err))
	}
	ex, ok := d.hub.ExchangeByID(tr.ExchangeID)
	if !ok {
		return nil, protoError(CodeNotFound, fmt.Sprintf("server: exchange %q not found", tr.ExchangeID))
	}
	return &TraceResponse{
		ExchangeID: ex.ID,
		Partner:    ex.Partner.ID,
		Flow:       string(ex.Flow),
		Protocol:   string(ex.Protocol),
		Backend:    ex.Backend,
		Trace:      d.hub.Trace(ex.ID),
	}, nil
}

func (d *Daemon) dlq() *DLQResponse {
	dls := d.hub.DeadLetters()
	resp := &DLQResponse{Entries: make([]DLQEntry, 0, len(dls))}
	for _, dl := range dls {
		reason := ""
		if dl.Reason != nil {
			reason = dl.Reason.Error()
		}
		resp.Entries = append(resp.Entries, DLQEntry{
			ExchangeID: dl.ExchangeID,
			Partner:    dl.Partner,
			Flow:       string(dl.Flow),
			Protocol:   string(dl.Protocol),
			Reason:     reason,
			At:         dl.At.UTC().Format(time.RFC3339Nano),
		})
	}
	return resp
}

func (d *Daemon) resubmitOp(body json.RawMessage) (any, error) {
	var rr ResubmitRequest
	if err := json.Unmarshal(body, &rr); err != nil {
		return nil, protoError(CodeBadFrame, fmt.Sprintf("server: decode resubmit: %v", err))
	}
	var ids []string
	switch {
	case rr.All:
		for _, dl := range d.hub.DeadLetters() {
			ids = append(ids, dl.ExchangeID)
		}
	case rr.ExchangeID != "":
		ids = []string{rr.ExchangeID}
	default:
		return nil, protoError(CodeBadFrame, "server: resubmit requires exchange_id or all")
	}
	resp := &ResubmitResponse{Outcomes: make([]ResubmitOutcome, 0, len(ids))}
	for _, id := range ids {
		ex, err := d.hub.Resubmit(d.ctx, id)
		if errors.Is(err, core.ErrNotDeadLettered) {
			if !rr.All {
				return nil, protoError(CodeNotFound, fmt.Sprintf("server: exchange %q not on the dead-letter queue", id))
			}
			continue // a concurrent resubmit took it
		}
		out := ResubmitOutcome{ExchangeID: id}
		if ex != nil {
			out.NewExchangeID = ex.ID
		}
		if err != nil {
			out.Err = EncodeError(err)
		}
		resp.Outcomes = append(resp.Outcomes, out)
	}
	return resp, nil
}

func (d *Daemon) scrub() (any, error) {
	rep, err := d.hub.ScrubJournal()
	if err != nil {
		return nil, err
	}
	return &ScrubResponse{
		Path:             d.hub.Journal().Path(),
		Records:          rep.Records,
		Corrupt:          rep.Corrupt,
		QuarantinedBytes: rep.QuarantinedBytes,
		TornBytes:        rep.TornBytes,
	}, nil
}

func (d *Daemon) drain(body json.RawMessage) (any, error) {
	var dr DrainRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &dr); err != nil {
			return nil, protoError(CodeBadFrame, fmt.Sprintf("server: decode drain: %v", err))
		}
	}
	timeout := d.drainTimeout
	if dr.TimeoutMS > 0 {
		timeout = time.Duration(dr.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	sum, err := d.hub.Drain(ctx)
	resp := &DrainResponse{
		Completed:    sum.Completed,
		Failed:       sum.Failed,
		Shed:         sum.Shed,
		DeadLettered: sum.DeadLettered,
		TimedOut:     errors.Is(err, context.DeadlineExceeded),
	}
	if err != nil && !resp.TimedOut {
		return nil, err
	}
	if err == nil {
		if cerr := d.hub.CheckpointJournal(); cerr == nil {
			resp.Checkpointed = true
		} else if !errors.Is(cerr, core.ErrNoJournal) {
			return nil, cerr
		}
	}
	return resp, nil
}
