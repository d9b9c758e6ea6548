package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

var (
	tp1    = doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"}
	seller = doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}
)

// newDaemon builds a Figure 14 hub, serves it on an ephemeral loopback
// port and dials one client. Cleanup drains nothing — tests own the hub's
// lifecycle decisions — but always closes daemon, client and scheduler.
func newDaemon(t *testing.T, opts ...core.HubOption) (*core.Hub, *Daemon, *Client) {
	t.Helper()
	m, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHub(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(h, "127.0.0.1:0", WithName("test-hub"))
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- d.Serve() }()
	c, err := Dial(context.Background(), d.Addr())
	if err != nil {
		d.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		d.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
		h.Drain(context.Background())
		h.CloseJournal()
	})
	return h, d, c
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Frame{V: 1, ID: 42, Op: OpStatus, Body: json.RawMessage(`{"x":1}`)}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.V != 1 || out.ID != 42 || out.Op != OpStatus || string(out.Body) != `{"x":1}` {
		t.Fatalf("round trip mismatch: %+v", out)
	}

	// Oversized frames are rejected without consuming the payload.
	buf.Reset()
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, 4); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}

	// A torn frame reports a short read, not a silent truncation.
	buf.Reset()
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	torn := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	if _, err := ReadFrame(torn, 0); err == nil {
		t.Fatal("torn frame decoded")
	}
}

// TestWireErrorRoundTrip pins the error mapping contract: every sentinel
// survives encode → JSON → decode with errors.Is intact, exchange detail
// survives errors.As, and the rendered message is unchanged.
func TestWireErrorRoundTrip(t *testing.T) {
	sentinels := []error{
		core.ErrHubStopped, core.ErrUnknownPartner, core.ErrProtocolMismatch,
		core.ErrInvalidRequest, core.ErrNoOutbound, core.ErrPartnerUnavailable,
		core.ErrNoJournal, context.DeadlineExceeded, context.Canceled,
	}
	for _, sent := range sentinels {
		t.Run(codeFor(sent), func(t *testing.T) {
			src := &core.ExchangeError{
				ExchangeID: "ex-000007",
				Partner:    "TP2",
				Stage:      obs.StageApp,
				Port:       "app.out",
				Attempt:    2,
				Err:        fmt.Errorf("wrapped: %w", sent),
			}
			we := EncodeError(src)
			raw, err := json.Marshal(we)
			if err != nil {
				t.Fatal(err)
			}
			back := &WireError{}
			if err := json.Unmarshal(raw, back); err != nil {
				t.Fatal(err)
			}
			dec := DecodeError(back)
			if !errors.Is(dec, sent) {
				t.Fatalf("decoded error lost sentinel %v: %v", sent, dec)
			}
			var ee *core.ExchangeError
			if !errors.As(dec, &ee) {
				t.Fatalf("decoded error lost ExchangeError: %v", dec)
			}
			if ee.ExchangeID != src.ExchangeID || ee.Partner != src.Partner ||
				ee.Stage != src.Stage || ee.Port != src.Port || ee.Attempt != src.Attempt {
				t.Fatalf("detail mismatch: %+v vs %+v", ee, src)
			}
			if dec.Error() != src.Error() {
				t.Fatalf("message changed:\n  was %q\n  now %q", src.Error(), dec.Error())
			}
		})
	}

	// Plain sentinel without exchange detail.
	dec := DecodeError(EncodeError(core.ErrHubStopped))
	if !errors.Is(dec, core.ErrHubStopped) || dec.Error() != core.ErrHubStopped.Error() {
		t.Fatalf("plain sentinel mismatch: %v", dec)
	}
	// Unknown code from a newer daemon decodes to an opaque error.
	dec = DecodeError(&WireError{Code: "code-from-the-future", Message: "boom"})
	if dec == nil || dec.Error() != "boom" {
		t.Fatalf("unknown code: %v", dec)
	}
	if DecodeError(nil) != nil {
		t.Fatal("nil round trip")
	}
}

// TestDaemonSubmitFlows drives the document kinds over the wire: a PO, a
// high-priority PO with a retry override and the compatibility async
// flag, and the outbound invoice for a fulfilled order.
func TestDaemonSubmitFlows(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h, _, c := newDaemon(t, core.WithShards(2), core.WithWorkersPerShard(2))
	if _, err := h.EnableInvoicing(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if hello := c.Hello(); hello.Version != ProtocolVersion || hello.Name != "test-hub" {
		t.Fatalf("hello mismatch: %+v", hello)
	}

	g := doc.NewGenerator(7)
	po := g.PO(tp1, seller)
	req, err := PORequest(po)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ExchangeID == "" || resp.Partner != "TP1" {
		t.Fatalf("submit response: %+v", resp)
	}
	poa := &doc.PurchaseOrderAck{}
	if err := json.Unmarshal(resp.POA, poa); err != nil {
		t.Fatal(err)
	}
	if poa.POID != po.ID {
		t.Fatalf("POA for %q, want %q", poa.POID, po.ID)
	}

	// High lane with a retry override. Async still decodes (older clients
	// and hubbench set it) and selects nothing.
	po2 := g.PO(tp1, seller)
	req2, err := PORequest(po2)
	if err != nil {
		t.Fatal(err)
	}
	req2.Async = true
	req2.High = true
	req2.Retry = &RetryOverride{MaxAttempts: 3, BaseBackoffMS: 1}
	if _, err := c.Submit(ctx, req2); err != nil {
		t.Fatal(err)
	}

	// Invoice for the first order.
	inv, err := c.Submit(ctx, SubmitRequest{Kind: "invoice", PartnerID: "TP1", POID: po.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Wire) == 0 {
		t.Fatal("invoice returned no wire document")
	}

	// Trace of the first exchange is served remotely.
	trace, err := c.Trace(ctx, resp.ExchangeID)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Partner != "TP1" || trace.Protocol != string(formats.EDI) || len(trace.Trace) == 0 {
		t.Fatalf("trace response: %+v", trace)
	}

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != core.StatusVersion {
		t.Fatalf("status version %d, want %d", st.Version, core.StatusVersion)
	}
	if st.Exchanges.Started < 3 || st.Exchanges.ByPartner["TP1"] < 3 {
		t.Fatalf("status counters: %+v", st.Exchanges)
	}
	if !st.Sched.Running || st.Sched.Shards != 2 {
		t.Fatalf("status sched: %+v", st.Sched)
	}
}

// TestDaemonTypedErrors pins the remote error surface: core sentinels and
// exchange detail cross the wire, and protocol-level failures carry their
// own codes.
func TestDaemonTypedErrors(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	_, d, c := newDaemon(t)
	ctx := context.Background()

	// Unknown partner: typed pipeline failure.
	g := doc.NewGenerator(9)
	po := g.PO(doc.Party{ID: "NOPE", Name: "Ghost", DUNS: "000000000"}, seller)
	req, err := PORequest(po)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, req)
	if !errors.Is(err, core.ErrUnknownPartner) {
		t.Fatalf("want ErrUnknownPartner over the wire, got %v", err)
	}

	// Invalid request: sentinel without exchange detail.
	_, err = c.Submit(ctx, SubmitRequest{Kind: "po"})
	if !errors.Is(err, core.ErrInvalidRequest) {
		t.Fatalf("want ErrInvalidRequest, got %v", err)
	}

	// Unknown exchange: protocol-level not-found.
	_, err = c.Trace(ctx, "ex-999999")
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("want not-found, got %v", err)
	}

	// Unknown op.
	if err := c.Call(ctx, "no-such-op", struct{}{}, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("want unknown-op, got %v", err)
	}

	// Resubmit without selector.
	if _, err := c.Resubmit(ctx, "", false); err == nil {
		t.Fatal("want bad-frame for empty resubmit")
	}

	// A frame with an alien protocol version is rejected per-frame and the
	// connection stays usable. Speak the raw protocol for this one.
	raw, err := Dial(ctx, d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.writeMu.Lock()
	werr := WriteFrame(raw.conn, &Frame{V: 99, ID: 1, Op: OpStatus})
	raw.writeMu.Unlock()
	if werr != nil {
		t.Fatal(werr)
	}
	// The response has ID 1, which this client never used for a pending
	// call — read it off the wire by racing a real call after it: the
	// version error must not have corrupted the connection.
	if _, err := raw.Status(ctx); err != nil {
		t.Fatalf("connection unusable after version mismatch: %v", err)
	}
}

// TestDaemonDLQResubmitDrain exercises the operator loop end to end: a
// hard-down backend dead-letters exchanges, the DLQ is listed remotely, a
// resubmit against the still-broken backend re-parks, a resubmit after
// healing succeeds, and a final drain checkpoints the journal.
func TestDaemonDLQResubmitDrain(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	jpath := filepath.Join(t.TempDir(), "hub.journal")
	h, _, c := newDaemon(t, core.WithJournal(jpath))
	ctx := context.Background()

	var faults []*backend.Faulty
	h.WrapBackends(func(sys backend.System) backend.System {
		f := backend.NewFaulty(sys, backend.FaultSchedule{ErrProb: 1.0, Seed: 3})
		faults = append(faults, f)
		return f
	})
	h.SetDefaultRetryPolicy(core.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond})

	g := doc.NewGenerator(11)
	po := g.PO(tp1, seller)
	req, err := PORequest(po)
	if err != nil {
		t.Fatal(err)
	}
	_, serr := c.Submit(ctx, req)
	if serr == nil {
		t.Fatal("submit against hard-down backend succeeded")
	}
	// Pipeline failures arrive typed: the exchange detail survives the wire.
	var ee *core.ExchangeError
	if !errors.As(serr, &ee) {
		t.Fatalf("want *core.ExchangeError over the wire, got %T: %v", serr, serr)
	}
	if ee.Partner != "TP1" || ee.ExchangeID == "" {
		t.Fatalf("exchange detail lost over the wire: %+v", ee)
	}

	dlq, err := c.DLQ(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dlq.Entries) != 1 || dlq.Entries[0].Partner != "TP1" {
		t.Fatalf("dlq: %+v", dlq.Entries)
	}
	exID := dlq.Entries[0].ExchangeID

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.DLQ.Depth != 1 || !st.Journal.Enabled || st.Journal.UnresolvedDeadLetters != 1 {
		t.Fatalf("status dlq/journal: %+v %+v", st.DLQ, st.Journal)
	}

	// Still broken: the rerun fails and re-parks.
	rs, err := c.Resubmit(ctx, exID, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Outcomes) != 1 || rs.Outcomes[0].Err == nil {
		t.Fatalf("resubmit against broken backend: %+v", rs.Outcomes)
	}
	if dlq, err = c.DLQ(ctx); err != nil || len(dlq.Entries) != 1 {
		t.Fatalf("dlq after failed resubmit: %v %+v", err, dlq.Entries)
	}

	// Heal and rerun everything.
	for _, f := range faults {
		f.SetSchedule(backend.FaultSchedule{})
	}
	rs, err = c.Resubmit(ctx, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Outcomes) != 1 || rs.Outcomes[0].Err != nil || rs.Outcomes[0].NewExchangeID == "" {
		t.Fatalf("resubmit after heal: %+v", rs.Outcomes)
	}
	if dlq, err = c.DLQ(ctx); err != nil || len(dlq.Entries) != 0 {
		t.Fatalf("dlq after heal: %v %+v", err, dlq.Entries)
	}

	dr, err := c.Drain(ctx, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if dr.TimedOut || !dr.Checkpointed {
		t.Fatalf("drain: %+v", dr)
	}
	if dr.Completed < 1 {
		t.Fatalf("drain completed %d, want >= 1", dr.Completed)
	}

	// Post-drain the hub rejects new work with the typed sentinel — even
	// over the wire.
	req.Async = true
	if _, err := c.Submit(ctx, req); !errors.Is(err, core.ErrHubStopped) {
		t.Fatalf("want ErrHubStopped after drain, got %v", err)
	}
}

// TestDrainKeepsDeadLetters: a drain leaves the daemon's dead-letter queue
// as it is. A journal-less daemon holding one dead letter answers drain
// with the entry counted, dlq still lists it, and a resubmit the drained
// hub refuses leaves it queued once; an ID the queue does not hold is
// not-found.
func TestDrainKeepsDeadLetters(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h, d, c := newDaemon(t)
	ctx := context.Background()
	h.WrapBackends(func(sys backend.System) backend.System {
		return backend.NewFaulty(sys, backend.FaultSchedule{ErrProb: 1, Seed: 3})
	})
	h.SetDefaultRetryPolicy(core.RetryPolicy{MaxAttempts: 1})
	req, err := PORequest(doc.NewGenerator(13).PO(tp1, seller))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, req); err == nil {
		t.Fatal("submit against hard-down backend succeeded")
	}
	dlq, err := c.DLQ(ctx)
	if err != nil || len(dlq.Entries) != 1 {
		t.Fatalf("dlq before drain: %v %+v, want one entry", err, dlq)
	}
	exID := dlq.Entries[0].ExchangeID

	dr, err := c.Drain(ctx, 5000)
	if err != nil || dr.TimedOut || dr.DeadLettered != 1 {
		t.Fatalf("drain: %v %+v, want dead_lettered 1", err, dr)
	}
	for i := 0; i < 2; i++ {
		if dlq, err = c.DLQ(ctx); err != nil || len(dlq.Entries) != 1 || dlq.Entries[0].ExchangeID != exID {
			t.Fatalf("dlq after drain: %v %+v, want %s once", err, dlq, exID)
		}
		rs, err := c.Resubmit(ctx, exID, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Outcomes) != 1 || !errors.Is(DecodeError(rs.Outcomes[0].Err), core.ErrHubStopped) {
			t.Fatalf("resubmit after drain: %+v, want one ErrHubStopped outcome", rs.Outcomes)
		}
	}

	_, err = d.resubmitOp(json.RawMessage(`{"exchange_id":"ex-not-queued"}`))
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeNotFound {
		t.Fatalf("resubmit of an ID not on the queue = %v, want %s", err, CodeNotFound)
	}
}

// TestDaemonConcurrentClients hammers one daemon from two clients sharing
// the pipelined protocol, interleaving submits and status queries, and
// reconciles the exchange count. Run with -race.
func TestDaemonConcurrentClients(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	h, d, c1 := newDaemon(t, core.WithShards(2), core.WithWorkersPerShard(2))
	ctx := context.Background()
	c2, err := Dial(ctx, d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	const (
		goroutines = 8
		perG       = 5
	)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*perG)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := c1
			if i%2 == 1 {
				c = c2
			}
			g := doc.NewGenerator(int64(100 + i))
			for j := 0; j < perG; j++ {
				po := g.PO(tp1, seller)
				po.ID = fmt.Sprintf("%s-g%d-%d", po.ID, i, j)
				req, err := PORequest(po)
				if err != nil {
					errCh <- err
					return
				}
				req.Async = i%2 == 0
				if _, err := c.Submit(ctx, req); err != nil {
					errCh <- err
					return
				}
				if j == 0 {
					if _, err := c.Status(ctx); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := h.Status().Exchanges.Started; got != goroutines*perG {
		t.Fatalf("started %d exchanges, want %d", got, goroutines*perG)
	}
}

// TestDaemonTraceFollowsTheRetentionWindow: after more exchanges than the
// hub's retention window of 1,024 finished exchanges, the trace op answers
// for exactly the newest 1,024 and not-found for the older ones; a dead
// letter parked before them all is answered with its hops.
func TestDaemonTraceFollowsTheRetentionWindow(t *testing.T) {
	const window, agedOut = core.RetentionWindow, 8
	h, _, c := newDaemon(t)
	ctx := context.Background()
	g := doc.NewGenerator(13)

	var faults []*backend.Faulty
	h.WrapBackends(func(sys backend.System) backend.System {
		f := backend.NewFaulty(sys, backend.FaultSchedule{ErrProb: 1, Seed: 3})
		faults = append(faults, f)
		return f
	})
	h.SetDefaultRetryPolicy(core.RetryPolicy{MaxAttempts: 1})
	res, err := h.Do(ctx, core.Request{Kind: core.DocPO, PO: g.PO(tp1, seller)})
	if err == nil || res.Exchange == nil {
		t.Fatalf("an order against a down back end: %+v, %v; want a dead letter", res, err)
	}
	parked := res.Exchange.ID
	for _, f := range faults {
		f.SetSchedule(backend.FaultSchedule{})
	}

	ids := make([]string, window+agedOut)
	for i := range ids {
		res, err := h.Do(ctx, core.Request{Kind: core.DocPO, PO: g.PO(tp1, seller)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = res.Exchange.ID
	}
	for i, id := range ids {
		tr, err := c.Trace(ctx, id)
		switch {
		case i < agedOut && (err == nil || !strings.Contains(err.Error(), "not found")):
			t.Errorf("trace of aged-out exchange %s = %v, want not-found", id, err)
		case i >= agedOut && (err != nil || tr.ExchangeID != id || len(tr.Trace) == 0):
			t.Errorf("trace of retained exchange %s = %+v, %v", id, tr, err)
		}
	}
	if dls := h.DeadLetters(); len(dls) != 1 || dls[0].ExchangeID != parked {
		t.Fatalf("dead letters %+v, want %s alone", dls, parked)
	}
	if tr, err := c.Trace(ctx, parked); err != nil || tr.ExchangeID != parked || len(tr.Trace) == 0 {
		t.Errorf("trace of dead letter %s parked before %d exchanges = %+v, %v; want its hops", parked, len(ids), tr, err)
	}
}
