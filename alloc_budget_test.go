package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/cfgstore"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/formats/oagis"
	"repro/internal/formats/rosettanet"
	"repro/internal/formats/sapidoc"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wf"
	"repro/internal/wfstore"
)

// Allocation budgets. Allocation counts repeat exactly from run to run, so
// unlike timings they can gate on a noisy host. The race detector's
// instrumentation allocates, so the budgets hold only without -race. The
// measurements quoted below are go1.24's; each budget leaves about 1.2x
// headroom for runtime differences between Go releases.
const (
	// exchangeAllocBudget bounds allocations per in-process PO exchange
	// (Hub.Do on the Figure 14 hub, warmed past exchange 256 and inside the
	// retention window): 204 measured, one of them the context value that
	// carries the exchange to its steps, 205 past the window; 207 while the
	// exchange ID was formatted with fmt.Sprintf, which boxed its sequence
	// number, and each new exchange's trace buffer regrew from empty; 208
	// while the row measured a process's first hub from its first exchange,
	// 207 while each step looked its exchange up in the hub's table, 294 while
	// every instance snapshot rebuilt string-keyed step and arc maps,
	// regrew and twice copied its history and took a fresh worklist per
	// advance, 588 while the SAP IDoc codec built a map per segment, the
	// trace collector regrew each exchange's event slice and type lookups
	// formatted "name@version" keys, and 1,026 while conditions read an
	// eagerly built map and every persist deep-copied the instance.
	exchangeAllocBudget = 250
	// ruleAllocBudget bounds allocations per business-rule decision
	// (rules.Registry.Evaluate): 2 measured, 16 when the rule environment
	// was built as a map.
	ruleAllocBudget = 4
	// deliverAllocBudget bounds allocations per Engine.Deliver into a parked
	// receive step whose completion runs a conditional arc, a task and a
	// JoinAny join: 7 measured, 15 while the clone rebuilt string-keyed
	// step and arc maps, the history was copied at clone, regrown and copied
	// again at persist, and each advance took a fresh worklist, 21 while
	// the worklist took four heap slices and the plan lookup formatted its
	// key, 23 while Deliver signaled the delivered step's arcs from the
	// TypeDef (building each arc key afresh). A second plan lookup per
	// Deliver would exceed it.
	deliverAllocBudget = 8
	// startAllocBudget bounds allocations per Engine.Start of the Figure 14
	// application binding (six steps; the instance parks on its inbound
	// connection): 6 measured, 12 while step runs and arc signals were
	// string-keyed maps, the history grew by append and was copied at
	// persist, and each start built its port message and worklist, 26 while
	// every step run was its own allocation and the type, plan and instance
	// ID were formatted strings.
	startAllocBudget = 7
	// emitAllocBudget bounds allocations per exchange of 32 events emitted
	// into the trace collector with a full window of exchanges open, the
	// oldest forgotten as each new one opens: 0 measured, 6 while each
	// exchange's event slice regrew from empty instead of reusing a
	// forgotten exchange's buffer.
	emitAllocBudget = 0
	// idocEncodeAllocBudget bounds allocations per SAP IDoc encode (ORDERS,
	// ORDRSP, INVOIC): 1 measured, the output copy; 71-86 while every
	// segment was a map rendered after the fact.
	idocEncodeAllocBudget = 2
	// idocDecodeAllocBudget bounds allocations per SAP IDoc decode: 5
	// measured (the document string, its field and segment slices, the
	// document and its items); 81-93 while every segment was a map.
	idocDecodeAllocBudget = 6
	// xmlEncodeAllocBudget bounds allocations per PIP 3A4, PIP 3C3 or
	// OAGIS BOD encode: 1 measured, the output copy; 15-27 while
	// encoding/xml's Encoder rendered the struct by reflection.
	xmlEncodeAllocBudget = 2
	// xmlDecodeAllocBudget bounds allocations per PIP 3A4, PIP 3C3 or OAGIS
	// BOD decode: 3 measured (the document, its line slice and its values
	// string); 406-584 while encoding/xml's Decoder unmarshalled it by
	// reflection, an allocation per token and per string field.
	xmlDecodeAllocBudget = 4
	// canaryAllocBudget bounds the allocations an active canary adds to a
	// TP1 exchange through Hub.Do (canary fraction 0.25, never settling):
	// 0 measured, a mean of 171.9-172.0 with the canary and without it.
	canaryAllocBudget = 0
	// journalAllocBudget bounds the allocations write-ahead logging adds to
	// an exchange through Hub.Do (the Figure 14 hub, FsyncNever, both
	// sides warm): 6 measured, 210 with the journal and 204 without; 7
	// while the admission key was formatted with fmt.Sprintf, which boxed
	// its sequence number past j-00000255; 8 while Journal.Append's record
	// escaped to the heap, once per append.
	journalAllocBudget = 7
	// ageingAllocBudget bounds the allocations ageing the oldest finished
	// exchange out of the retention window adds to an exchange through
	// Hub.Do (past the window, where each exchange ages one out, minus
	// inside it, on the same documents): 1 measured, 205 past and 204
	// inside. Past the window a new exchange's trace reuses the buffer of
	// the one aged out, and the exchange table, the collector's index and
	// the store's instance map stop growing; the age-out's map deletes
	// cost a little more than that saves. -1 while inside the window each
	// new trace buffer regrew from empty (two allocations more).
	ageingAllocBudget = 1
	// seamAllocBudget bounds the allocations a FaultFS with no fault armed
	// adds to a Journal.Append (FsyncNever) over the real filesystem: 0
	// measured, 0 through the FaultFS and 0 through OSFS; 1 each while the
	// record Append encodes escaped to the heap.
	seamAllocBudget = 0
	// frameAllocBudget bounds allocations per submit round trip's framing
	// (a PIP 3A4 submit request frame and its response frame, each written
	// with server.WriteFrame and read back with server.ReadFrame): 16
	// measured, 10 of them inside json.Unmarshal; 24 while WriteFrame
	// marshalled the Frame around its body and copied the result, and
	// ReadFrame copied the body out of the payload and allocated the length
	// prefix and the Frame apart.
	frameAllocBudget = 19
	// deliverChainBytesBudget bounds the bytes one Engine.Deliver allocates
	// on a 64-step receive chain when it brings the instance's history to
	// 128 events: 10,528 B measured, 23,608 B while the clone rebuilt the
	// step and arc maps and the history was copied three times (at clone,
	// by append growth and at persist) instead of once, at its exact
	// length.
	deliverChainBytesBudget = 12600
)

func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	type row struct {
		name, per string
		budget    int
		measure   func(*testing.T) float64
	}
	rows := []row{
		{"Hub.Do", "exchange", exchangeAllocBudget, hubDoAllocs},
		{"rules.Registry.Evaluate", "decision", ruleAllocBudget, ruleAllocs},
		{"wf.Engine.Deliver", "delivery", deliverAllocBudget, deliverAllocs},
		{"wf.Engine.Start", "application-binding start", startAllocBudget, startAllocs},
		{"obs.Collector.Emit", "exchange of 32 events, a full window open", emitAllocBudget, emitAllocs},
		{"an active canary", "TP1 exchange", canaryAllocBudget, canaryAllocs},
		{"a journal (FsyncNever)", "exchange", journalAllocBudget, journalAllocs},
		{"ageing out", "exchange past the retention window", ageingAllocBudget, ageingAllocs},
		{"an unarmed journal.FaultFS", "Journal.Append", seamAllocBudget, seamAllocs},
		{"server.WriteFrame and ReadFrame", "submit round trip", frameAllocBudget, frameAllocs},
	}
	for _, c := range idocCodecs() {
		rows = append(rows,
			row{"sapidoc " + c.name + " encode", "document", idocEncodeAllocBudget, c.encodeAllocs},
			row{"sapidoc " + c.name + " decode", "document", idocDecodeAllocBudget, c.decodeAllocs})
	}
	for _, c := range xmlCodecs() {
		rows = append(rows,
			row{c.name + " encode", "document", xmlEncodeAllocBudget, c.encodeAllocs},
			row{c.name + " decode", "document", xmlDecodeAllocBudget, c.decodeAllocs})
	}
	for _, r := range rows {
		got := r.measure(t)
		t.Logf("%s: %.0f allocations per %s (budget %d)", r.name, got, r.per, r.budget)
		if got > float64(r.budget) {
			t.Errorf("%s allocates %.0f times per %s, budget %d", r.name, got, r.per, r.budget)
		}
	}
	for _, r := range []row{
		{"wf.Engine.Deliver", "delivery that brings a 64-step receive chain to 128 events", deliverChainBytesBudget, deliverChainBytes},
	} {
		got := r.measure(t)
		t.Logf("%s: %.0f B per %s (budget %d B)", r.name, got, r.per, r.budget)
		if got > float64(r.budget) {
			t.Errorf("%s allocates %.0f B per %s, budget %d B", r.name, got, r.per, r.budget)
		}
	}
}

// The Hub.Do rows measure 200 exchanges on a hub that ran warm exchanges
// first. The first hub a process measures reads 2 allocations per exchange
// more until it is warm; 300 exchanges get past that and keep the measured
// ones inside the retention window of 1,024 finished exchanges. Past 1,100
// each measured exchange ages the oldest retained one out.
const (
	warmExchanges       = 300
	pastWindowExchanges = 1100
)

// hubDoAllocs measures one in-process PO exchange through Hub.Do on a warm
// Figure 14 hub.
func hubDoAllocs(t *testing.T) float64 { return hubDoAllocsWith(t, warmExchanges) }

// hubDoAllocsWith measures one in-process PO exchange through Hub.Do on the
// Figure 14 hub built with opts, after warm exchanges.
func hubDoAllocsWith(t *testing.T, warm int, opts ...core.HubOption) float64 {
	t.Helper()
	m, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHub(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer h.CloseJournal()
	ctx := context.Background()
	const runs = 200
	g := doc.NewGenerator(1)
	buyers := []doc.Party{benchBuyer, benchBuyer2}
	// Every row measures the same documents, the generator's first, whose
	// line counts set the allocations; the warm-up runs the ones after.
	pos := make([]*doc.PurchaseOrder, runs+1+warm) // AllocsPerRun adds one warm-up run
	for i := range pos {
		pos[i] = g.PO(buyers[i%len(buyers)], benchSeller)
	}
	for _, po := range pos[runs+1:] {
		if _, err := h.Do(ctx, core.Request{Kind: core.DocPO, PO: po}); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	return testing.AllocsPerRun(runs, func() {
		po := pos[next]
		next++
		if _, err := h.Do(ctx, core.Request{Kind: core.DocPO, PO: po}); err != nil {
			t.Fatal(err)
		}
	})
}

// canaryAllocs measures what an active canary adds to a TP1 exchange
// through Hub.Do: mean allocations on a hub canarying TP1's protocol binding
// minus those on a hub without a canary, to the nearest whole allocation.
func canaryAllocs(t *testing.T) float64 {
	t.Helper()
	perExchange := func(canary bool) float64 {
		m, err := core.PaperFigure14Model()
		if err != nil {
			t.Fatal(err)
		}
		// A sample floor no run reaches keeps the canary active.
		h, err := core.NewHub(m, core.WithCanaryPolicy(cfgstore.CanaryPolicy{MinSamples: 1 << 30}))
		if err != nil {
			t.Fatal(err)
		}
		if canary {
			cand, err := core.BuildBinding(formats.EDI)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Apply(core.Canary{Partner: "TP1", Candidate: cand, Fraction: 0.25}); err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		const runs = 400
		g := doc.NewGenerator(1)
		pos := make([]*doc.PurchaseOrder, runs+1) // meanAllocs adds one warm-up run
		for i := range pos {
			pos[i] = g.PO(benchBuyer, benchSeller)
		}
		next, candidates := 0, 0
		allocs := meanAllocs(runs, func() {
			po := pos[next]
			next++
			res, err := h.Do(ctx, core.Request{Kind: core.DocPO, PO: po})
			if err != nil {
				t.Fatal(err)
			}
			if res.Exchange.CanaryArm() {
				candidates++
			}
		})
		if _, active := h.ActiveCanary("TP1"); canary && (!active || candidates == 0) {
			t.Fatalf("canary active %v, candidate arm took %d of %d exchanges", active, candidates, len(pos))
		}
		return allocs
	}
	with, without := perExchange(true), perExchange(false)
	t.Logf("Hub.Do on TP1: %.2f allocations with an active canary, %.2f without", with, without)
	return float64(int(math.Round(with - without))) // int turns a rounded -0 into 0
}

// journalAllocs measures what write-ahead logging adds to an exchange
// through Hub.Do: the Hub.Do row's count on a hub journaling with
// FsyncNever minus its count on a hub without a journal.
func journalAllocs(t *testing.T) float64 {
	t.Helper()
	with := hubDoAllocsWith(t, warmExchanges, core.WithJournal(filepath.Join(t.TempDir(), "hub.wal")), core.WithFsyncPolicy(journal.FsyncNever))
	without := hubDoAllocsWith(t, warmExchanges)
	t.Logf("Hub.Do: %.0f allocations with a journal, %.0f without", with, without)
	return with - without
}

// ageingAllocs measures what ageing an exchange out of the retention window
// adds to an exchange through Hub.Do: the Hub.Do row's count on a hub past
// the window, where every measured exchange ages the oldest retained one
// out and forgets its instances, minus its count inside the window.
func ageingAllocs(t *testing.T) float64 {
	t.Helper()
	past, inside := hubDoAllocsWith(t, pastWindowExchanges), hubDoAllocsWith(t, warmExchanges)
	t.Logf("Hub.Do: %.0f allocations past the retention window, %.0f inside it", past, inside)
	return past - inside
}

// seamAllocs measures what a FaultFS with no fault armed adds to a
// Journal.Append that does not fsync: mean allocations through the FaultFS
// minus those through the real filesystem, to the nearest whole allocation.
func seamAllocs(t *testing.T) float64 {
	t.Helper()
	perAppend := func(fs journal.FS) float64 {
		j, err := journal.Open(filepath.Join(t.TempDir(), "seam.wal"), journal.Options{Fsync: journal.FsyncNever, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		rec := journal.Record{Kind: "admit", Key: "ex-000001", Payload: json.RawMessage(`{"po":"PO-TP1-000001"}`)}
		return meanAllocs(1000, func() {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		})
	}
	faulty, plain := perAppend(journal.NewFaultFS(nil, 1)), perAppend(journal.OSFS())
	t.Logf("Journal.Append: %.2f allocations through a FaultFS, %.2f through OSFS", faulty, plain)
	return float64(int(math.Round(faulty - plain))) // int turns a rounded -0 into 0
}

// frameAllocs measures one submit round trip's framing as hubbench's server
// layer replays it: a PIP 3A4 wire submit's request frame and its response
// frame, their bodies encoded beforehand, each written with WriteFrame and
// read back with ReadFrame.
func frameAllocs(t *testing.T) float64 {
	t.Helper()
	xml := xmlCodecs()
	po, err := xml[0].encode()
	if err != nil {
		t.Fatal(err)
	}
	poa, err := xml[1].encode()
	if err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(server.SubmitRequest{Kind: string(core.DocWirePO), Protocol: string(formats.RosettaNet), Wire: po, PartnerID: "TP2"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := json.Marshal(server.SubmitResponse{ExchangeID: "ex-000001", Partner: "TP2", Wire: poa})
	if err != nil {
		t.Fatal(err)
	}
	frames := []*server.Frame{
		{V: server.ProtocolVersion, ID: 2, Op: server.OpSubmit, Body: req},
		{V: server.ProtocolVersion, ID: 2, Op: server.OpSubmit, Body: resp},
	}
	var buf bytes.Buffer
	return testing.AllocsPerRun(1000, func() {
		for _, f := range frames {
			buf.Reset()
			if err := server.WriteFrame(&buf, f); err != nil {
				t.Fatal(err)
			}
			if _, err := server.ReadFrame(&buf, server.MaxFrame); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// meanAllocs returns the mean allocations per call of f over runs calls,
// after one warm-up call. Unlike testing.AllocsPerRun it keeps the
// fraction: the zero-overhead rows subtract two means whose amortised map
// growth and GC-emptied pools differ by a fraction of an allocation, and
// truncating each mean first can turn that fraction into a whole one.
func meanAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// ruleAllocs measures one approval decision on the Figure 14 rules.
func ruleAllocs(t *testing.T) float64 {
	t.Helper()
	m, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	po := doc.NewGenerator(1).PO(benchBuyer, benchSeller)
	return testing.AllocsPerRun(1000, func() {
		if _, err := m.Rules.Evaluate(core.ApprovalRuleSet, po.Buyer.ID, "SAP", po); err != nil {
			t.Fatal(err)
		}
	})
}

// deliverAllocs measures one Deliver on a type shaped send → receive (with a
// timeout branch) → conditional arc → task → JoinAny noop. The instances are
// started, and parked on the receive step, before measuring.
func deliverAllocs(t *testing.T) float64 {
	t.Helper()
	h := wf.NewHandlers()
	h.Register("approve", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	ports := func(ctx context.Context, in *wf.Instance, s *wf.StepDef, payload any) error { return nil }
	e := wf.NewEngine("alloc", wfstore.NewMemStore(), h, ports)
	if err := e.Deploy(&wf.TypeDef{
		Name: "deliver", Version: 1,
		Steps: []wf.StepDef{
			{Name: "ask", Kind: wf.StepSend, Port: "out"},
			{Name: "answer", Kind: wf.StepReceive, Port: "in", OnTimeout: "escalate"},
			{Name: "approve", Kind: wf.StepTask, Handler: "approve"},
			{Name: "escalate", Kind: wf.StepNoop},
			{Name: "done", Kind: wf.StepNoop, Join: wf.JoinAny},
		},
		Arcs: []wf.Arc{
			{From: "ask", To: "answer"},
			{From: "answer", To: "approve", Condition: "document.amount > 0"},
			{From: "approve", To: "done"},
			{From: "escalate", To: "done"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const runs = 200
	ids := make([]string, runs+1) // AllocsPerRun adds one warm-up run
	for i := range ids {
		in, err := e.Start(ctx, "deliver", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = in.ID
	}
	var payload any = doc.NewGenerator(2).PO(benchBuyer, benchSeller)
	next := 0
	return testing.AllocsPerRun(runs, func() {
		id := ids[next]
		next++
		if err := e.Deliver(ctx, id, "in", payload); err != nil {
			t.Fatal(err)
		}
	})
}

// deliverChainBytes measures the bytes one Deliver allocates on a chain of
// 64 receive steps, each parked in turn, into instances that already took
// 62 deliveries: the delivery that brings the history to 128 events.
func deliverChainBytes(t *testing.T) float64 {
	t.Helper()
	const steps, delivered, runs = 64, 62, 200
	def := &wf.TypeDef{Name: "chain", Version: 1}
	for i := 0; i < steps; i++ {
		def.Steps = append(def.Steps, wf.StepDef{Name: fmt.Sprintf("r%d", i), Kind: wf.StepReceive, Port: fmt.Sprintf("p%d", i)})
		if i > 0 {
			def.Arcs = append(def.Arcs, wf.Arc{From: fmt.Sprintf("r%d", i-1), To: fmt.Sprintf("r%d", i)})
		}
	}
	e := wf.NewEngine("bytes", wfstore.NewMemStore(), nil, nil)
	if err := e.Deploy(def); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var payload any = "payload"
	ids := make([]string, runs+1) // meanBytes adds one warm-up run
	for i := range ids {
		in, err := e.Start(ctx, "chain", nil)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < delivered; d++ {
			if err := e.Deliver(ctx, in.ID, fmt.Sprintf("p%d", d), payload); err != nil {
				t.Fatal(err)
			}
		}
		ids[i] = in.ID
	}
	port := fmt.Sprintf("p%d", delivered)
	next := 0
	got := meanBytes(runs, func() {
		if err := e.Deliver(ctx, ids[next], port, payload); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if in, err := e.Instance(ids[0]); err != nil || len(in.History) != 2*delivered+4 {
		t.Fatalf("instance %s after the measured delivery: %v, %v; want %d events", ids[0], in, err, 2*delivered+4)
	}
	return got
}

// meanBytes returns the mean bytes allocated per call of f over runs calls,
// after one warm-up call.
func meanBytes(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// startAllocs measures one Start of the Figure 14 SAP application binding on
// a bare engine whose handlers do nothing, so only the engine's own work is
// counted: the new instance parks on its inbound connection.
func startAllocs(t *testing.T) float64 {
	t.Helper()
	def, err := core.BuildAppBinding(core.Backend{Name: "SAP", Format: formats.SAPIDoc})
	if err != nil {
		t.Fatal(err)
	}
	h := wf.NewHandlers()
	for _, s := range def.Steps {
		if s.Handler != "" {
			h.Register(s.Handler, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
		}
	}
	e := wf.NewEngine("alloc", wfstore.NewMemStore(), h, nil)
	if err := e.Deploy(def); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	return testing.AllocsPerRun(200, func() {
		if _, err := e.Start(ctx, def.Name, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// emitAllocs measures one exchange's 32 events emitted into the trace
// collector the way the hub keeps it: a full window of exchanges open, each
// measured exchange opened as the oldest is forgotten.
func emitAllocs(t *testing.T) float64 {
	t.Helper()
	const events, runs = 32, 200
	c := obs.NewCollector(core.RetentionWindow)
	ids := make([]string, core.RetentionWindow+runs+1) // AllocsPerRun adds one warm-up run
	for i := range ids {
		ids[i] = fmt.Sprintf("ex-%06d", i+1)
	}
	run := func(i int) {
		c.Open(ids[i])
		for range events {
			c.Emit(obs.Event{ExchangeID: ids[i], Partner: "TP1", Kind: obs.KindStep, Stage: obs.StagePrivate, Step: "step"})
		}
		if i >= core.RetentionWindow {
			c.Forget(ids[i-core.RetentionWindow])
		}
	}
	for i := range core.RetentionWindow {
		run(i)
	}
	next := core.RetentionWindow
	return testing.AllocsPerRun(runs, func() {
		run(next)
		next++
	})
}

// docCodec measures one document type's encode and decode.
type docCodec struct {
	name   string
	encode func() ([]byte, error)
	decode func([]byte) error
}

func (c docCodec) encodeAllocs(t *testing.T) float64 {
	t.Helper()
	return testing.AllocsPerRun(1000, func() {
		if _, err := c.encode(); err != nil {
			t.Fatal(err)
		}
	})
}

func (c docCodec) decodeAllocs(t *testing.T) float64 {
	t.Helper()
	wire, err := c.encode()
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(1000, func() {
		if err := c.decode(wire); err != nil {
			t.Fatal(err)
		}
	})
}

// idocCodecs returns three-item ORDERS, ORDRSP and INVOIC documents of the
// shape the Figure 14 SAP back end exchanges.
func idocCodecs() []docCodec {
	at := time.Date(2001, 9, 3, 9, 30, 0, 0, time.UTC)
	buyer := sapidoc.Partner{PartnerID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"}
	seller := sapidoc.Partner{PartnerID: "HUB", Name: "Widget Inc", DUNS: "999999999"}
	orders := &sapidoc.Orders{
		DocNum: 7, SenderPartner: "HUB", ReceiverPartner: "SAP", CreatedAt: at,
		PONumber: "PO-TP1-000001", Currency: "USD", Buyer: buyer, Seller: seller,
		ShipTo: "Trading Partner 1 Receiving Dock 1",
	}
	ordrsp := &sapidoc.Ordrsp{
		DocNum: 8, SenderPartner: "SAP", ReceiverPartner: "HUB", CreatedAt: at,
		AckNumber: "5100000042", PONumber: "PO-TP1-000001", Status: sapidoc.StatusAccepted,
		Buyer: buyer, Seller: seller,
	}
	invoic := &sapidoc.Invoic{
		DocNum: 9, SenderPartner: "SAP", ReceiverPartner: "HUB", CreatedAt: at,
		InvoiceNumber: "9000000042", PONumber: "PO-TP1-000001", Currency: "USD",
		DueDate: at.AddDate(0, 1, 0), Buyer: buyer, Seller: seller,
	}
	for i := 1; i <= 3; i++ {
		sku := fmt.Sprintf("SKU-%03d", i)
		orders.Items = append(orders.Items, sapidoc.Item{Posex: 10 * i, SKU: sku, Description: "Widget", Quantity: 5 * i, UnitPrice: 12.5 * float64(i)})
		ordrsp.Items = append(ordrsp.Items, sapidoc.AckItem{Posex: 10 * i, Status: sapidoc.StatusAccepted, Quantity: 5 * i, ShipDate: at.AddDate(0, 0, 7)})
		invoic.Items = append(invoic.Items, sapidoc.InvoiceItem{Posex: 10 * i, SKU: sku, Description: "Widget", Quantity: 5 * i, UnitPrice: 12.5 * float64(i)})
	}
	return []docCodec{
		{"ORDERS", orders.Encode, func(b []byte) error { _, err := sapidoc.DecodeOrders(b); return err }},
		{"ORDRSP", ordrsp.Encode, func(b []byte) error { _, err := sapidoc.DecodeOrdrsp(b); return err }},
		{"INVOIC", invoic.Encode, func(b []byte) error { _, err := sapidoc.DecodeInvoic(b); return err }},
	}
}

// xmlCodecs returns three-line PIP 3A4 request and confirmation, PIP 3C3,
// and OAGIS ProcessPurchaseOrder, AcknowledgePurchaseOrder and
// ProcessInvoice documents of the shape the Figure 15 partners exchange.
func xmlCodecs() []docCodec {
	const stamp, iso = "20010903T093000Z", "2001-09-03T09:30:00Z"
	role := func(class, id, name string) rosettanet.PartnerRole {
		return rosettanet.PartnerRole{RoleClassification: class, BusinessIdentifier: "222222222", ProprietaryIdentifier: id, BusinessName: name}
	}
	buyer, seller := role("Buyer", "TP2", "Trading Partner 2"), role("Seller", "HUB", "Widget Inc")
	request := &rosettanet.PurchaseOrderRequest{
		FromRole: buyer, ToRole: seller, DocumentIdentifier: "PO-TP2-000001", GenerationDateTime: stamp,
		OrderType: "Standalone", Currency: "USD", DeliverTo: "Trading Partner 2 Receiving Dock 1",
	}
	confirmation := &rosettanet.PurchaseOrderConfirmation{
		FromRole: seller, ToRole: buyer, DocumentIdentifier: "POA-000001", RequestIdentifier: "PO-TP2-000001",
		GenerationDateTime: stamp, StatusCode: "Accept",
	}
	notification := &rosettanet.InvoiceNotification{
		FromRole: role("Seller", "HUB", "Widget Inc"), ToRole: role("Buyer", "TP2", "Trading Partner 2"),
		DocumentIdentifier: "INV-000001", PurchaseOrderReference: "PO-TP2-000001", GenerationDateTime: stamp,
		PaymentDueDate: stamp, Currency: "USD",
	}
	area := oagis.ApplicationArea{SenderID: "TP3", ReceiverID: "HUB", CreationDateTime: iso, BODID: "BOD-000001"}
	customer := oagis.PartyOAGIS{PartyID: "TP3", Name: "Trading Partner 3", DUNS: "333333333"}
	supplier := oagis.PartyOAGIS{PartyID: "HUB", Name: "Widget Inc", DUNS: "999999999"}
	process := &oagis.ProcessPurchaseOrder{ApplicationArea: area, PurchaseOrder: oagis.PurchaseOrderNoun{
		DocumentID: "PO-TP3-000001", DocumentDate: iso, Currency: "USD", CustomerParty: customer,
		SupplierParty: supplier, ShipToAddress: "Trading Partner 3 Receiving Dock 1",
	}}
	ack := &oagis.AcknowledgePurchaseOrder{ApplicationArea: area, PurchaseOrder: oagis.AcknowledgePurchaseOrderNoun{
		DocumentID: "POA-000001", OriginalPOID: "PO-TP3-000001", DocumentDate: iso, StatusCode: "Accepted",
		CustomerParty: customer, SupplierParty: supplier,
	}}
	invoice := &oagis.ProcessInvoice{ApplicationArea: area, Invoice: oagis.InvoiceNoun{
		DocumentID: "INV-000001", OriginalPOID: "PO-TP3-000001", DocumentDate: iso, PaymentDue: iso,
		Currency: "USD", CustomerParty: customer, SupplierParty: supplier,
	}}
	for i := 1; i <= 3; i++ {
		sku := fmt.Sprintf("SKU-%03d", i)
		price := rosettanet.FinancialAmount{Currency: "USD", Amount: 12.5 * float64(i)}
		request.LineItems = append(request.LineItems, rosettanet.ProductLineItem{LineNumber: i, ProductIdentifier: sku, ProductDescription: "Widget", RequestedQuantity: 5 * i, RequestedUnitPrice: price})
		confirmation.LineItems = append(confirmation.LineItems, rosettanet.LineStatus{LineNumber: i, StatusCode: "Accept", ConfirmedQuantity: 5 * i, ScheduledShipDate: stamp})
		notification.LineItems = append(notification.LineItems, rosettanet.InvoiceLineItem{LineNumber: i, ProductIdentifier: sku, ProductDescription: "Widget", InvoiceQuantity: 5 * i, UnitPrice: price})
		process.PurchaseOrder.Lines = append(process.PurchaseOrder.Lines, oagis.POLine{LineNumber: i, ItemID: sku, Description: "Widget", Quantity: 5 * i, UnitPrice: 12.5 * float64(i), Currency: "USD"})
		ack.PurchaseOrder.Lines = append(ack.PurchaseOrder.Lines, oagis.AckLine{LineNumber: i, StatusCode: "Accepted", Quantity: 5 * i, ShipDate: iso})
		invoice.Invoice.Lines = append(invoice.Invoice.Lines, oagis.InvoiceLine{LineNumber: i, ItemID: sku, Description: "Widget", Quantity: 5 * i, UnitPrice: 12.5 * float64(i), Currency: "USD"})
	}
	return []docCodec{
		{"rosettanet PIP 3A4 request", request.Encode, func(b []byte) error { _, err := rosettanet.DecodeRequest(b); return err }},
		{"rosettanet PIP 3A4 confirmation", confirmation.Encode, func(b []byte) error { _, err := rosettanet.DecodeConfirmation(b); return err }},
		{"rosettanet PIP 3C3 notification", notification.Encode, func(b []byte) error { _, err := rosettanet.DecodeInvoiceNotification(b); return err }},
		{"oagis ProcessPurchaseOrder", process.Encode, func(b []byte) error { _, err := oagis.DecodeProcessPO(b); return err }},
		{"oagis AcknowledgePurchaseOrder", ack.Encode, func(b []byte) error { _, err := oagis.DecodeAcknowledgePO(b); return err }},
		{"oagis ProcessInvoice", invoice.Encode, func(b []byte) error { _, err := oagis.DecodeProcessInvoice(b); return err }},
	}
}
