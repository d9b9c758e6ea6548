package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/transform"
	"repro/internal/wf"
)

var (
	tp1    = doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"}
	tp2    = doc.Party{ID: "TP2", Name: "Trading Partner 2", DUNS: "222222222"}
	tp3    = doc.Party{ID: "TP3", Name: "Trading Partner 3", DUNS: "333333333"}
	seller = doc.Party{ID: "HUB", Name: "Receiver Inc", DUNS: "999999999"}
)

// newFig14Hub builds the Figure 14 hub with newHub.
func newFig14Hub(t *testing.T, opts ...HubOption) *Hub {
	t.Helper()
	m, err := PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	return newHub(t, m, opts...)
}

// newHub builds a hub on m and drains it when the test ends, so no test
// leaves scheduler workers behind; the test fails if the hub's exchanges
// have not finished within 10 s, or if the drained hub's ledger breaks an
// invariant (checkLedger). A test that checks for leaked goroutines
// registers leakcheck with t.Cleanup before building the hub, so the check
// runs after the drain.
func newHub(t *testing.T, m *Model, opts ...HubOption) *Hub {
	t.Helper()
	h, err := NewHub(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if h.jrn != nil {
		journalOwners.Store(h.jrn.Path(), h)
		t.Cleanup(func() { journalOwners.CompareAndDelete(h.jrn.Path(), h) })
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := h.Drain(ctx); err != nil {
			t.Errorf("draining the test hub: %v", err)
			return
		}
		checkLedger(t, h, true)
	})
	return h
}

// roundTrip, inboundPO and invoiceFor drive the unified Do API, returning
// the old entry points' triples so assertions read unchanged.
func roundTrip(h *Hub, ctx context.Context, po *doc.PurchaseOrder) (*doc.PurchaseOrderAck, *Exchange, error) {
	res, err := h.Do(ctx, Request{Kind: DocPO, PO: po})
	return res.POA, res.Exchange, err
}

func inboundPO(h *Hub, ctx context.Context, p formats.Format, wire []byte) ([]byte, *Exchange, error) {
	res, err := h.Do(ctx, Request{Kind: DocWirePO, Protocol: p, Wire: wire})
	return res.Wire, res.Exchange, err
}

func invoiceFor(h *Hub, ctx context.Context, partnerID, poID string) ([]byte, *Exchange, error) {
	res, err := h.Do(ctx, Request{Kind: DocInvoice, PartnerID: partnerID, POID: poID})
	return res.Wire, res.Exchange, err
}

// wirePO renders a normalized PO as a protocol-native wire document.
func wirePO(t *testing.T, h *Hub, p formats.Format, po *doc.PurchaseOrder) []byte {
	t.Helper()
	native, err := h.reg.FromNormalized(p, doc.TypePO, po)
	if err != nil {
		t.Fatal(err)
	}
	codec, err := h.codecs.Lookup(p, doc.TypePO)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := codec.Encode(native)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestFig11PublicProcesses checks the public process shape: protocol
// receive/send plus connection steps, nothing else — no transformations,
// no business rules.
func TestFig11PublicProcesses(t *testing.T) {
	for _, p := range []formats.Format{formats.EDI, formats.RosettaNet, formats.OAGIS} {
		def, err := BuildPublicProcess(p)
		if err != nil {
			t.Fatal(err)
		}
		if def.CountSteps() != 4 {
			t.Fatalf("%s public process has %d steps", p, def.CountSteps())
		}
		for _, s := range def.Steps {
			if strings.Contains(s.Name, "Transform") {
				t.Fatalf("public process contains a transformation step %q", s.Name)
			}
		}
		for _, a := range def.Arcs {
			if a.Condition != "" {
				t.Fatalf("public process contains a business rule condition %q", a.Condition)
			}
		}
	}
}

// TestFig12BindingsContainTheTransformations checks that transformations
// live in bindings and only in bindings.
func TestFig12BindingsContainTheTransformations(t *testing.T) {
	m, err := PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	for p, b := range m.Bindings {
		n := 0
		for _, s := range b.Steps {
			if strings.Contains(s.Name, "Transform") {
				n++
			}
		}
		if n != 2 {
			t.Fatalf("binding %s has %d transformation steps, want 2", p, n)
		}
	}
	// The private process has none.
	for _, s := range m.Private.Steps {
		if strings.Contains(s.Name, "Transform") {
			t.Fatalf("private process contains transformation step %q", s.Name)
		}
	}
}

// TestFig13PrivateProcessIsPartnerIndependent checks the paper's central
// design invariant: the private process mentions no partner, protocol,
// backend or threshold anywhere.
func TestFig13PrivateProcessIsPartnerIndependent(t *testing.T) {
	def, err := BuildPrivateProcess()
	if err != nil {
		t.Fatal(err)
	}
	forbidden := []string{"TP1", "TP2", "TP3", "EDI", "RosettaNet", "OAGIS", "SAP", "Oracle", "55000", "40000"}
	check := func(s string) {
		for _, f := range forbidden {
			if strings.Contains(s, f) {
				t.Errorf("private process leaks %q in %q", f, s)
			}
		}
	}
	for _, s := range def.Steps {
		check(s.Name)
		check(s.Handler)
		check(s.Port)
	}
	for _, a := range def.Arcs {
		check(a.Condition)
	}
}

// TestFig14EndToEnd drives both partners through the full advanced stack.
func TestFig14EndToEnd(t *testing.T) {
	h := newFig14Hub(t)
	ctx := context.Background()
	g := doc.NewGenerator(1)

	// TP1 via EDI to SAP, above threshold.
	po := g.POWithAmount(tp1, seller, 60000)
	poa, ex, err := roundTrip(h, ctx, po)
	if err != nil {
		t.Fatal(err)
	}
	if poa.POID != po.ID || poa.Status != doc.AckAccepted {
		t.Fatalf("poa %+v", poa)
	}
	priv, err := h.PrivateInstance(ex)
	if err != nil {
		t.Fatal(err)
	}
	if priv.Data["needsApproval"] != true || priv.Data["approved"] != true {
		t.Fatalf("approval not run: %v", priv.Data)
	}
	if priv.Data["ruleApplied"] != "approval TP1→SAP" {
		t.Fatalf("rule %v", priv.Data["ruleApplied"])
	}
	if h.Systems["SAP"].StoredOrders() != 1 || h.Systems["Oracle"].StoredOrders() != 0 {
		t.Fatal("order stored in wrong backend")
	}

	// TP2 via RosettaNet to Oracle, below threshold.
	po2 := g.POWithAmount(tp2, seller, 1000)
	poa2, ex2, err := roundTrip(h, ctx, po2)
	if err != nil {
		t.Fatal(err)
	}
	if poa2.POID != po2.ID {
		t.Fatal("wrong correlation")
	}
	priv2, err := h.PrivateInstance(ex2)
	if err != nil {
		t.Fatal(err)
	}
	if priv2.Data["needsApproval"] != false {
		t.Fatal("1000 < 40000 should not need approval")
	}
	if priv2.StepStateOf("Approve PO") != wf.StepSkipped {
		t.Fatalf("approve state %s", priv2.StepStateOf("Approve PO"))
	}
	if h.Systems["Oracle"].StoredOrders() != 1 {
		t.Fatal("TP2 order not stored in Oracle")
	}
	// The exchange trace covers the full chain.
	want := []string{"public → binding", "binding → private", "private → application binding",
		"application binding → private", "private → binding", "binding → public", "public → network"}
	joined := strings.Join(h.Trace(ex2.ID), ";")
	for _, w := range want {
		if !strings.Contains(joined, w) {
			t.Fatalf("trace missing %q: %v", w, h.Trace(ex2.ID))
		}
	}
}

// TestFig14WireLevel drives the EDI partner through the codec layer: wire
// in, wire out.
func TestFig14WireLevel(t *testing.T) {
	h := newFig14Hub(t)
	g := doc.NewGenerator(2)
	po := g.POWithAmount(tp1, seller, 100)
	reg := &transform.Registry{}
	transform.RegisterAll(reg)
	native, err := reg.FromNormalized(formats.EDI, doc.TypePO, po)
	if err != nil {
		t.Fatal(err)
	}
	codecs := NewCodecRegistry()
	poCodec, err := codecs.Lookup(formats.EDI, doc.TypePO)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := poCodec.Encode(native)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := inboundPO(h, context.Background(), formats.EDI, wire)
	if err != nil {
		t.Fatal(err)
	}
	poaCodec, err := codecs.Lookup(formats.EDI, doc.TypePOA)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := poaCodec.Decode(out)
	if err != nil {
		t.Fatalf("outbound POA not valid EDI: %v\n%s", err, out)
	}
	nd, err := reg.ToNormalized(formats.EDI, doc.TypePOA, nat)
	if err != nil {
		t.Fatal(err)
	}
	if nd.(*doc.PurchaseOrderAck).POID != po.ID {
		t.Fatal("wire-level round trip lost correlation")
	}
}

// TestFig15AddThirdPartner applies the Figure 15 change to a live hub:
// adding TP3 with a new protocol (OAGIS) adds one public process, one
// binding and one rule — and the private process is untouched.
func TestFig15AddThirdPartner(t *testing.T) {
	h := newFig14Hub(t)
	ctx := context.Background()

	before := h.Snapshot().Model.AllTypes()
	beforeClones := make([]*wf.TypeDef, len(before))
	for i, d := range before {
		beforeClones[i] = d.Clone()
	}

	rec, err := h.AddPartner(Figure15Partner())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Local || rec.PrivateTouched {
		t.Fatalf("record %+v", rec)
	}
	if len(rec.TypesAdded) != 2 || rec.RulesAdded != 1 {
		t.Fatalf("record %+v", rec)
	}

	impact := metrics.Diff(beforeClones, h.Snapshot().Model.AllTypes())
	if len(impact.Modified) != 0 {
		t.Fatalf("existing types modified: %v", impact.Modified)
	}
	if len(impact.Added) != 2 {
		t.Fatalf("added %v", impact.Added)
	}
	if impact.Untouched != len(beforeClones) {
		t.Fatalf("untouched %d of %d", impact.Untouched, len(beforeClones))
	}

	// TP3 works end to end right away.
	g := doc.NewGenerator(3)
	po := g.POWithAmount(tp3, seller, 15000)
	poa, ex, err := roundTrip(h, ctx, po)
	if err != nil {
		t.Fatal(err)
	}
	if poa.Status != doc.AckAccepted {
		t.Fatalf("status %s", poa.Status)
	}
	priv, _ := h.PrivateInstance(ex)
	if priv.Data["needsApproval"] != true {
		t.Fatal("15000 >= 10000 should need approval for TP3")
	}
	// And existing partners still work.
	if _, _, err := roundTrip(h, ctx, g.POWithAmount(tp1, seller, 100)); err != nil {
		t.Fatal(err)
	}
}

func TestAddPartnerExistingProtocol(t *testing.T) {
	h := newFig14Hub(t)
	rec, err := h.AddPartner(TradingPartner{
		ID: "TP4", Name: "Trading Partner 4", Protocol: formats.EDI,
		Backend: "SAP", ApprovalThreshold: 70000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.TypesAdded) != 0 || rec.RulesAdded != 1 {
		t.Fatalf("existing protocol should add no types: %+v", rec)
	}
	g := doc.NewGenerator(4)
	po := g.POWithAmount(doc.Party{ID: "TP4", Name: "TP4", DUNS: "4"}, seller, 75000)
	_, ex, err := roundTrip(h, context.Background(), po)
	if err != nil {
		t.Fatal(err)
	}
	priv, _ := h.PrivateInstance(ex)
	if priv.Data["needsApproval"] != true {
		t.Fatal("TP4 threshold not effective")
	}
}

func TestUnknownPartnerRejected(t *testing.T) {
	h := newFig14Hub(t)
	g := doc.NewGenerator(5)
	po := g.POWithAmount(doc.Party{ID: "GHOST", Name: "?"}, seller, 1)
	if _, _, err := roundTrip(h, context.Background(), po); !errors.Is(err, ErrUnknownPartner) {
		t.Fatalf("err %v", err)
	}
}

func TestProtocolMismatchRejected(t *testing.T) {
	h := newFig14Hub(t)
	g := doc.NewGenerator(6)
	po := g.POWithAmount(tp1, seller, 1) // TP1 is an EDI partner
	wire := wirePO(t, h, formats.RosettaNet, po)
	if _, _, err := inboundPO(h, context.Background(), formats.RosettaNet, wire); !errors.Is(err, ErrProtocolMismatch) {
		t.Fatalf("err %v, want ErrProtocolMismatch", err)
	}
}

func TestChangeLocalityAudit(t *testing.T) {
	h := newFig14Hub(t)
	ctx := context.Background()
	g := doc.NewGenerator(7)

	audit, err := BuildPrivateProcessWithAudit()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := h.Apply(NewTypeVersion{Type: audit})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Local || !rec.PrivateTouched {
		t.Fatalf("record %+v", rec)
	}
	if len(rec.TypesModified) != 1 || rec.TypesModified[0] != PrivateProcessName {
		t.Fatalf("record %+v", rec)
	}
	// Next exchange runs the audited private process.
	po := g.POWithAmount(tp1, seller, 100)
	_, ex, err := roundTrip(h, ctx, po)
	if err != nil {
		t.Fatal(err)
	}
	priv, _ := h.PrivateInstance(ex)
	if priv.Data["audited"] != true {
		t.Fatal("audit step did not run")
	}
	if priv.Version != 2 {
		t.Fatalf("private version %d", priv.Version)
	}
}

func TestChangeLocalityTransportAcks(t *testing.T) {
	h := newFig14Hub(t)
	ctx := context.Background()
	g := doc.NewGenerator(8)
	p1, _ := h.Snapshot().Model.PartnerByID("TP1")
	acks, err := BuildPublicProcessWithAcks(p1.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := h.Apply(NewTypeVersion{Type: acks})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Local || rec.PrivateTouched {
		t.Fatalf("record %+v", rec)
	}
	// Exchanges still complete; the ack steps are internal to the public
	// process.
	po := g.POWithAmount(tp1, seller, 100)
	poa, ex, err := roundTrip(h, ctx, po)
	if err != nil {
		t.Fatal(err)
	}
	if poa.POID != po.ID {
		t.Fatal("wrong correlation")
	}
	pub, err := h.Engine.Instance(ex.PublicID)
	if err != nil {
		t.Fatal(err)
	}
	if pub.Version != 2 {
		t.Fatalf("public process version %d", pub.Version)
	}
	if pub.StepStateOf("Send transport ack") != wf.StepCompleted {
		t.Fatal("transport ack step did not run")
	}
}

func TestChangeThresholdIsRulesOnly(t *testing.T) {
	h := newFig14Hub(t)
	ctx := context.Background()
	g := doc.NewGenerator(9)

	before := h.Snapshot().Model.AllTypes()
	clones := make([]*wf.TypeDef, len(before))
	for i, d := range before {
		clones[i] = d.Clone()
	}
	rec, err := h.Apply(ChangeThreshold{PartnerID: "TP1", Threshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rec.RulesAdded != 1 || rec.RulesRemoved != 1 {
		t.Fatalf("record %+v", rec)
	}
	impact := metrics.Diff(clones, h.Snapshot().Model.AllTypes())
	if impact.TouchedTypes() != 0 {
		t.Fatalf("rule change touched types: %+v", impact)
	}
	// The new threshold is live immediately — no redeployment needed.
	po := g.POWithAmount(tp1, seller, 200)
	_, ex, err := roundTrip(h, ctx, po)
	if err != nil {
		t.Fatal(err)
	}
	priv, _ := h.PrivateInstance(ex)
	if priv.Data["needsApproval"] != true {
		t.Fatal("lowered threshold not effective")
	}
}

// TestApprovalThresholdProperty holds every finite non-negative threshold to
// a working approval rule: the model, the added partner, invoicing and both
// threshold changes accept it, and each generated rule decides
// amount >= threshold correctly at the boundary.
func TestApprovalThresholdProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1000000))
	thresholds := []float64{0, 0.01, 0.1, 1, 55000, 999999.99, 1e6, 1234567.89, 1e21, 1e-5,
		1e300, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for len(thresholds) < 60 {
		thresholds = append(thresholds, float64(r.Int63n(1e15))/100) // whole cents
		if f := math.Float64frombits(r.Uint64() &^ (1 << 63)); !math.IsInf(f, 0) && !math.IsNaN(f) {
			thresholds = append(thresholds, f)
		}
	}
	// decides checks one rule set's verdict on documents priced at and
	// around th: it must be exactly amount >= th for the amount each
	// document carries.
	decides := func(t *testing.T, reg *rules.Registry, set, partner string, th float64) {
		t.Helper()
		for _, p := range []float64{th, math.Nextafter(th, math.Inf(-1)), math.Nextafter(th, math.Inf(1)), th - 0.01, th + 0.01} {
			var document any
			var amount float64
			if set == InvoiceReviewRuleSet {
				inv := &doc.Invoice{Lines: []doc.InvoiceLine{{Quantity: 1, UnitPrice: p}}}
				document, amount = inv, inv.Amount()
			} else {
				po := &doc.PurchaseOrder{Lines: []doc.Line{{Quantity: 1, UnitPrice: p}}}
				document, amount = po, po.Amount()
			}
			d, err := reg.Evaluate(set, partner, "SAP", document)
			if err != nil {
				t.Fatalf("%s: threshold %v, amount %v: %v", set, th, amount, err)
			}
			if d.Result != (amount >= th) {
				t.Fatalf("%s: threshold %v, amount %v: rule says %v", set, th, amount, d.Result)
			}
		}
	}
	backends := []Backend{{Name: "SAP", Format: formats.SAPIDoc}, {Name: "Oracle", Format: formats.OracleOIF}}
	for _, th := range thresholds {
		m, err := BuildModel([]TradingPartner{
			{ID: "TP1", Name: "Trading Partner 1", Protocol: formats.EDI, Backend: "SAP", ApprovalThreshold: th},
		}, backends)
		if err != nil {
			t.Fatalf("BuildModel, threshold %v: %v", th, err)
		}
		decides(t, m.Rules, ApprovalRuleSet, "TP1", th)
		if _, err := m.Apply(AddPartner{Partner: TradingPartner{ID: "TP3", Protocol: formats.OAGIS, Backend: "SAP", ApprovalThreshold: th}}); err != nil {
			t.Fatalf("AddPartner, threshold %v: %v", th, err)
		}
		decides(t, m.Rules, ApprovalRuleSet, "TP3", th)
		if _, err := m.Apply(EnableInvoicing{}); err != nil {
			t.Fatalf("EnableInvoicing, threshold %v: %v", th, err)
		}
		decides(t, m.Rules, InvoiceReviewRuleSet, "TP1", th)
		if _, err := m.Apply(ChangeThreshold{PartnerID: "TP1", Threshold: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Apply(ChangeThreshold{PartnerID: "TP1", Threshold: th}); err != nil {
			t.Fatalf("Model.Apply(ChangeThreshold), threshold %v: %v", th, err)
		}
		decides(t, m.Rules, ApprovalRuleSet, "TP1", th)
		h := newHub(t, m)
		if _, err := h.Apply(ChangeThreshold{PartnerID: "TP3", Threshold: th}); err != nil {
			t.Fatalf("Hub.Apply(ChangeThreshold), threshold %v: %v", th, err)
		}
		decides(t, h.Snapshot().Model.Rules, ApprovalRuleSet, "TP3", th)
	}
}

func TestRemovePartner(t *testing.T) {
	h := newFig14Hub(t)
	rec, err := h.Apply(RemovePartner{ID: "TP1"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.RulesRemoved != 1 {
		t.Fatalf("record %+v", rec)
	}
	g := doc.NewGenerator(10)
	if _, _, err := roundTrip(h, context.Background(), g.POWithAmount(tp1, seller, 1)); !errors.Is(err, ErrUnknownPartner) {
		t.Fatalf("err %v", err)
	}
	if _, err := h.Apply(RemovePartner{ID: "GHOST"}); err == nil {
		t.Fatal("unknown partner removed")
	}
}

func TestAddBackendLive(t *testing.T) {
	m, err := BuildModel(
		[]TradingPartner{{ID: "TP1", Name: "T", Protocol: formats.EDI, Backend: "SAP", ApprovalThreshold: 55000}},
		[]Backend{{Name: "SAP", Format: formats.SAPIDoc}},
	)
	if err != nil {
		t.Fatal(err)
	}
	h := newHub(t, m)
	rec, err := h.Apply(AddBackend{Backend: Backend{Name: "Oracle", Format: formats.OracleOIF}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.TypesAdded) != 1 || rec.TypesAdded[0] != AppBindingName("Oracle") {
		t.Fatalf("record %+v", rec)
	}
	// A partner targeting the new backend works.
	if _, err := h.AddPartner(TradingPartner{
		ID: "TP2", Name: "T2", Protocol: formats.EDI, Backend: "Oracle", ApprovalThreshold: 40000,
	}); err != nil {
		t.Fatal(err)
	}
	g := doc.NewGenerator(11)
	po := g.POWithAmount(doc.Party{ID: "TP2", Name: "T2", DUNS: "2"}, seller, 10)
	if _, _, err := roundTrip(h, context.Background(), po); err != nil {
		t.Fatal(err)
	}
	if h.Systems["Oracle"].StoredOrders() != 1 {
		t.Fatal("order not stored in new backend")
	}
}

func TestModelValidation(t *testing.T) {
	if _, err := BuildModel(
		[]TradingPartner{{ID: "TP1", Protocol: formats.EDI, Backend: "ghost"}},
		[]Backend{{Name: "SAP", Format: formats.SAPIDoc}},
	); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := BuildModel(
		[]TradingPartner{
			{ID: "TP1", Protocol: formats.EDI, Backend: "SAP"},
			{ID: "TP1", Protocol: formats.EDI, Backend: "SAP"},
		},
		[]Backend{{Name: "SAP", Format: formats.SAPIDoc}},
	); err == nil {
		t.Fatal("duplicate partner accepted")
	}
	if _, err := BuildModel(nil, []Backend{{Name: "SAP"}}); err == nil {
		t.Fatal("incomplete backend accepted")
	}
}

// TestModelGrowthIsAdditive is the Section 4.6 shape at the model level.
func TestModelGrowthIsAdditive(t *testing.T) {
	m2, err := PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	st2 := metrics.StatsOf(m2.AllTypes())

	m3, err := PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m3.Apply(AddPartner{Partner: Figure15Partner()}); err != nil {
		t.Fatal(err)
	}
	st3 := metrics.StatsOf(m3.AllTypes())

	// One more protocol adds exactly one public process (4 steps) and one
	// binding (6 steps).
	if st3.Types != st2.Types+2 {
		t.Fatalf("types %d → %d", st2.Types, st3.Types)
	}
	if st3.Steps != st2.Steps+10 {
		t.Fatalf("steps %d → %d", st2.Steps, st3.Steps)
	}
	// Condition terms stay constant: thresholds live in rules, not types.
	if st3.ConditionTerms != st2.ConditionTerms {
		t.Fatalf("condition terms changed %d → %d", st2.ConditionTerms, st3.ConditionTerms)
	}
}

func TestHubStats(t *testing.T) {
	h := newFig14Hub(t)
	if _, err := h.EnableInvoicing(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	g := doc.NewGenerator(20)
	po := g.PO(tp1, seller)
	if _, _, err := roundTrip(h, ctx, po); err != nil {
		t.Fatal(err)
	}
	if _, _, err := roundTrip(h, ctx, g.PO(tp2, seller)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := invoiceFor(h, ctx, "TP1", po.ID); err != nil {
		t.Fatal(err)
	}
	st := h.Status().Exchanges
	if st.ByFlow[obs.FlowPO] != 2 || st.ByFlow[obs.FlowInvoice] != 1 || st.Failed != 0 {
		t.Fatalf("exchange counters %+v", st)
	}
	if st.ByPartner["TP1"] != 2 || st.ByPartner["TP2"] != 1 {
		t.Fatalf("per-partner %+v", st.ByPartner)
	}
	// A failed invoice (unbilled order) counts as failed.
	if _, _, err := invoiceFor(h, ctx, "TP1", "PO-NOPE"); err == nil {
		t.Fatal("expected failure")
	}
	if st := h.Status().Exchanges; st.Failed != 1 {
		t.Fatalf("failed %d", st.Failed)
	}
	// Snapshot is a copy: mutating it does not affect the hub.
	snap := h.Status().Exchanges
	snap.ByPartner["TP1"] = 999
	if h.Status().Exchanges.ByPartner["TP1"] == 999 {
		t.Fatal("Status returned a shared per-partner map")
	}
}
