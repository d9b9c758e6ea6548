package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// normalized-format hub (vs direct point-to-point transformations), the
// reliable-messaging layer (vs raw transport), and the durable workflow
// database (vs in-memory; see BenchmarkFig04EngineCycleDurable). Each
// ablation quantifies what the architectural choice costs at runtime,
// against what it saves in artifacts or guarantees.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/formats/edi"
	"repro/internal/msg"
	"repro/internal/transform"
)

// fusedEDIToSAP is a hand-written direct EDI→SAP transformer: what every
// pair of formats would need without the normalized hub. One such function
// per ordered format pair per document type means O(N²) mappings for N
// formats, each written and maintained by a domain expert, versus O(2N)
// with the hub.
func fusedEDIToSAP(p *edi.PO850) (any, error) {
	po, err := transform.EDIPOToNormalized(p)
	if err != nil {
		return nil, err
	}
	return transform.NormalizedPOToSAP(po)
}

// BenchmarkAblationHubVsDirect compares the hub chain (lookup + two legs)
// against the fused direct mapping. The expected shape: the hub costs one
// extra registry lookup and interface indirection — small and constant —
// while reducing the mapping count from quadratic to linear.
func BenchmarkAblationHubVsDirect(b *testing.B) {
	reg := &transform.Registry{}
	transform.RegisterAll(reg)
	g := doc.NewGenerator(1)
	po := g.PO(benchBuyer, benchSeller)
	native, err := reg.FromNormalized(formats.EDI, doc.TypePO, po)
	if err != nil {
		b.Fatal(err)
	}
	p850 := native.(*edi.PO850)

	b.Run("hub-chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reg.Apply(formats.EDI, formats.SAPIDoc, doc.TypePO, p850); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fusedEDIToSAP(p850); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAblationMappingCounts records the artifact-count side of the hub
// ablation: with N concrete formats and 3 document types (PO, POA,
// Invoice), direct mapping needs N·(N-1)·3 transformers; the hub needs
// 2·N·3.
func TestAblationMappingCounts(t *testing.T) {
	const nFormats = 5
	const docTypes = 3
	direct := nFormats * (nFormats - 1) * docTypes
	hub := 2 * nFormats * docTypes
	if direct <= hub {
		t.Fatalf("with %d formats direct (%d) should exceed hub (%d)", nFormats, direct, hub)
	}
	reg := &transform.Registry{}
	transform.RegisterAll(reg)
	// The registry actually holds the hub count (plus the EDI-only
	// functional-ack pair).
	if got := reg.Count(); got != hub+2 {
		t.Fatalf("registered %d transformers, want %d", got, hub+2)
	}
}

// BenchmarkAblationRawVsReliable measures the reliable layer's overhead on
// a perfect network: what the acks/dedup bookkeeping costs when nothing
// goes wrong (when things do go wrong, raw transport loses messages — see
// msg.TestInProcLossDropsEverything — and the exchange hangs).
func BenchmarkAblationRawVsReliable(b *testing.B) {
	body := []byte("purchase order payload")
	b.Run("raw", func(b *testing.B) {
		n := msg.NewInProcNetwork(msg.Faults{})
		defer n.Close()
		ea, err := n.Endpoint("A")
		if err != nil {
			b.Fatal(err)
		}
		eb, err := n.Endpoint("B")
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ea.Send("B", &msg.Message{ID: fmt.Sprint(i), Kind: msg.KindData, Body: body}); err != nil {
				b.Fatal(err)
			}
			if _, err := eb.Recv(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reliable", func(b *testing.B) {
		n := msg.NewInProcNetwork(msg.Faults{})
		defer n.Close()
		ea, err := n.Endpoint("A")
		if err != nil {
			b.Fatal(err)
		}
		eb, err := n.Endpoint("B")
		if err != nil {
			b.Fatal(err)
		}
		ra := msg.NewReliable(ea, msg.ReliableConfig{})
		rb := msg.NewReliable(eb, msg.ReliableConfig{})
		defer ra.Close()
		defer rb.Close()
		ctx := context.Background()
		go func() {
			for {
				if _, err := rb.Recv(ctx); err != nil {
					return
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ra.Send(ctx, "B", &msg.Message{Body: body}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAblationChangeImpactRecompiles is the compilation-cost side of the
// paper's change-locality argument (Section 4.6): each model change is
// applied to a live hub and the number of plan recompilations it triggers
// is measured via the engine's compile counter. Rules-only changes and
// partners on existing protocols must recompile nothing; structural changes
// must recompile exactly the types they touch, never the whole model.
func TestAblationChangeImpactRecompiles(t *testing.T) {
	model, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := core.NewHub(model)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Drain(context.Background())

	recompiles := func(apply func() error) int64 {
		t.Helper()
		before := hub.Engine.CompiledPlans()
		if err := apply(); err != nil {
			t.Fatal(err)
		}
		return hub.Engine.CompiledPlans() - before
	}

	// Rules-only change: invisible to every process type.
	if n := recompiles(func() error {
		_, err := hub.Apply(core.ChangeThreshold{PartnerID: "TP1", Threshold: 70000})
		return err
	}); n != 0 {
		t.Fatalf("threshold change recompiled %d plans, want 0", n)
	}
	// Local private-process change: one type.
	if n := recompiles(func() error {
		audit, err := core.BuildPrivateProcessWithAudit()
		if err != nil {
			return err
		}
		_, err = hub.Apply(core.NewTypeVersion{Type: audit})
		return err
	}); n != 1 {
		t.Fatalf("audit step recompiled %d plans, want 1", n)
	}
	// Local public-process changes: one type each.
	if n := recompiles(func() error {
		acks, err := core.BuildPublicProcessWithAcks(hub.Snapshot().Model.Partners[0].Protocol)
		if err != nil {
			return err
		}
		_, err = hub.Apply(core.NewTypeVersion{Type: acks})
		return err
	}); n != 1 {
		t.Fatalf("transport acks recompiled %d plans, want 1", n)
	}
	if n := recompiles(func() error {
		fa, err := core.BuildPublicProcessWithFunctionalAck(formats.EDI, 3)
		if err != nil {
			return err
		}
		_, err = hub.Apply(core.NewTypeVersion{Type: fa})
		return err
	}); n != 1 {
		t.Fatalf("functional acks recompiled %d plans, want 1", n)
	}
	// A partner on an already-served protocol is rules-only.
	if n := recompiles(func() error {
		_, err := hub.AddPartner(core.TradingPartner{
			ID: "TP4", Name: "Trading Partner 4", DUNS: "444444444",
			Protocol: formats.EDI, Backend: "SAP", ApprovalThreshold: 25000,
		})
		return err
	}); n != 0 {
		t.Fatalf("existing-protocol partner recompiled %d plans, want 0", n)
	}
	// A partner bringing a new protocol adds its public process + binding.
	if n := recompiles(func() error {
		_, err := hub.AddPartner(core.Figure15Partner())
		return err
	}); n != 2 {
		t.Fatalf("new-protocol partner recompiled %d plans, want 2", n)
	}
	// A new backend adds one application binding.
	if n := recompiles(func() error {
		_, err := hub.Apply(core.AddBackend{Backend: core.Backend{Name: "SAP2", Format: formats.SAPIDoc}})
		return err
	}); n != 1 {
		t.Fatalf("new backend recompiled %d plans, want 1", n)
	}
	// Enabling the invoice flow adds the invoice chain: one private
	// dispatch process plus a public process and binding per protocol and
	// an app binding per backend — and nothing from the PO chain.
	n := recompiles(func() error {
		_, err := hub.EnableInvoicing()
		return err
	})
	inv := hub.Snapshot().Model
	want := int64(1 + len(inv.InvoicePublic) + len(inv.InvoiceBindings) + len(inv.InvoiceAppBindings))
	if n != want {
		t.Fatalf("invoicing recompiled %d plans, want %d", n, want)
	}

	// The reshaped model still serves exchanges.
	g := doc.NewGenerator(1)
	po := g.PO(doc.Party{ID: "TP4", Name: "Trading Partner 4", DUNS: "444444444"},
		doc.Party{ID: "HUB", Name: "Widget Inc", DUNS: "999999999"})
	if _, err := hub.Do(context.Background(), core.Request{Kind: core.DocPO, PO: po}); err != nil {
		t.Fatalf("post-sweep round trip: %v", err)
	}
}

// TestAblationRuntimeChangeImpact is the runtime counterpart of the
// recompile sweep: each class of hot change is applied to a serving hub and
// its blast radius is measured in config-store terms — how many new artifact
// versions it registers, how many epochs it burns, and how many plan
// recompilations it triggers. The change-locality claim at runtime: a
// threshold change is one rules version and zero recompiles; a transform
// swap is one version and zero recompiles; a binding swap is one version and
// exactly one recompile; a partner on a new protocol is two of each. Nothing
// ever recompiles types it does not touch.
func TestAblationRuntimeChangeImpact(t *testing.T) {
	model, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	hub, err := core.NewHub(model)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Drain(context.Background())

	impact := func(apply func() error) (versions int, epochs int64, recompiles int64) {
		t.Helper()
		v0 := hub.ConfigStore().LiveVersions()
		e0 := hub.ConfigStore().Epoch()
		c0 := hub.Engine.CompiledPlans()
		if err := apply(); err != nil {
			t.Fatal(err)
		}
		return hub.ConfigStore().LiveVersions() - v0,
			hub.ConfigStore().Epoch() - e0,
			hub.Engine.CompiledPlans() - c0
	}

	// Threshold change: one new rules version, no recompilation.
	if v, e, r := impact(func() error {
		_, err := hub.Apply(core.ChangeThreshold{PartnerID: "TP1", Threshold: 70000})
		return err
	}); v != 1 || e != 1 || r != 0 {
		t.Fatalf("threshold change: %d versions, %d epochs, %d recompiles; want 1, 1, 0", v, e, r)
	}
	// Transform swap: one new transform version, no recompilation — the
	// binding step resolves the transformer at run time, not compile time.
	if v, e, r := impact(func() error {
		_, err := hub.Apply(core.SwapTransform{Transformer: ediPOTransformV2()})
		return err
	}); v != 1 || e != 1 || r != 0 {
		t.Fatalf("transform swap: %d versions, %d epochs, %d recompiles; want 1, 1, 0", v, e, r)
	}
	// Binding swap: one new binding version, exactly one recompile (the
	// swapped type), and nothing else in the model.
	if v, e, r := impact(func() error {
		bind, err := core.BuildBinding(formats.EDI)
		if err != nil {
			return err
		}
		_, err = hub.Apply(core.NewTypeVersion{Type: bind})
		return err
	}); v != 1 || e != 1 || r != 1 {
		t.Fatalf("binding swap: %d versions, %d epochs, %d recompiles; want 1, 1, 1", v, e, r)
	}
	// A partner on a new protocol deploys its public process and binding:
	// two versions, two epochs, two recompiles — the existing partners'
	// types are untouched.
	if v, e, r := impact(func() error {
		_, err := hub.AddPartner(core.Figure15Partner())
		return err
	}); v != 2 || e != 2 || r != 2 {
		t.Fatalf("new-protocol partner: %d versions, %d epochs, %d recompiles; want 2, 2, 2", v, e, r)
	}

	// The reshaped hub still serves on both an old and the new protocol.
	g := doc.NewGenerator(9)
	for _, p := range []doc.Party{
		{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"},
		{ID: "TP3", Name: "Trading Partner 3", DUNS: "333333333"},
	} {
		po := g.PO(p, doc.Party{ID: "HUB", Name: "Widget Inc", DUNS: "999999999"})
		if _, err := hub.Do(context.Background(), core.Request{Kind: core.DocPO, PO: po}); err != nil {
			t.Fatalf("post-sweep round trip for %s: %v", p.ID, err)
		}
	}
}

// BenchmarkAblationRuleLocation compares evaluating a partner threshold as
// an external business rule (the Section 4.3 design) against the same
// predicate compiled into a workflow-condition string (the naive design's
// per-type conditions). The runtime difference is negligible — the paper's
// argument for external rules is change locality, not speed, and this
// ablation documents that no performance excuse exists for embedding them.
func BenchmarkAblationRuleLocation(b *testing.B) {
	g := doc.NewGenerator(1)
	po := g.POWithAmount(benchBuyer, benchSeller, 60000)

	b.Run("external-rule-registry", func(b *testing.B) {
		reg := newApprovalRules(b)
		for i := 0; i < b.N; i++ {
			if _, err := reg.Evaluate("check-need-for-approval", "TP1", "SAP", po); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("embedded-condition", func(b *testing.B) {
		cond := mustParseCondition(b)
		env, err := doc.Env(po, "TP1", "SAP")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := evalCondition(cond, env); err != nil {
				b.Fatal(err)
			}
		}
	})
}
