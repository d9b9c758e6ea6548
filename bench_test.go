package repro

// The benchmark harness: every figure-level experiment of the paper has a
// bench (or test) here that regenerates it. The paper is qualitative, so
// the quantities of record are artifact counts, change-impact sets and
// knowledge exposure — produced by the tests and cmd/complexity — while
// the benchmarks measure the runtime cost of every mechanism the paper's
// architecture relies on. See EXPERIMENTS.md for the mapping and results.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bpss"
	"repro/internal/conformance"
	"repro/internal/coop"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/expr"
	"repro/internal/formats"
	"repro/internal/interorg"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/rules"
	"repro/internal/transform"
	"repro/internal/wf"
	"repro/internal/wfstore"
)

var (
	benchBuyer  = doc.Party{ID: "TP1", Name: "Trading Partner 1", DUNS: "111111111"}
	benchBuyer2 = doc.Party{ID: "TP2", Name: "Trading Partner 2", DUNS: "222222222"}
	benchSeller = doc.Party{ID: "HUB", Name: "Widget Inc", DUNS: "999999999"}
)

// BenchmarkFig01RoundTrip: the paper's running example (Figure 1) as the
// full advanced stack processes it — one PO/POA round trip, in process.
func BenchmarkFig01RoundTrip(b *testing.B) {
	m, err := core.PaperFigure14Model()
	if err != nil {
		b.Fatal(err)
	}
	h, err := core.NewHub(m)
	if err != nil {
		b.Fatal(err)
	}
	g := doc.NewGenerator(1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		po := g.PO(benchBuyer, benchSeller)
		if _, err := h.Do(ctx, core.Request{Kind: core.DocPO, PO: po}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig04EngineCycle: Figure 4's create/advance/persist cycle on the
// in-memory workflow database.
func BenchmarkFig04EngineCycle(b *testing.B) {
	h := wf.NewHandlers()
	h.Register("noop", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	e := wf.NewEngine("bench", wfstore.NewMemStore(), h, nil)
	def := &wf.TypeDef{
		Name: "cycle", Version: 1,
		Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepTask, Handler: "noop"},
			{Name: "b", Kind: wf.StepTask, Handler: "noop"},
			{Name: "c", Kind: wf.StepTask, Handler: "noop"},
		},
		Arcs: []wf.Arc{{From: "a", To: "b"}, {From: "b", To: "c"}},
	}
	if err := e.Deploy(def); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Start(ctx, "cycle", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig04EngineCycleDurable: the same cycle against the durable
// journal-backed store (every transition written to the OS buffer cache,
// fsynced in batches).
func BenchmarkFig04EngineCycleDurable(b *testing.B) {
	store, err := wfstore.OpenFileStore(b.TempDir()+"/wf.log", journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	h := wf.NewHandlers()
	h.Register("noop", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	e := wf.NewEngine("bench", store, h, nil)
	def := &wf.TypeDef{
		Name: "cycle", Version: 1,
		Steps: []wf.StepDef{
			{Name: "a", Kind: wf.StepTask, Handler: "noop"},
			{Name: "b", Kind: wf.StepTask, Handler: "noop"},
		},
		Arcs: []wf.Arc{{From: "a", To: "b"}},
	}
	if err := e.Deploy(def); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Start(ctx, "cycle", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig04PlanChain: the compiled-plan interpreter on a bare engine
// running a 40-step conditional chain to completion, reported as
// instances/s.
func BenchmarkFig04PlanChain(b *testing.B) {
	// The chain is declared in reverse execution order (s39 first, entry
	// s0 last): each completion signals a step declared *earlier*, so every
	// step runs in a pass of its own. A rescan of every step per pass would
	// cost O(steps²) per instance; the worklist carries the signaled index
	// to the next pass.
	chainDef := func() *wf.TypeDef {
		const depth = 40
		t := &wf.TypeDef{Name: "chain", Version: 1}
		for i := depth - 1; i >= 0; i-- {
			t.Steps = append(t.Steps, wf.StepDef{
				Name: fmt.Sprintf("s%d", i), Kind: wf.StepTask, Handler: "nop"})
		}
		for i := 1; i < depth; i++ {
			a := wf.Arc{From: fmt.Sprintf("s%d", i-1), To: fmt.Sprintf("s%d", i)}
			if i%4 == 0 {
				a.Condition = "n >= 0"
			}
			t.Arcs = append(t.Arcs, a)
		}
		return t
	}
	h := wf.NewHandlers()
	h.Register("nop", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
	e := wf.NewEngine("interp", wfstore.NewMemStore(), h, nil)
	if err := e.Deploy(chainDef()); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		in, err := e.Start(ctx, "chain", map[string]any{"n": 1})
		if err != nil {
			b.Fatal(err)
		}
		if in.State != wf.InstCompleted {
			b.Fatalf("instance %s: %s", in.ID, in.State)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "instances/s")
}

func migrationType() *wf.TypeDef {
	return &wf.TypeDef{
		Name: "po-approval", Version: 1,
		Steps: []wf.StepDef{
			{Name: "store PO", Kind: wf.StepNoop},
			{Name: "wait funds", Kind: wf.StepReceive, Port: "funds", DataKey: "funds"},
			{Name: "done", Kind: wf.StepNoop},
		},
		Arcs: []wf.Arc{{From: "store PO", To: "wait funds"}, {From: "wait funds", To: "done"}},
	}
}

// BenchmarkFig05aMigration: workflow instance migration between two
// engines whose databases both hold the type.
func BenchmarkFig05aMigration(b *testing.B) {
	a := wf.NewEngine("orgA", wfstore.NewMemStore(), wf.NewHandlers(), nil)
	t := wf.NewEngine("orgB", wfstore.NewMemStore(), wf.NewHandlers(), nil)
	if err := a.Deploy(migrationType()); err != nil {
		b.Fatal(err)
	}
	if err := t.Deploy(migrationType()); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	g := doc.NewGenerator(1)
	mig := interorg.Migrator{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in, err := a.Start(ctx, "po-approval", map[string]any{"document": g.PO(benchBuyer, benchSeller)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := mig.MigrateInstance(a, t, in.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig06TypeMigration: migration including the automatic workflow
// type migration (the type is absent on the target).
func BenchmarkFig06TypeMigration(b *testing.B) {
	ctx := context.Background()
	g := doc.NewGenerator(1)
	mig := interorg.Migrator{AutoTypeMigration: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := wf.NewEngine("orgA", wfstore.NewMemStore(), wf.NewHandlers(), nil)
		t := wf.NewEngine("orgB", wfstore.NewMemStore(), wf.NewHandlers(), nil)
		if err := a.Deploy(migrationType()); err != nil {
			b.Fatal(err)
		}
		in, err := a.Start(ctx, "po-approval", map[string]any{"document": g.PO(benchBuyer, benchSeller)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := mig.MigrateInstance(a, t, in.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig05bDistribution: the master/slave distributed subworkflow
// round trip (Figure 5b) — master parks, remote child runs, result comes
// back.
func BenchmarkFig05bDistribution(b *testing.B) {
	remote := wf.NewEngine("orgB", wfstore.NewMemStore(), wf.NewHandlers(), nil)
	child := &wf.TypeDef{
		Name: "credit-check", Version: 1,
		Steps: []wf.StepDef{{Name: "check", Kind: wf.StepNoop}},
	}
	if err := remote.Deploy(child); err != nil {
		b.Fatal(err)
	}
	coord := interorg.NewCoordinator(map[string]*wf.Engine{"orgB": remote})
	master := wf.NewEngine("orgA", wfstore.NewMemStore(), wf.NewHandlers(), coord.PortFunc())
	parent := &wf.TypeDef{
		Name: "procurement", Version: 1,
		Steps: []wf.StepDef{
			{Name: "start remote", Kind: wf.StepConnection, Dir: wf.DirOut, Port: "dist:orgB:credit-check"},
			{Name: "await remote", Kind: wf.StepConnection, Dir: wf.DirIn, Port: "dist-reply:orgB:credit-check", DataKey: "r"},
		},
		Arcs: []wf.Arc{{From: "start remote", To: "await remote"}},
	}
	if err := master.Deploy(parent); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := master.Start(ctx, "procurement", map[string]any{"document": "PO"}); err != nil {
			b.Fatal(err)
		}
		if _, err := coord.Pump(ctx, master); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig08Cooperative: the cooperative two-enterprise round trip over
// a perfect in-process network, including the reliable-messaging layer.
func BenchmarkFig08Cooperative(b *testing.B) {
	pair, err := coop.NewFigure8Pair(msg.Faults{}, msg.ReliableConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer pair.Close()
	ctx := context.Background()
	g := doc.NewGenerator(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		po := g.PO(benchBuyer, benchSeller)
		if _, err := pair.RoundTrip(ctx, po); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig09Build / BenchmarkFig10Build: generating (and validating)
// the naive monolithic workflow types.
func BenchmarkFig09Build(b *testing.B) {
	pop := coop.PaperFigure9()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coop.BuildReceiverType("naive", pop); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Build(b *testing.B) {
	pop := coop.PaperFigure10()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coop.BuildReceiverType("naive", pop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig09NaiveRoundTrip: one PO through the Figure 9 monolith.
func BenchmarkFig09NaiveRoundTrip(b *testing.B) {
	s, err := coop.NewReceiverScenario(coop.PaperFigure9())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	g := doc.NewGenerator(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		po := g.PO(benchBuyer, benchSeller)
		if _, err := s.RoundTrip(ctx, po); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14EndToEnd: one PO through the advanced stack (public →
// binding → private → app binding → SAP and back), per partner protocol.
func BenchmarkFig14EndToEnd(b *testing.B) {
	for _, c := range []struct {
		name  string
		buyer doc.Party
	}{
		{"EDI-SAP", benchBuyer},
		{"RosettaNet-Oracle", benchBuyer2},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, err := core.PaperFigure14Model()
			if err != nil {
				b.Fatal(err)
			}
			h, err := core.NewHub(m)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			g := doc.NewGenerator(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				po := g.PO(c.buyer, benchSeller)
				if _, err := h.Do(ctx, core.Request{Kind: core.DocPO, PO: po}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14WireLevel: the same exchange including protocol
// encode/decode at the edge.
func BenchmarkFig14WireLevel(b *testing.B) {
	m, err := core.PaperFigure14Model()
	if err != nil {
		b.Fatal(err)
	}
	h, err := core.NewHub(m)
	if err != nil {
		b.Fatal(err)
	}
	reg := &transform.Registry{}
	transform.RegisterAll(reg)
	codecs := core.NewCodecRegistry()
	poCodec, err := codecs.Lookup(formats.EDI, doc.TypePO)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	g := doc.NewGenerator(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		po := g.PO(benchBuyer, benchSeller)
		native, err := reg.FromNormalized(formats.EDI, doc.TypePO, po)
		if err != nil {
			b.Fatal(err)
		}
		wire, err := poCodec.Encode(native)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Do(ctx, core.Request{Kind: core.DocWirePO, Protocol: formats.EDI, Wire: wire}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15AddPartner: applying the Figure 15 change (new partner,
// new protocol) to a freshly built model.
func BenchmarkFig15AddPartner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := core.PaperFigure14Model()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.AddPartner(core.Figure15Partner()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalabilitySweep: model-construction cost of naive vs advanced
// as the population grows (Section 4.6). The interesting output is the
// artifact counts reported via b.ReportMetric.
func BenchmarkScalabilitySweep(b *testing.B) {
	for _, c := range []struct{ p, t, a int }{
		{1, 1, 1}, {2, 2, 2}, {3, 4, 3}, {4, 8, 4}, {5, 16, 5}, {6, 32, 6},
	} {
		pop := coop.Synthetic(c.p, c.t, c.a)
		b.Run(fmt.Sprintf("naive/P%dT%dA%d", c.p, c.t, c.a), func(b *testing.B) {
			var st metrics.ModelStats
			for i := 0; i < b.N; i++ {
				def, err := coop.BuildReceiverType("naive", pop)
				if err != nil {
					b.Fatal(err)
				}
				st = metrics.StatsOf([]*wf.TypeDef{def})
			}
			b.ReportMetric(float64(st.Steps), "steps")
			b.ReportMetric(float64(st.ConditionTerms), "terms")
		})
		b.Run(fmt.Sprintf("advanced/P%dT%dA%d", c.p, c.t, c.a), func(b *testing.B) {
			var st metrics.ModelStats
			for i := 0; i < b.N; i++ {
				m, err := advancedModelFor(pop)
				if err != nil {
					b.Fatal(err)
				}
				st = metrics.StatsOf(m.AllTypes())
			}
			b.ReportMetric(float64(st.Steps), "steps")
			b.ReportMetric(float64(st.ConditionTerms), "terms")
		})
	}
}

func advancedModelFor(pop coop.Population) (*core.Model, error) {
	var partners []core.TradingPartner
	for _, tp := range pop.Partners {
		partners = append(partners, core.TradingPartner{
			ID: tp.ID, Name: tp.Name, Protocol: tp.Protocol,
			Backend: tp.Backend, ApprovalThreshold: tp.ApprovalThreshold,
		})
	}
	var backends []core.Backend
	for _, be := range pop.Backends {
		backends = append(backends, core.Backend{Name: be.Name, Format: be.Format})
	}
	return core.BuildModel(partners, backends)
}

// BenchmarkRoundTripLoss: end-to-end round trips over the simulated
// network under increasing loss — the reliable layer masks loss at a
// latency cost (retry timers), which is the expected shape.
func BenchmarkRoundTripLoss(b *testing.B) {
	for _, loss := range []float64{0, 0.01, 0.10} {
		b.Run(fmt.Sprintf("loss%.0f%%", loss*100), func(b *testing.B) {
			m, err := core.PaperFigure14Model()
			if err != nil {
				b.Fatal(err)
			}
			h, err := core.NewHub(m)
			if err != nil {
				b.Fatal(err)
			}
			network := msg.NewInProcNetwork(msg.Faults{LossProb: loss, Seed: 7})
			defer network.Close()
			rcfg := msg.ReliableConfig{RetryInterval: 5 * time.Millisecond, MaxAttempts: 200}
			hubEP, err := network.Endpoint("hub")
			if err != nil {
				b.Fatal(err)
			}
			server := core.NewServer(h, hubEP, core.WithReliableConfig(rcfg))
			defer server.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go server.Serve(ctx, nil)
			p1, _ := m.PartnerByID("TP1")
			ep, err := network.Endpoint("TP1")
			if err != nil {
				b.Fatal(err)
			}
			client := core.NewClient(p1, ep, rcfg, "hub")
			defer client.Close()
			g := doc.NewGenerator(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				po := g.PO(benchBuyer, benchSeller)
				if _, err := client.RoundTrip(ctx, po); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoundTripPartners: hub throughput as the partner population
// grows — the advanced model's per-exchange cost is independent of how
// many partners exist.
func BenchmarkRoundTripPartners(b *testing.B) {
	for _, nPartners := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("partners%d", nPartners), func(b *testing.B) {
			var partners []core.TradingPartner
			protos := []formats.Format{formats.EDI, formats.RosettaNet, formats.OAGIS}
			for i := 0; i < nPartners; i++ {
				be := "SAP"
				if i%2 == 1 {
					be = "Oracle"
				}
				partners = append(partners, core.TradingPartner{
					ID:   fmt.Sprintf("TP%d", i+1),
					Name: fmt.Sprintf("Trading Partner %d", i+1), DUNS: fmt.Sprintf("%09d", i+1),
					Protocol: protos[i%len(protos)], Backend: be,
					ApprovalThreshold: float64(10000 * (i + 1)),
				})
			}
			m, err := core.BuildModel(partners, []core.Backend{
				{Name: "SAP", Format: formats.SAPIDoc},
				{Name: "Oracle", Format: formats.OracleOIF},
			})
			if err != nil {
				b.Fatal(err)
			}
			h, err := core.NewHub(m)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			g := doc.NewGenerator(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := partners[i%len(partners)]
				po := g.PO(doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS}, benchSeller)
				if _, err := h.Do(ctx, core.Request{Kind: core.DocPO, PO: po}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransformChain: one cross-format chain through the normalized
// hub per concrete pair used in Figure 9 ("Transform EDI to SAP PO").
func BenchmarkTransformChain(b *testing.B) {
	reg := &transform.Registry{}
	transform.RegisterAll(reg)
	g := doc.NewGenerator(1)
	po := g.PO(benchBuyer, benchSeller)
	native, err := reg.FromNormalized(formats.EDI, doc.TypePO, po)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Apply(formats.EDI, formats.SAPIDoc, doc.TypePO, native); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecs: wire encode+decode per format.
func BenchmarkCodecs(b *testing.B) {
	reg := &transform.Registry{}
	transform.RegisterAll(reg)
	codecs := core.NewCodecRegistry()
	g := doc.NewGenerator(1)
	po := g.PO(benchBuyer, benchSeller)
	for _, f := range []formats.Format{formats.EDI, formats.RosettaNet, formats.OAGIS, formats.SAPIDoc, formats.OracleOIF} {
		b.Run(string(f), func(b *testing.B) {
			native, err := reg.FromNormalized(f, doc.TypePO, po)
			if err != nil {
				b.Fatal(err)
			}
			codec, err := codecs.Lookup(f, doc.TypePO)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wire, err := codec.Encode(native)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := codec.Decode(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReliableMessaging: the RNIF-substitute's send/ack round trip.
func BenchmarkReliableMessaging(b *testing.B) {
	network := msg.NewInProcNetwork(msg.Faults{})
	defer network.Close()
	ea, err := network.Endpoint("A")
	if err != nil {
		b.Fatal(err)
	}
	eb, err := network.Endpoint("B")
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
	body := []byte("purchase order payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ra.Send(ctx, "B", &msg.Message{Body: body}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuleEvaluation: one business-rule decision through the external
// registry (the paper's check-need-for-approval).
func BenchmarkRuleEvaluation(b *testing.B) {
	reg := rules.NewRegistry()
	set := reg.Set(core.ApprovalRuleSet)
	for i := 0; i < 16; i++ {
		if err := set.Add(rules.Rule{
			Name:   fmt.Sprintf("approval TP%d→SAP", i+1),
			Source: fmt.Sprintf("TP%d", i+1), Target: "SAP",
			Condition: fmt.Sprintf("document.amount >= %d", 10000*(i+1)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	g := doc.NewGenerator(1)
	po := g.POWithAmount(doc.Party{ID: "TP16", Name: "x"}, benchSeller, 170000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Evaluate(core.ApprovalRuleSet, "TP16", "SAP", po); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExprEval: raw condition evaluation.
func BenchmarkExprEval(b *testing.B) {
	n := expr.MustParse(`(target == "SAP" && source == "TP1" && document.amount >= 55000) || document.amount < 0`)
	env := expr.MapEnv{"target": "SAP", "source": "TP1", "document.amount": 60000.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expr.EvalBool(n, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNaiveVsAdvancedRoundTrip pits the two architectures against
// each other on the same exchange — the advanced chain costs a constant
// factor more per message (four instances instead of one) and buys change
// locality and knowledge protection; the shape of interest is that both
// are flat in the population size.
func BenchmarkNaiveVsAdvancedRoundTrip(b *testing.B) {
	b.Run("naive", func(b *testing.B) {
		s, err := coop.NewReceiverScenario(coop.PaperFigure9())
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		g := doc.NewGenerator(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.RoundTrip(ctx, g.PO(benchBuyer, benchSeller)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("advanced", func(b *testing.B) {
		m, err := core.PaperFigure14Model()
		if err != nil {
			b.Fatal(err)
		}
		h, err := core.NewHub(m)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		g := doc.NewGenerator(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := h.Do(ctx, core.Request{Kind: core.DocPO, PO: g.PO(benchBuyer, benchSeller)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTCPRoundTrip: the full exchange over real loopback sockets.
func BenchmarkTCPRoundTrip(b *testing.B) {
	m, err := core.PaperFigure14Model()
	if err != nil {
		b.Fatal(err)
	}
	h, err := core.NewHub(m)
	if err != nil {
		b.Fatal(err)
	}
	network := msg.NewTCPNetwork()
	defer network.Close()
	rcfg := msg.ReliableConfig{}
	hubEP, err := network.Endpoint("hub")
	if err != nil {
		b.Fatal(err)
	}
	server := core.NewServer(h, hubEP, core.WithReliableConfig(rcfg))
	defer server.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go server.Serve(ctx, nil)
	p1, _ := m.PartnerByID("TP1")
	ep, err := network.Endpoint("TP1")
	if err != nil {
		b.Fatal(err)
	}
	client := core.NewClient(p1, ep, rcfg, "hub")
	defer client.Close()
	g := doc.NewGenerator(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		po := g.PO(benchBuyer, benchSeller)
		if _, err := client.RoundTrip(ctx, po); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBPSSCompile: compiling a collaboration definition into both
// roles' public processes.
func BenchmarkBPSSCompile(b *testing.B) {
	cv := bpss.LineItemAcks(5)
	c := &cv
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.CompileBoth(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConformanceCheck: verifying two processes' message profiles are
// complementary (the pre-go-live agreement check).
func BenchmarkConformanceCheck(b *testing.B) {
	cv := bpss.LineItemAcks(5)
	req, resp, err := (&cv).CompileBoth()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conformance.Check(req, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalAck997: the Figure 14 exchange with the 997 variant
// enabled — the cost of the extra protocol signal.
func BenchmarkFunctionalAck997(b *testing.B) {
	m, err := core.PaperFigure14Model()
	if err != nil {
		b.Fatal(err)
	}
	h, err := core.NewHub(m)
	if err != nil {
		b.Fatal(err)
	}
	fa, err := core.BuildPublicProcessWithFunctionalAck(formats.EDI, 2)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.Apply(core.NewTypeVersion{Type: fa}); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	g := doc.NewGenerator(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		po := g.PO(benchBuyer, benchSeller)
		if _, err := h.Do(ctx, core.Request{Kind: core.DocPO, PO: po}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvoiceFlow: the outbound one-way invoice exchange (app binding
// → private → binding → public), after a PO round trip provides the billing
// document.
func BenchmarkInvoiceFlow(b *testing.B) {
	m, err := core.PaperFigure14Model()
	if err != nil {
		b.Fatal(err)
	}
	h, err := core.NewHub(m)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.EnableInvoicing(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	g := doc.NewGenerator(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		po := g.PO(benchBuyer, benchSeller)
		if _, err := h.Do(ctx, core.Request{Kind: core.DocPO, PO: po}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := h.Do(ctx, core.Request{Kind: core.DocInvoice, PartnerID: "TP1", POID: po.ID}); err != nil {
			b.Fatal(err)
		}
	}
}
