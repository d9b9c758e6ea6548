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
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/bpss"
	"repro/internal/cfgstore"
	"repro/internal/cluster"
	"repro/internal/conformance"
	"repro/internal/coop"
	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/expr"
	"repro/internal/formats"
	"repro/internal/health"
	"repro/internal/interorg"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/rules"
	"repro/internal/server"
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
// append-log store (every transition fsynced to the OS buffer cache).
func BenchmarkFig04EngineCycleDurable(b *testing.B) {
	store, err := wfstore.OpenFileStore(b.TempDir() + "/wf.log")
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

// BenchmarkHubParallel: concurrent exchange throughput over the in-proc
// transport with simulated wire latency (2ms each way). The hub serves with
// ServeConcurrent on one scheduler shard of the given worker count; one
// client per worker drives round trips on its own endpoint. With one worker the run
// is wire-latency-bound; with more workers in-flight exchanges overlap the
// latency, so throughput scales until the CPU saturates — the property the
// concurrent submission API exists for. The exchanges/s metric is the one
// scripts/bench.sh records into BENCH_hub.json.
func BenchmarkHubParallel(b *testing.B) {
	const wireLatency = 2 * time.Millisecond
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m, err := core.PaperFigure14Model()
			if err != nil {
				b.Fatal(err)
			}
			h, err := core.NewHub(m, core.WithWorkersPerShard(workers))
			if err != nil {
				b.Fatal(err)
			}
			network := msg.NewInProcNetwork(msg.Faults{Latency: wireLatency})
			defer network.Close()
			// The retry interval sits far above the loaded round trip so
			// the reliable layer never re-sends during the measurement.
			rcfg := msg.ReliableConfig{RetryInterval: 250 * time.Millisecond, MaxAttempts: 20}
			hubEP, err := network.Endpoint("hub")
			if err != nil {
				b.Fatal(err)
			}
			server := core.NewServer(h, hubEP, core.WithReliableConfig(rcfg))
			defer server.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go server.ServeConcurrent(ctx, nil)
			defer h.StopWorkers()

			clients := make([]*core.Client, workers)
			partner, _ := h.Model.PartnerByID(benchBuyer.ID)
			for w := range clients {
				ep, err := network.Endpoint(fmt.Sprintf("tp1-w%d", w))
				if err != nil {
					b.Fatal(err)
				}
				clients[w] = core.NewClient(partner, ep, rcfg, "hub")
				defer clients[w].Close()
			}

			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				n := b.N / workers
				if w < b.N%workers {
					n++
				}
				if n == 0 {
					continue
				}
				wg.Add(1)
				go func(w, n int, c *core.Client) {
					defer wg.Done()
					g := doc.NewGenerator(int64(1000 + w))
					for i := 0; i < n; i++ {
						po := g.PO(benchBuyer, benchSeller)
						po.ID = fmt.Sprintf("%s-w%d-%d", po.ID, w, i)
						if _, err := c.RoundTrip(ctx, po); err != nil {
							b.Errorf("worker %d order %d: %v", w, i, err)
							return
						}
					}
				}(w, n, clients[w])
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "exchanges/s")
		})
	}
}

// BenchmarkHubParallelFaulty: the worker-pool throughput with a 10%
// injected backend error rate and the default retry policy absorbing it —
// the cost of fault masking under load, comparable to the clean
// workers=8 row of BenchmarkHubParallel. Exchanges are driven through the
// in-process DoAsync API so the measured overhead is retry scheduling, not
// wire latency.
func BenchmarkHubParallelFaulty(b *testing.B) {
	const workers = 8
	m, err := core.PaperFigure14Model()
	if err != nil {
		b.Fatal(err)
	}
	h, err := core.NewHub(m, core.WithWorkersPerShard(workers))
	if err != nil {
		b.Fatal(err)
	}
	h.WrapBackends(func(sys backend.System) backend.System {
		return backend.NewFaulty(sys, backend.FaultSchedule{ErrProb: 0.10, Seed: 17})
	})
	h.SetDefaultRetryPolicy(core.RetryPolicy{
		MaxAttempts: 10, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond,
	})
	h.StartScheduler()
	defer h.StopWorkers()
	ctx := context.Background()
	g := doc.NewGenerator(1)
	pos := make([]*doc.PurchaseOrder, b.N)
	for i := range pos {
		pos[i] = g.PO(benchBuyer, benchSeller)
	}
	b.ResetTimer()
	start := time.Now()
	futs := make([]*core.Future, b.N)
	for i, po := range pos {
		fut, err := h.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: po})
		if err != nil {
			b.Fatal(err)
		}
		futs[i] = fut
	}
	for i, fut := range futs {
		if res := fut.Result(ctx); res.Err != nil {
			b.Fatalf("exchange %d: %v", i, res.Err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "exchanges/s")
	c := h.Status().Exchanges
	b.ReportMetric(float64(c.Retries)/float64(b.N), "retries/op")
}

// BenchmarkHubSharded: throughput of the sharded per-partner exchange
// scheduler, driven through the in-process DoAsync API (like
// BenchmarkHubParallelFaulty) so the measured path is scheduling, binding
// resolution, transformation and backend work — not wire latency. The hub
// is configured with WithShards/WithWorkersPerShard and fed the
// three-protocol partner population (Figure 14 + the Figure 15 OAGIS
// partner) round-robin, so orders hash across shards. The shards=1 rows
// degenerate to the old single-pool shape; the shards>=4 rows are the
// tentpole configuration scripts/bench.sh records into BENCH_hub.json
// (acceptance: clean shards=8 >= 1.5x the BenchmarkHubParallel workers=8
// row of the seed, 1107 exchanges/s). The faulty row layers a 10% injected
// backend error rate absorbed by the retry layer on top.
func BenchmarkHubSharded(b *testing.B) {
	type cfg struct {
		mode            string
		shards, workers int
	}
	var cfgs []cfg
	for _, shards := range []int{1, 4, 8} {
		for _, workers := range []int{2, 4} {
			cfgs = append(cfgs, cfg{"clean", shards, workers})
		}
	}
	cfgs = append(cfgs, cfg{"faulty", 8, 4})
	for _, c := range cfgs {
		b.Run(fmt.Sprintf("%s/shards=%d/workers=%d", c.mode, c.shards, c.workers), func(b *testing.B) {
			m, err := core.PaperFigure14Model()
			if err != nil {
				b.Fatal(err)
			}
			h, err := core.NewHub(m,
				core.WithShards(c.shards),
				core.WithWorkersPerShard(c.workers))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.AddPartner(core.Figure15Partner()); err != nil {
				b.Fatal(err)
			}
			if c.mode == "faulty" {
				h.WrapBackends(func(sys backend.System) backend.System {
					return backend.NewFaulty(sys, backend.FaultSchedule{ErrProb: 0.10, Seed: 17})
				})
				h.SetDefaultRetryPolicy(core.RetryPolicy{
					MaxAttempts: 10, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond,
				})
			}
			defer h.StopWorkers()
			ctx := context.Background()

			var buyers []doc.Party
			for _, p := range h.Model.Partners {
				buyers = append(buyers, doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS})
			}
			gens := make([]*doc.Generator, len(buyers))
			for i := range gens {
				gens[i] = doc.NewGenerator(int64(2000 + i))
			}
			pos := make([]*doc.PurchaseOrder, b.N)
			for i := range pos {
				w := i % len(buyers)
				pos[i] = gens[w].PO(buyers[w], benchSeller)
				pos[i].ID = fmt.Sprintf("%s-c%d-%d", pos[i].ID, w, i)
			}

			b.ResetTimer()
			start := time.Now()
			futs := make([]*core.Future, b.N)
			for i, po := range pos {
				fut, err := h.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: po})
				if err != nil {
					b.Fatal(err)
				}
				futs[i] = fut
			}
			for i, fut := range futs {
				if res := fut.Result(ctx); res.Err != nil {
					b.Fatalf("exchange %d: %v", i, res.Err)
				}
			}
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "exchanges/s")
			if c.mode == "faulty" {
				cs := h.Status().Exchanges
				b.ReportMetric(float64(cs.Retries)/float64(b.N), "retries/op")
			}
		})
	}
}

// BenchmarkHubWire: networked throughput of the daemon front door. The
// inproc row is the BenchmarkHubSharded clean shards=8 workers=4
// configuration driven through DoAsync directly — the no-wire baseline.
// The wire row serves the identically configured hub through
// internal/server on a real TCP loopback socket and drives the same order
// mix through 4 clients x 8 pipelined submit calls each, so the measured
// path adds frame encode/decode, the socket round trip and response
// correlation on top of everything the baseline does. scripts/bench.sh
// records both rows into BENCH_hub.json and holds wire >= 0.5x inproc:
// the front door may cost at most half the in-process clean throughput.
func BenchmarkHubWire(b *testing.B) {
	for _, mode := range []string{"inproc", "wire"} {
		b.Run(fmt.Sprintf("%s/shards=8/workers=4", mode), func(b *testing.B) {
			m, err := core.PaperFigure14Model()
			if err != nil {
				b.Fatal(err)
			}
			h, err := core.NewHub(m, core.WithShards(8), core.WithWorkersPerShard(4))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.AddPartner(core.Figure15Partner()); err != nil {
				b.Fatal(err)
			}
			defer h.StopWorkers()
			ctx := context.Background()

			var buyers []doc.Party
			for _, p := range h.Model.Partners {
				buyers = append(buyers, doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS})
			}
			gens := make([]*doc.Generator, len(buyers))
			for i := range gens {
				gens[i] = doc.NewGenerator(int64(3000 + i))
			}
			pos := make([]*doc.PurchaseOrder, b.N)
			for i := range pos {
				w := i % len(buyers)
				pos[i] = gens[w].PO(buyers[w], benchSeller)
				pos[i].ID = fmt.Sprintf("%s-w%d-%d", pos[i].ID, w, i)
			}

			if mode == "inproc" {
				b.ResetTimer()
				start := time.Now()
				futs := make([]*core.Future, b.N)
				for i, po := range pos {
					fut, err := h.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: po})
					if err != nil {
						b.Fatal(err)
					}
					futs[i] = fut
				}
				for i, fut := range futs {
					if res := fut.Result(ctx); res.Err != nil {
						b.Fatalf("exchange %d: %v", i, res.Err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "exchanges/s")
				return
			}

			// Wire: marshal the submit requests up front so the timed
			// region measures the protocol, not client-side PO encoding
			// symmetry with the baseline, whose POs are also pre-built.
			reqs := make([]server.SubmitRequest, b.N)
			for i, po := range pos {
				req, err := server.PORequest(po)
				if err != nil {
					b.Fatal(err)
				}
				req.Async = true
				reqs[i] = req
			}
			h.StartScheduler()
			d, err := server.NewDaemon(h, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- d.Serve() }()
			const clients, pipeline = 4, 8
			conns := make([]*server.Client, clients)
			for i := range conns {
				c, err := server.Dial(ctx, d.Addr())
				if err != nil {
					b.Fatal(err)
				}
				conns[i] = c
			}
			defer func() {
				for _, c := range conns {
					c.Close()
				}
				d.Close()
				if err := <-serveDone; err != nil {
					b.Error(err)
				}
			}()

			b.ResetTimer()
			start := time.Now()
			var next atomic.Int64
			var wg sync.WaitGroup
			errc := make(chan error, clients*pipeline)
			for w := 0; w < clients*pipeline; w++ {
				wg.Add(1)
				go func(c *server.Client) {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						if _, err := c.Submit(ctx, reqs[i]); err != nil {
							errc <- fmt.Errorf("exchange %d: %w", i, err)
							return
						}
					}
				}(conns[w%clients])
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "exchanges/s")
		})
	}
}

// BenchmarkHubForward: cross-node federation throughput. Two cluster
// nodes serve identically configured hubs over TCP loopback; every order
// targets a partner the second node owns. The inproc row drives the
// owner's hub through DoAsync directly — the no-wire, no-forward
// baseline. The forward row submits the same mix through the OTHER node's
// front door, so every exchange pays the relay's frame decode, the
// ownership lookup, a second full wire round trip to the owner and the
// response relay on top of everything the baseline does. scripts/bench.sh
// records both rows into BENCH_hub.json and holds forward >= 0.4x inproc:
// partner-affinity routing may cost at most 60% of local throughput.
func BenchmarkHubForward(b *testing.B) {
	for _, mode := range []string{"inproc", "forward"} {
		b.Run(fmt.Sprintf("%s/shards=8/workers=4", mode), func(b *testing.B) {
			ids := []string{"f1", "f2"}
			hubs := map[string]*core.Hub{}
			daemons := map[string]*server.Daemon{}
			members := make([]cluster.Peer, 0, len(ids))
			for _, id := range ids {
				m, err := core.PaperFigure14Model()
				if err != nil {
					b.Fatal(err)
				}
				cfg := cluster.Config{Node: id}
				for _, pid := range ids {
					cfg.Peers = append(cfg.Peers, cluster.Peer{Node: pid})
				}
				h, err := core.NewHub(m,
					core.WithShards(8), core.WithWorkersPerShard(4),
					core.WithExchangeIDBase(cfg.ExchangeIDBase()))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.AddPartner(core.Figure15Partner()); err != nil {
					b.Fatal(err)
				}
				h.StartScheduler()
				d, err := server.NewDaemon(h, "127.0.0.1:0", server.WithName(id))
				if err != nil {
					b.Fatal(err)
				}
				hubs[id], daemons[id] = h, d
				members = append(members, cluster.Peer{Node: id, Addr: d.Addr()})
			}
			nodes := map[string]*cluster.Node{}
			for _, id := range ids {
				node, err := cluster.New(hubs[id], cluster.Config{
					Node: id, Peers: members,
					Forward: core.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond,
						MaxBackoff: 10 * time.Millisecond, PerAttemptTimeout: 5 * time.Second},
				})
				if err != nil {
					b.Fatal(err)
				}
				node.Attach(daemons[id])
				go daemons[id].Serve()
				nodes[id] = node
			}
			defer func() {
				for _, id := range ids {
					nodes[id].Stop()
					daemons[id].Close()
					hubs[id].StopWorkers()
				}
			}()

			// Every order targets a partner f2 owns; f1 is the relay.
			owner, relay := "f2", "f1"
			var buyers []doc.Party
			for _, p := range hubs[owner].Model.Partners {
				if nodes[relay].Owner(p.ID) == owner {
					buyers = append(buyers, doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS})
				}
			}
			if len(buyers) == 0 {
				b.Fatal("fixture: f2 owns no partners")
			}
			gens := make([]*doc.Generator, len(buyers))
			for i := range gens {
				gens[i] = doc.NewGenerator(int64(7000 + i))
			}
			pos := make([]*doc.PurchaseOrder, b.N)
			for i := range pos {
				w := i % len(buyers)
				pos[i] = gens[w].PO(buyers[w], benchSeller)
				pos[i].ID = fmt.Sprintf("%s-f%d-%d", pos[i].ID, w, i)
			}
			ctx := context.Background()

			if mode == "inproc" {
				b.ResetTimer()
				start := time.Now()
				futs := make([]*core.Future, b.N)
				for i, po := range pos {
					fut, err := hubs[owner].DoAsync(ctx, core.Request{Kind: core.DocPO, PO: po})
					if err != nil {
						b.Fatal(err)
					}
					futs[i] = fut
				}
				for i, fut := range futs {
					if res := fut.Result(ctx); res.Err != nil {
						b.Fatalf("exchange %d: %v", i, res.Err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "exchanges/s")
				return
			}

			reqs := make([]server.SubmitRequest, b.N)
			for i, po := range pos {
				req, err := server.PORequest(po)
				if err != nil {
					b.Fatal(err)
				}
				req.Async = true
				reqs[i] = req
			}
			const clients, pipeline = 4, 8
			conns := make([]*server.Client, clients)
			for i := range conns {
				c, err := server.Dial(ctx, daemons[relay].Addr())
				if err != nil {
					b.Fatal(err)
				}
				conns[i] = c
			}
			defer func() {
				for _, c := range conns {
					c.Close()
				}
			}()

			b.ResetTimer()
			start := time.Now()
			var next atomic.Int64
			var wg sync.WaitGroup
			errc := make(chan error, clients*pipeline)
			for w := 0; w < clients*pipeline; w++ {
				wg.Add(1)
				go func(c *server.Client) {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= b.N {
							return
						}
						if _, err := c.Submit(ctx, reqs[i]); err != nil {
							errc <- fmt.Errorf("exchange %d: %w", i, err)
							return
						}
					}
				}(conns[w%clients])
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			if fwd := hubs[relay].Status().Cluster.Forwarded; fwd < int64(b.N) {
				b.Fatalf("only %d of %d submits crossed the forward path", fwd, b.N)
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "exchanges/s")
		})
	}
}

// BenchmarkHubPlanned measures the compiled-plan interpreter on a bare
// engine.
//
// The interp row runs a 40-step conditional chain to completion and reports
// instances/s, an absolute figure scripts/bench.sh records.
//
// The wide pair isolates intra-instance step parallelism on a bare engine:
// an 8-way fan-out whose sends each hold a ~200µs port (the simulated slow
// transport), interpreted with parallelism 1 vs 8. Instances/s at
// parallelism=8 is the measured speedup scripts/bench.sh records
// (acceptance: > 1.0x the parallelism=1 row).
func BenchmarkHubPlanned(b *testing.B) {
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
	b.Run("interp/mode=plan", func(b *testing.B) {
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
	})

	const fan = 8
	wideDef := func() *wf.TypeDef {
		t := &wf.TypeDef{Name: "wide", Version: 1,
			Steps: []wf.StepDef{{Name: "seed", Kind: wf.StepTask, Handler: "nop"}}}
		for i := 0; i < fan; i++ {
			send := fmt.Sprintf("send%d", i)
			t.Steps = append(t.Steps, wf.StepDef{Name: send, Kind: wf.StepSend, Port: fmt.Sprintf("p%d", i)})
			t.Arcs = append(t.Arcs,
				wf.Arc{From: "seed", To: send},
				wf.Arc{From: send, To: "done"})
		}
		t.Steps = append(t.Steps, wf.StepDef{Name: "done", Kind: wf.StepTask, Handler: "nop", Join: wf.JoinAll})
		return t
	}
	for _, par := range []int{1, fan} {
		b.Run(fmt.Sprintf("wide/parallelism=%d", par), func(b *testing.B) {
			h := wf.NewHandlers()
			h.Register("nop", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error { return nil })
			slowPort := func(ctx context.Context, in *wf.Instance, s *wf.StepDef, payload any) error {
				time.Sleep(200 * time.Microsecond)
				return nil
			}
			e := wf.NewEngine("wide", wfstore.NewMemStore(), h, slowPort,
				wf.WithStepParallelism(par))
			if err := e.Deploy(wideDef()); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				in, err := e.Start(ctx, "wide", map[string]any{"document": "payload"})
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
		})
	}
}

// BenchmarkHubBreaker: healthy-partner throughput while one partner's
// backend is hard down, with the circuit breaker off vs on. The feeder
// interleaves one doomed TP2 order per two healthy (TP1/TP3) orders; with
// the breaker off every doomed order burns its full retry budget on shard
// workers and backpressures the feeder, starving the healthy lanes. With
// the breaker on the outage is recognized within MinSamples failures and
// subsequent TP2 orders fast-fail to the DLQ at admission, so healthy
// throughput is restored. The healthy-exchanges/s metric is what
// scripts/bench.sh records as the breaker section of BENCH_hub.json
// (acceptance: on >= 2x off).
func BenchmarkHubBreaker(b *testing.B) {
	benchBuyer3 := doc.Party{ID: "TP3", Name: "Trading Partner 3", DUNS: "333333333"}
	for _, mode := range []string{"off", "on"} {
		b.Run("breaker="+mode, func(b *testing.B) {
			m, err := core.PaperFigure14Model()
			if err != nil {
				b.Fatal(err)
			}
			opts := []core.HubOption{core.WithShards(8), core.WithWorkersPerShard(2)}
			if mode == "on" {
				opts = append(opts, core.WithHealth(health.Config{
					Window:        time.Second,
					Threshold:     0.5,
					MinSamples:    4,
					ProbeInterval: 50 * time.Millisecond,
				}))
			}
			h, err := core.NewHub(m, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.AddPartner(core.Figure15Partner()); err != nil {
				b.Fatal(err)
			}
			h.WrapBackends(func(sys backend.System) backend.System {
				if sys.Name() == "Oracle" {
					return backend.NewFaulty(sys, backend.FaultSchedule{ErrProb: 1, Seed: 11})
				}
				return sys
			})
			h.SetDefaultRetryPolicy(core.RetryPolicy{
				MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
			})
			defer h.StopWorkers()
			ctx := context.Background()

			healthyGen := doc.NewGenerator(31)
			doomedGen := doc.NewGenerator(32)
			healthyPOs := make([]*doc.PurchaseOrder, b.N)
			for i := range healthyPOs {
				buyer := benchBuyer
				if i%2 == 1 {
					buyer = benchBuyer3
				}
				po := healthyGen.PO(buyer, benchSeller)
				po.ID = fmt.Sprintf("%s-h%d", po.ID, i)
				healthyPOs[i] = po
			}
			doomedPOs := make([]*doc.PurchaseOrder, (b.N+1)/2)
			for i := range doomedPOs {
				po := doomedGen.PO(benchBuyer2, benchSeller)
				po.ID = fmt.Sprintf("%s-d%d", po.ID, i)
				doomedPOs[i] = po
			}

			b.ResetTimer()
			start := time.Now()
			healthyFuts := make([]*core.Future, len(healthyPOs))
			doomedFuts := make([]*core.Future, 0, len(doomedPOs))
			for i, po := range healthyPOs {
				fut, err := h.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: po})
				if err != nil {
					b.Fatal(err)
				}
				healthyFuts[i] = fut
				if i%2 == 1 {
					dfut, err := h.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: doomedPOs[i/2]})
					if err != nil {
						b.Fatal(err)
					}
					doomedFuts = append(doomedFuts, dfut)
				}
			}
			for i, fut := range healthyFuts {
				if res := fut.Result(ctx); res.Err != nil {
					b.Fatalf("healthy exchange %d: %v", i, res.Err)
				}
			}
			elapsed := time.Since(start)
			b.StopTimer()
			// Doomed futures resolve to errors (retry-exhausted or
			// fast-failed); drain them outside the timed window.
			for _, fut := range doomedFuts {
				fut.Result(ctx)
			}
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "healthy-exchanges/s")
		})
	}
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
	if _, err := h.EnableFunctionalAcks(formats.EDI); err != nil {
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

// BenchmarkHubJournal: exchange throughput with the write-ahead journal at
// each fsync policy, against the unjournaled baseline ("off"). The "seam"
// row is the batched configuration with the journal's I/O routed through a
// pass-through FaultFS (no fault armed) — it prices the fs indirection the
// fault-injection seam adds to every write, sync and rename. The
// exchanges/s metric is what scripts/bench.sh records as the journal
// section of BENCH_hub.json (acceptance: batched >= 0.4x off, and
// seam >= 0.95x batched — the seam must stay free when healthy).
func BenchmarkHubJournal(b *testing.B) {
	for _, mode := range []string{"off", "never", "batched", "always", "seam"} {
		b.Run("fsync="+mode, func(b *testing.B) {
			m, err := core.PaperFigure14Model()
			if err != nil {
				b.Fatal(err)
			}
			opts := []core.HubOption{core.WithShards(4), core.WithWorkersPerShard(4)}
			switch mode {
			case "off":
			case "seam":
				opts = append(opts,
					core.WithJournal(filepath.Join(b.TempDir(), "hub.wal")),
					core.WithFsyncPolicy(journal.FsyncBatched),
					core.WithJournalFS(journal.NewFaultFS(nil, 1)))
			default:
				opts = append(opts,
					core.WithJournal(filepath.Join(b.TempDir(), "hub.wal")),
					core.WithFsyncPolicy(journal.FsyncPolicy(mode)))
			}
			h, err := core.NewHub(m, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.AddPartner(core.Figure15Partner()); err != nil {
				b.Fatal(err)
			}
			defer h.StopWorkers()
			defer h.CloseJournal()
			ctx := context.Background()

			var buyers []doc.Party
			for _, p := range h.Model.Partners {
				buyers = append(buyers, doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS})
			}
			gens := make([]*doc.Generator, len(buyers))
			for i := range gens {
				gens[i] = doc.NewGenerator(int64(4000 + i))
			}
			pos := make([]*doc.PurchaseOrder, b.N)
			for i := range pos {
				w := i % len(buyers)
				pos[i] = gens[w].PO(buyers[w], benchSeller)
				pos[i].ID = fmt.Sprintf("%s-j%d-%d", pos[i].ID, w, i)
			}

			b.ResetTimer()
			start := time.Now()
			futs := make([]*core.Future, b.N)
			for i, po := range pos {
				fut, err := h.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: po})
				if err != nil {
					b.Fatal(err)
				}
				futs[i] = fut
			}
			for i, fut := range futs {
				if res := fut.Result(ctx); res.Err != nil {
					b.Fatalf("exchange %d: %v", i, res.Err)
				}
			}
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "exchanges/s")
			if j := h.Journal(); j != nil {
				st := j.Stats()
				b.ReportMetric(float64(st.Syncs)/float64(b.N), "fsyncs/op")
			}
		})
	}
}

// BenchmarkHubCanary: exchange throughput with an active canary on one
// partner's binding, against the no-canary baseline. The canary adds a hash
// route decision per admission for the canaried partner and an outcome
// record per completion; neither touches the hot path of the other
// partners. scripts/bench.sh records both rows in the canary section of
// BENCH_hub.json (acceptance: canary=on >= 0.9x canary=off).
func BenchmarkHubCanary(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run("canary="+mode, func(b *testing.B) {
			m, err := core.PaperFigure14Model()
			if err != nil {
				b.Fatal(err)
			}
			h, err := core.NewHub(m,
				core.WithShards(4), core.WithWorkersPerShard(4),
				// A sample floor no run reaches: the canary stays active for
				// the whole benchmark instead of settling after a few ops.
				core.WithCanaryPolicy(cfgstore.CanaryPolicy{MinSamples: 1 << 30, Margin: 0.1}))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.AddPartner(core.Figure15Partner()); err != nil {
				b.Fatal(err)
			}
			defer h.StopWorkers()
			if mode == "on" {
				// A healthy rebuilt candidate: identical behavior, new version.
				cand, err := core.BuildBinding(formats.EDI)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.Canary("TP1", cand, 0.25); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()

			var buyers []doc.Party
			for _, p := range h.Model.Partners {
				buyers = append(buyers, doc.Party{ID: p.ID, Name: p.Name, DUNS: p.DUNS})
			}
			gens := make([]*doc.Generator, len(buyers))
			for i := range gens {
				gens[i] = doc.NewGenerator(int64(5000 + i))
			}
			pos := make([]*doc.PurchaseOrder, b.N)
			for i := range pos {
				w := i % len(buyers)
				pos[i] = gens[w].PO(buyers[w], benchSeller)
				pos[i].ID = fmt.Sprintf("%s-c%d-%d", pos[i].ID, w, i)
			}

			b.ResetTimer()
			start := time.Now()
			futs := make([]*core.Future, b.N)
			for i, po := range pos {
				fut, err := h.DoAsync(ctx, core.Request{Kind: core.DocPO, PO: po})
				if err != nil {
					b.Fatal(err)
				}
				futs[i] = fut
			}
			for i, fut := range futs {
				if res := fut.Result(ctx); res.Err != nil {
					b.Fatalf("exchange %d: %v", i, res.Err)
				}
			}
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "exchanges/s")
		})
	}
}
