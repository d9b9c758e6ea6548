package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/wf"
	"repro/internal/wfstore"
)

// Allocation budgets. Allocation counts repeat exactly from run to run, so
// unlike timings they can gate on a noisy host. The race detector's
// instrumentation allocates, so the budgets hold only without -race.
const (
	// exchangeAllocBudget bounds allocations per in-process PO exchange
	// (Hub.Do on the Figure 14 hub): 588 measured with go1.24, 1,026 while
	// conditions read an eagerly built map and every persist deep-copied
	// the instance. The headroom absorbs runtime differences between Go
	// releases.
	exchangeAllocBudget = 700
	// ruleAllocBudget bounds allocations per business-rule decision
	// (rules.Registry.Evaluate): 2 measured, 16 when the rule environment
	// was built as a map.
	ruleAllocBudget = 4
	// deliverAllocBudget bounds allocations per Engine.Deliver into a parked
	// receive step whose completion runs a conditional arc, a task and a
	// JoinAny join: 21 measured with go1.24, 23 while Deliver signaled the
	// delivered step's arcs from the TypeDef (building each arc key afresh).
	// A worklist or a second plan lookup per Deliver would exceed it.
	deliverAllocBudget = 25
)

func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	m, err := core.PaperFigure14Model()
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHub(m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const runs = 200
	g := doc.NewGenerator(1)
	buyers := []doc.Party{benchBuyer, benchBuyer2}
	pos := make([]*doc.PurchaseOrder, runs+1) // AllocsPerRun adds one warm-up run
	for i := range pos {
		pos[i] = g.PO(buyers[i%len(buyers)], benchSeller)
	}
	next := 0
	perExchange := testing.AllocsPerRun(runs, func() {
		po := pos[next]
		next++
		if _, err := h.Do(ctx, core.Request{Kind: core.DocPO, PO: po}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Hub.Do: %.0f allocations per exchange (budget %d)", perExchange, exchangeAllocBudget)
	if perExchange > exchangeAllocBudget {
		t.Errorf("Hub.Do allocates %.0f times per exchange, budget %d", perExchange, exchangeAllocBudget)
	}

	po := pos[0]
	perDecision := testing.AllocsPerRun(1000, func() {
		if _, err := m.Rules.Evaluate(core.ApprovalRuleSet, po.Buyer.ID, "SAP", po); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("rules.Registry.Evaluate: %.0f allocations per decision (budget %d)", perDecision, ruleAllocBudget)
	if perDecision > ruleAllocBudget {
		t.Errorf("rules.Registry.Evaluate allocates %.0f times per decision, budget %d", perDecision, ruleAllocBudget)
	}

	perDeliver := deliverAllocs(t)
	t.Logf("wf.Engine.Deliver: %.0f allocations per delivery (budget %d)", perDeliver, deliverAllocBudget)
	if perDeliver > deliverAllocBudget {
		t.Errorf("wf.Engine.Deliver allocates %.0f times per delivery, budget %d", perDeliver, deliverAllocBudget)
	}
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
