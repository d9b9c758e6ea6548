package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/doc"
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
}
