package repro

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/rules"
)

func newApprovalRules(b *testing.B) *rules.Registry {
	b.Helper()
	reg := rules.NewRegistry()
	set := reg.Set("check-need-for-approval")
	for _, r := range []rules.Rule{
		{Name: "approval TP1→SAP", Source: "TP1", Target: "SAP", Condition: "document.amount >= 55000"},
		{Name: "approval TP2→Oracle", Source: "TP2", Target: "Oracle", Condition: "document.amount >= 40000"},
	} {
		if err := set.Add(r); err != nil {
			b.Fatal(err)
		}
	}
	return reg
}

func mustParseCondition(b *testing.B) expr.Node {
	b.Helper()
	n, err := expr.Parse(`(source == "TP1" && target == "SAP" && document.amount >= 55000) ||
		(source == "TP2" && target == "Oracle" && document.amount >= 40000)`)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

func evalCondition(n expr.Node, env expr.Env) (bool, error) {
	return expr.EvalBool(n, env)
}
