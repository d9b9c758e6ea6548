// Package metrics quantifies integration models: how many artifacts a
// model contains and which artifacts a change touches. It turns the
// paper's qualitative scalability argument (Sections 3 and 4.6) into
// measurable quantities: the naive approach's workflow types grow with the
// product of trading partners × protocols × back ends and every change
// rewrites them, while the advanced approach grows additively and changes
// stay local.
package metrics

import (
	"encoding/json"
	"sort"
	"strings"

	"repro/internal/wf"
)

// ModelStats counts the artifacts of a set of workflow types.
type ModelStats struct {
	// Types is the number of workflow type definitions.
	Types int
	// Steps and Arcs count across all types.
	Steps int
	Arcs  int
	// TransformSteps counts steps declared with wf.RoleTransform — the
	// paper's per-combination "Transform X to Y" steps, identified by their
	// semantic role annotation rather than by name matching.
	TransformSteps int
	// MessageSteps counts send/receive/connection steps.
	MessageSteps int
	// ConditionTerms counts the total number of comparison terms in arc
	// conditions — the paper's trading-partner-specific clauses that pile
	// up inside naive workflow conditions ("source == TP1 && …").
	ConditionTerms int
}

// StatsOf computes ModelStats over workflow type definitions.
func StatsOf(defs []*wf.TypeDef) ModelStats {
	var s ModelStats
	s.Types = len(defs)
	for _, d := range defs {
		s.Steps += len(d.Steps)
		s.Arcs += len(d.Arcs)
		for _, st := range d.Steps {
			if st.Role == wf.RoleTransform {
				s.TransformSteps++
			}
			switch st.Kind {
			case wf.StepSend, wf.StepReceive, wf.StepConnection:
				s.MessageSteps++
			}
		}
		for _, a := range d.Arcs {
			s.ConditionTerms += countTerms(a.Condition)
		}
	}
	return s
}

// countTerms counts comparison operators in a condition as a proxy for its
// clause count.
func countTerms(cond string) int {
	if cond == "" {
		return 0
	}
	n := 0
	for _, op := range []string{"==", "!=", ">=", "<="} {
		n += strings.Count(cond, op)
	}
	// Bare > and < not already counted as >= / <=.
	n += strings.Count(cond, ">") - strings.Count(cond, ">=")
	n += strings.Count(cond, "<") - strings.Count(cond, "<=")
	return n
}

// PlanStats summarizes the compiled execution plans an engine currently
// holds: the derived (never persisted) lowering of the deployed model.
type PlanStats struct {
	// Plans is the number of cached compiled plans.
	Plans int
	// Steps and Arcs count across all plans.
	Steps int
	Arcs  int
	// MaxWidth is the largest parallel group any plan exposes — an upper
	// bound on how much intra-instance step parallelism the model admits.
	MaxWidth int
	// Epoch is the engine's plan epoch: it advances on every successful
	// deploy.
	Epoch int64
	// Compiles counts compilations the engine has performed over its
	// lifetime (eager deploys plus lazy recompiles) — the change-impact
	// measure: how much compiler work a model edit triggered.
	Compiles int64
}

// PlanStatsOf computes PlanStats over an engine's live plan cache.
func PlanStatsOf(e *wf.Engine) PlanStats {
	s := PlanStats{Epoch: e.PlanEpoch(), Compiles: e.CompiledPlans()}
	for _, p := range e.Plans() {
		s.Plans++
		s.Steps += p.NumSteps()
		s.Arcs += p.NumArcs()
		if w := p.MaxWidth(); w > s.MaxWidth {
			s.MaxWidth = w
		}
	}
	return s
}

// ChangeImpact describes which workflow types a model change touched.
type ChangeImpact struct {
	// Added, Removed and Modified list workflow type names.
	Added    []string
	Removed  []string
	Modified []string
	// Untouched counts types that survived the change byte-identical —
	// the paper's measure of change locality.
	Untouched int
}

// TouchedTypes is the total number of types the change rewrote or created.
func (c ChangeImpact) TouchedTypes() int {
	return len(c.Added) + len(c.Removed) + len(c.Modified)
}

// fingerprint serializes the definition's structure for comparison.
func fingerprint(d *wf.TypeDef) string {
	cp := d.Clone()
	cp.Version = 0 // version bumps alone are not semantic changes
	b, _ := json.Marshal(cp)
	return string(b)
}

// Diff computes the change impact between two models (each a set of types
// keyed by name).
func Diff(before, after []*wf.TypeDef) ChangeImpact {
	oldFP := map[string]string{}
	for _, d := range before {
		oldFP[d.Name] = fingerprint(d)
	}
	newFP := map[string]string{}
	for _, d := range after {
		newFP[d.Name] = fingerprint(d)
	}
	var impact ChangeImpact
	for name, fp := range newFP {
		old, existed := oldFP[name]
		switch {
		case !existed:
			impact.Added = append(impact.Added, name)
		case old != fp:
			impact.Modified = append(impact.Modified, name)
		default:
			impact.Untouched++
		}
	}
	for name := range oldFP {
		if _, still := newFP[name]; !still {
			impact.Removed = append(impact.Removed, name)
		}
	}
	sort.Strings(impact.Added)
	sort.Strings(impact.Removed)
	sort.Strings(impact.Modified)
	return impact
}
