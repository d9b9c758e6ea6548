// Package rules implements the externalized business rules of the paper's
// Section 4.3: trading-partner-specific decision logic defined and executed
// outside the private processes that use it.
//
// A private process contains a generic rule-binding step ("check need for
// approval") that passes source, target and the current document to a named
// rule set; the set selects the applicable rule by (source, target),
// evaluates its condition against the document, and returns the boolean
// result. "As can be seen, changes in the business rules are local to the
// function … and are invisible to the generic workflow step or the private
// process." If no rule applies, evaluation reports the paper's error case.
package rules

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"repro/internal/doc"
	"repro/internal/expr"
)

// Rule is one externally defined business rule.
type Rule struct {
	// Name identifies the rule for tracing and change accounting.
	Name string
	// Source and Target select the rule: they match the corresponding
	// evaluation parameters exactly, or anything when "*" (or empty).
	Source, Target string
	// DocType optionally restricts the rule to one document type.
	DocType doc.DocType
	// Condition is the rule body: an expression over source, target and
	// the document environment, evaluating to the rule's boolean result.
	Condition string

	compiled expr.Node
}

// matches reports whether the rule applies to the given parameters.
func (r *Rule) matches(source, target string, dt doc.DocType) bool {
	if r.Source != "" && r.Source != "*" && r.Source != source {
		return false
	}
	if r.Target != "" && r.Target != "*" && r.Target != target {
		return false
	}
	if r.DocType != "" && r.DocType != dt {
		return false
	}
	return true
}

// ErrNoRuleApplies is the paper's "if none of the business rules apply,
// error case".
var ErrNoRuleApplies = errors.New("rules: no business rule applies")

// Decision is the outcome of a rule set evaluation.
type Decision struct {
	// Result is the boolean outcome of the matched rule.
	Result bool
	// Rule names the rule that produced the result.
	Rule string
}

// Set is a named collection of business rules — the paper's
// "check-need-for-approval" function. Rules are evaluated in registration
// order; the first rule whose selectors match decides.
type Set struct {
	// Name is the set identifier referenced by rule-binding workflow steps.
	Name string

	mu    sync.RWMutex
	rules []*Rule
}

// NewSet creates an empty rule set.
func NewSet(name string) *Set { return &Set{Name: name} }

// Add compiles and appends a rule.
func (s *Set) Add(r Rule) error {
	if r.Name == "" {
		return fmt.Errorf("rules: rule in set %q has no name", s.Name)
	}
	if r.Condition == "" {
		return fmt.Errorf("rules: rule %q has no condition", r.Name)
	}
	n, err := expr.Parse(r.Condition)
	if err != nil {
		return fmt.Errorf("rules: rule %q: %w", r.Name, err)
	}
	r.compiled = n
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, &r)
	return nil
}

// Remove deletes all rules with the given name and reports how many were
// removed (change management: removing a trading partner removes its rules).
func (s *Set) Remove(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.rules[:0]
	removed := 0
	for _, r := range s.rules {
		if r.Name == name {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	s.rules = kept
	return removed
}

// Len reports the number of rules (a model-size metric).
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rules)
}

// Names lists rule names in evaluation order.
func (s *Set) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.rules))
	for i, r := range s.rules {
		out[i] = r.Name
	}
	return out
}

// Clone returns a copy of the set that Add and Remove can change without
// changing the original: copy-on-write callers clone the set, change the
// clone and install it via Registry.Replace, so evaluations of the
// original never observe a half-applied change. Rules are never written
// after Add, so the copy shares them.
func (s *Set) Clone() *Set {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Set{Name: s.Name, rules: slices.Clone(s.rules)}
}

// Selectors calls fn with the selectors of each rule, in evaluation order.
func (s *Set) Selectors(fn func(source, target string, dt doc.DocType)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.rules {
		fn(r.Source, r.Target, r.DocType)
	}
}

// Evaluate selects the applicable rule for (source, target, document) and
// returns its boolean result. The document is exposed to conditions through
// doc.Env, which resolves only the paths the matched rule reads. It returns
// ErrNoRuleApplies when no rule's selectors match.
func (s *Set) Evaluate(source, target string, document any) (Decision, error) {
	dt, err := doc.TypeOf(document)
	if err != nil {
		return Decision{}, fmt.Errorf("rules: set %q: %w", s.Name, err)
	}
	env, err := doc.Env(document, source, target)
	if err != nil {
		return Decision{}, fmt.Errorf("rules: set %q: %w", s.Name, err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.rules {
		if !r.matches(source, target, dt) {
			continue
		}
		result, err := expr.EvalBool(r.compiled, env)
		if err != nil {
			return Decision{}, fmt.Errorf("rules: rule %q: %w", r.Name, err)
		}
		return Decision{Result: result, Rule: r.Name}, nil
	}
	return Decision{}, fmt.Errorf("%w: set %q, source %q, target %q, doc %s",
		ErrNoRuleApplies, s.Name, source, target, dt)
}

// Registry holds rule sets by name; it is the enterprise's external rule
// store that rule-binding workflow steps call into.
type Registry struct {
	mu   sync.RWMutex
	sets map[string]*Set
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{sets: map[string]*Set{}} }

// Set returns the named rule set, creating it if absent.
func (g *Registry) Set(name string) *Set {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.sets[name]
	if !ok {
		s = NewSet(name)
		g.sets[name] = s
	}
	return s
}

// Clone returns a registry holding the same sets: replacing a set in the
// clone leaves the original registry as it was.
func (g *Registry) Clone() *Registry {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return &Registry{sets: maps.Clone(g.sets)}
}

// Replace atomically installs the set under its name and returns the set
// it displaced (nil if none). The displaced set keeps working for callers
// that already hold it — the basis of version-pinned rule evaluation.
func (g *Registry) Replace(s *Set) *Set {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.sets[s.Name]
	g.sets[s.Name] = s
	return old
}

// Lookup returns the named set without creating it.
func (g *Registry) Lookup(name string) (*Set, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, ok := g.sets[name]
	return s, ok
}

// Evaluate runs the named set; unknown sets are the error case as well.
func (g *Registry) Evaluate(set, source, target string, document any) (Decision, error) {
	s, ok := g.Lookup(set)
	if !ok {
		return Decision{}, fmt.Errorf("%w: unknown rule set %q", ErrNoRuleApplies, set)
	}
	return s.Evaluate(source, target, document)
}

// TotalRules counts rules across all sets (a model-size metric).
func (g *Registry) TotalRules() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, s := range g.sets {
		n += s.Len()
	}
	return n
}

// SetNames lists the registered set names, sorted.
func (g *Registry) SetNames() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.sets))
	for k := range g.sets {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
