package wf

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
)

// PlanErrorClass names one class of model defect the compiler detects. Each
// class is something that, before compilation existed, only surfaced at
// runtime in the middle of an exchange.
type PlanErrorClass string

// Compile-time defect classes.
const (
	// PlanUnknownHandler: a task step names a handler the registry does not
	// know (previously: the step failed at execution with "no handler
	// registered").
	PlanUnknownHandler PlanErrorClass = "unknown-handler"
	// PlanUnroutablePort: a send/receive/connection step uses a port the
	// deployment environment cannot route or deliver to (previously: the
	// hub failed the exchange with "unrouteable port" or ErrNoOutbound).
	PlanUnroutablePort PlanErrorClass = "unroutable-port"
	// PlanUnsatisfiableJoin: a JoinAll step joins arcs from one source
	// whose conditions are mutually exclusive, so the join can never fire
	// (previously: the step silently dead-pathed on every instance).
	PlanUnsatisfiableJoin PlanErrorClass = "unsatisfiable-join"
	// PlanUnreachableStep: no path from any entry step (or timeout
	// activation) reaches the step (previously: the instance completed with
	// the step forever pending — or never completed at all).
	PlanUnreachableStep PlanErrorClass = "unreachable-step"
	// PlanDeadTimeoutBranch: an OnTimeout branch is reachable from its
	// guard through normal control flow, violating the documented contract
	// that the branch is the *alternative* to the guard's continuation.
	PlanDeadTimeoutBranch PlanErrorClass = "dead-timeout-branch"
)

// PlanError is one typed compile-time model defect.
type PlanError struct {
	Class  PlanErrorClass
	Type   string // type key, name@version
	Step   string
	Detail string
}

func (e *PlanError) Error() string {
	return fmt.Sprintf("wf: plan %s: step %q: %s: %s", e.Type, e.Step, e.Class, e.Detail)
}

// PlanErrors aggregates every defect found in one compilation; Compile
// reports all of them, not just the first.
type PlanErrors []*PlanError

func (e PlanErrors) Error() string {
	parts := make([]string, len(e))
	for i, pe := range e {
		parts[i] = pe.Error()
	}
	return strings.Join(parts, "; ")
}

// ByClass filters the errors down to one defect class.
func (e PlanErrors) ByClass(c PlanErrorClass) PlanErrors {
	var out PlanErrors
	for _, pe := range e {
		if pe.Class == c {
			out = append(out, pe)
		}
	}
	return out
}

// PortChecker validates the port of a send/receive/connection step against
// the deployment environment (the hub knows which ports it routes and which
// it delivers to). A nil error means the port is fine.
type PortChecker func(s *StepDef) error

// CompileDeps are the environment dependencies compilation validates
// against. Nil fields skip the corresponding check: a plan compiled without
// a handler registry leaves its task steps unresolved (it can be inspected,
// not run; an engine compiles against its own registry), and one compiled
// without a port checker accepts any port.
type CompileDeps struct {
	Handlers *Handlers
	Ports    PortChecker
}

// Compile lowers a validated TypeDef into an immutable Plan, reporting
// every model defect as a typed PlanError. The TypeDef must have passed
// Validate first (Engine.Deploy does both); compiling an un-validated
// definition is rejected outright rather than panicking on the missing
// compiled state.
func Compile(t *TypeDef, deps CompileDeps) (*Plan, error) {
	if t.steps == nil || t.incoming == nil || t.outgoing == nil {
		return nil, fmt.Errorf("wf: compile %q: type is not validated (run Validate, or deploy through an engine)", t.Name)
	}
	p := &Plan{
		def:   t,
		key:   t.Key(),
		steps: make([]planStep, len(t.Steps)),
		index: make(map[string]int, len(t.Steps)),
		lay:   &layout{steps: make([]string, len(t.Steps))},
	}
	for i := range t.Steps {
		s := &t.Steps[i]
		p.index[s.Name] = i
		p.lay.steps[i] = s.Name
		p.steps[i] = planStep{
			def: s, name: s.Name, idx: i,
			join: s.join(), guard: -1, timeout: -1,
			portMsg: portMessage(s),
		}
	}
	// Validate indexed every arc, so each has known endpoints: out and in
	// list a step's arcs in declaration order, and arcs that share a key
	// share a signal.
	for i := range t.Arcs {
		a := &t.Arcs[i]
		key := arcKey(a)
		sig := slices.Index(p.lay.arcs, key)
		if sig < 0 {
			sig = len(p.lay.arcs)
			p.lay.arcs = append(p.lay.arcs, key)
		}
		pa := planArc{
			src: p.index[a.From], dst: p.index[a.To],
			cond: a.cond, condition: a.Condition,
			loop: a.Loop, sig: sig,
		}
		p.steps[pa.src].out = append(p.steps[pa.src].out, pa)
		dst := &p.steps[pa.dst]
		dst.in = append(dst.in, pa)
		if !a.Loop {
			dst.fanIn++
		}
	}
	for i := range t.Steps {
		s := &t.Steps[i]
		ps := &p.steps[i]
		if guard, ok := t.timeoutTarget[s.Name]; ok {
			ps.isTimeout = true
			ps.guard = p.index[guard]
		}
		if s.OnTimeout != "" {
			ps.timeout = p.index[s.OnTimeout]
		}
	}
	p.computeGroups()

	var errs PlanErrors
	errs = append(errs, checkHandlers(p, deps.Handlers)...)
	errs = append(errs, checkPorts(p, deps.Ports)...)
	errs = append(errs, checkJoins(p)...)
	errs = append(errs, checkReachability(p)...)
	errs = append(errs, checkTimeoutBranches(p)...)
	if len(errs) > 0 {
		return nil, errs
	}
	return p, nil
}

// portMessage is the history entry a port step logs when it sends or parks.
func portMessage(s *StepDef) string {
	switch {
	case s.Kind == StepSend:
		return "sent on port " + s.Port
	case s.Kind == StepReceive:
		return "waiting on port " + s.Port
	case s.Kind == StepConnection && s.Dir == DirOut:
		return "passed control to binding via port " + s.Port
	case s.Kind == StepConnection:
		return "waiting for binding on port " + s.Port
	}
	return ""
}

// checkHandlers resolves every task step's handler against the registry,
// caching the handler slot on the plan step.
func checkHandlers(p *Plan, reg *Handlers) PlanErrors {
	if reg == nil {
		return nil
	}
	var errs PlanErrors
	for i := range p.steps {
		ps := &p.steps[i]
		if ps.def.Kind != StepTask {
			continue
		}
		slot, ok := reg.slot(ps.def.Handler)
		if !ok {
			errs = append(errs, &PlanError{
				Class: PlanUnknownHandler, Type: p.key, Step: ps.name,
				Detail: fmt.Sprintf("no handler %q registered", ps.def.Handler),
			})
			continue
		}
		ps.handler = slot
	}
	return errs
}

// checkPorts validates every ported step against the environment's checker.
func checkPorts(p *Plan, check PortChecker) PlanErrors {
	if check == nil {
		return nil
	}
	var errs PlanErrors
	for i := range p.steps {
		ps := &p.steps[i]
		switch ps.def.Kind {
		case StepSend, StepReceive, StepConnection:
			if err := check(ps.def); err != nil {
				errs = append(errs, &PlanError{
					Class: PlanUnroutablePort, Type: p.key, Step: ps.name,
					Detail: err.Error(),
				})
			}
		}
	}
	return errs
}

// checkJoins flags JoinAll steps that can never fire: two non-loop arcs
// from the same source whose conditions are syntactically mutually
// exclusive equality tests over one reference (x == a and x == b, a ≠ b).
// Constant-false conditions are NOT flagged — a single false arc is the
// legitimate way to model a branch that dead-paths, and dead-path
// elimination skips the join cleanly. Only a join that structurally
// requires two contradictory facts at once is a defect.
func checkJoins(p *Plan) PlanErrors {
	var errs PlanErrors
	for i := range p.steps {
		ps := &p.steps[i]
		if ps.join != JoinAll || ps.fanIn < 2 {
			continue
		}
		bySrc := map[int][]*planArc{}
		for j := range ps.in {
			a := &ps.in[j]
			if a.loop {
				continue
			}
			bySrc[a.src] = append(bySrc[a.src], a)
		}
		for _, arcs := range bySrc {
			if pa, pb, ok := exclusivePair(arcs); ok {
				errs = append(errs, &PlanError{
					Class: PlanUnsatisfiableJoin, Type: p.key, Step: ps.name,
					Detail: fmt.Sprintf("JoinAll requires mutually exclusive conditions %q and %q from step %q",
						pa.condition, pb.condition, p.steps[pa.src].name),
				})
				break
			}
		}
	}
	return errs
}

// exclusivePair finds two arcs with contradictory equality conditions.
func exclusivePair(arcs []*planArc) (a, b *planArc, ok bool) {
	for i := 0; i < len(arcs); i++ {
		ri, vi, oki := eqRefLiteral(arcs[i].cond)
		if !oki {
			continue
		}
		for j := i + 1; j < len(arcs); j++ {
			rj, vj, okj := eqRefLiteral(arcs[j].cond)
			if okj && ri == rj && vi != vj {
				return arcs[i], arcs[j], true
			}
		}
	}
	return nil, nil, false
}

// eqRefLiteral recognizes the syntactic shape "ref == literal" (either
// side) and returns the reference path and literal value.
func eqRefLiteral(n expr.Node) (ref string, val any, ok bool) {
	bin, isBin := n.(*expr.Binary)
	if !isBin || bin.Op != expr.EQ {
		return "", nil, false
	}
	if r, isRef := bin.L.(*expr.Ref); isRef {
		if l, isLit := bin.R.(*expr.Literal); isLit {
			return r.Path, l.Val, true
		}
	}
	if r, isRef := bin.R.(*expr.Ref); isRef {
		if l, isLit := bin.L.(*expr.Literal); isLit {
			return r.Path, l.Val, true
		}
	}
	return "", nil, false
}

// checkReachability walks the graph from the entry steps (no non-loop
// incoming arcs, not a timeout branch), treating a guard's OnTimeout branch
// as reachable once the guard is: every step an instance could ever
// activate. Anything left over can never run — it would leave every
// instance permanently unfinished or silently pending.
func checkReachability(p *Plan) PlanErrors {
	visited := make([]bool, len(p.steps))
	var frontier []int
	for i := range p.steps {
		if p.steps[i].fanIn == 0 && !p.steps[i].isTimeout {
			visited[i] = true
			frontier = append(frontier, i)
		}
	}
	for len(frontier) > 0 {
		i := frontier[0]
		frontier = frontier[1:]
		ps := &p.steps[i]
		for j := range ps.out {
			if d := ps.out[j].dst; !visited[d] {
				visited[d] = true
				frontier = append(frontier, d)
			}
		}
		if ps.timeout >= 0 && !visited[ps.timeout] {
			visited[ps.timeout] = true
			frontier = append(frontier, ps.timeout)
		}
	}
	var errs PlanErrors
	for i := range p.steps {
		if !visited[i] {
			errs = append(errs, &PlanError{
				Class: PlanUnreachableStep, Type: p.key, Step: p.steps[i].name,
				Detail: "not reachable from any entry step or timeout activation",
			})
		}
	}
	// A timeout branch activates only through its guard expiring while it
	// waits. A guard that is statically dead-pathed on every instance never
	// waits, so its branch can never activate — and, worse, is never retired
	// either: every instance hangs with the branch forever pending.
	for i := range p.steps {
		ps := &p.steps[i]
		if !ps.isTimeout || ps.guard < 0 || !visited[i] {
			continue
		}
		if g := &p.steps[ps.guard]; guardStaticallyDead(g) {
			errs = append(errs, &PlanError{
				Class: PlanUnreachableStep, Type: p.key, Step: ps.name,
				Detail: fmt.Sprintf("timeout branch can never activate: guard %q is dead-pathed on every instance", g.name),
			})
		}
	}
	return errs
}

// guardStaticallyDead reports whether a step's join can never fire because
// of constant-false arc conditions: a JoinAll target with any constant-false
// incoming arc, or a JoinAny target all of whose incoming arcs are constant
// false.
func guardStaticallyDead(ps *planStep) bool {
	if ps.fanIn == 0 {
		return false
	}
	nFalse := 0
	for i := range ps.in {
		a := &ps.in[i]
		if a.loop {
			continue
		}
		if lit, ok := a.cond.(*expr.Literal); ok && lit.Val == false {
			nFalse++
		}
	}
	if ps.join == JoinAny {
		return nFalse == ps.fanIn
	}
	return nFalse > 0
}

// checkTimeoutBranches enforces the StepDef.OnTimeout contract: the branch
// must not be reachable from its guard through normal (non-loop) control
// flow — it is the alternative to the guard's continuation, and a branch on
// the normal path would be skipped as "guard completed in time" exactly
// when it was about to run.
func checkTimeoutBranches(p *Plan) PlanErrors {
	var errs PlanErrors
	for i := range p.steps {
		ps := &p.steps[i]
		if ps.timeout < 0 {
			continue
		}
		visited := make([]bool, len(p.steps))
		frontier := []int{i}
		visited[i] = true
		for len(frontier) > 0 {
			n := frontier[0]
			frontier = frontier[1:]
			for _, a := range p.steps[n].out {
				if !a.loop && !visited[a.dst] {
					visited[a.dst] = true
					frontier = append(frontier, a.dst)
				}
			}
		}
		if visited[ps.timeout] {
			errs = append(errs, &PlanError{
				Class: PlanDeadTimeoutBranch, Type: p.key, Step: p.steps[ps.timeout].name,
				Detail: fmt.Sprintf("timeout branch is reachable from its guard %q through normal control flow", ps.name),
			})
		}
	}
	return errs
}
