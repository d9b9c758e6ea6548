package wf

import (
	"fmt"

	"repro/internal/expr"
)

// Plan is the compiled, immutable execution form of a validated workflow
// type: index-addressed steps with precomputed successor/predecessor
// adjacency, join fan-in counts, pre-resolved handler functions,
// timeout-guard links and parallel-group annotations. The engine interprets
// plans instead of re-deriving all of this from the TypeDef on every
// advance pass.
//
// Plans are derived artifacts: they are compiled from the TypeDef at deploy
// time (or lazily for types loaded from a shared store) and are NEVER
// persisted — the workflow database stores only TypeDefs and Instances, and
// a restart recompiles plans from the stored definitions. Keeping plans out
// of the store means a compiler change never invalidates durable state.
type Plan struct {
	def   *TypeDef
	key   string
	steps []planStep
	index map[string]int
	// lay is the layout every instance of the plan shares: step i's run is
	// runs[i], and arc a's signal sigs[a.sig].
	lay *layout
	// groups buckets step indices by their longest-path depth from the
	// entries: steps in one group have no control-flow dependency on each
	// other and are the candidates for concurrent execution.
	groups [][]int
}

// planStep is one compiled step: the definition plus everything the
// interpreter would otherwise recompute per pass.
type planStep struct {
	def  *StepDef
	name string
	idx  int
	// handler is the pre-resolved task-handler slot. It is nil only in a
	// plan compiled without a handler registry, which no engine runs: the
	// engine compiles every type against its own registry. The indirection
	// keeps re-registration working: swapping the slot's function rebinds
	// every compiled plan at once.
	handler *handlerSlot
	// out and in are the step's outgoing and incoming arcs in definition
	// order; in includes loop arcs (the loop reset needs them) which join
	// evaluation skips.
	out []planArc
	in  []planArc
	// fanIn counts the non-loop incoming arcs (the join width).
	fanIn int
	// portMsg is the history entry a port step logs when it sends or parks:
	// "sent on port P", "waiting on port P" and so on; empty otherwise.
	portMsg string
	join    JoinKind
	// isTimeout marks a step that is the OnTimeout branch of a guard;
	// guard is that guard's index (-1 otherwise). timeout is the index of
	// this step's own OnTimeout branch (-1 when none).
	isTimeout bool
	guard     int
	timeout   int
	group     int
}

// planArc is one compiled control connector: endpoint indices, the parsed
// condition and the position of its signal in the plan's layout.
type planArc struct {
	src, dst  int
	cond      expr.Node
	condition string
	loop      bool
	sig       int
}

// Key identifies the plan's type version (name@version).
func (p *Plan) Key() string { return p.key }

// Def returns the workflow type the plan was compiled from.
func (p *Plan) Def() *TypeDef { return p.def }

// NumSteps reports the number of compiled steps.
func (p *Plan) NumSteps() int { return len(p.steps) }

// NumArcs reports the number of compiled control connectors.
func (p *Plan) NumArcs() int { return len(p.def.Arcs) }

// Groups returns the parallel groups as step-name lists: steps within one
// group are control-flow independent of each other (same longest-path depth
// from the entries) and may run concurrently when their data accesses are
// disjoint.
func (p *Plan) Groups() [][]string {
	out := make([][]string, len(p.groups))
	for g, idxs := range p.groups {
		names := make([]string, len(idxs))
		for i, idx := range idxs {
			names[i] = p.steps[idx].name
		}
		out[g] = names
	}
	return out
}

// MaxWidth reports the size of the widest parallel group — the plan's
// theoretical intra-instance parallelism.
func (p *Plan) MaxWidth() int {
	w := 0
	for _, g := range p.groups {
		if len(g) > w {
			w = len(g)
		}
	}
	return w
}

// computeGroups buckets steps by longest-path depth over non-loop arcs.
// Timeout branches sit one level below their guard (they activate when the
// guard expires) unless their own incoming arcs place them deeper.
func (p *Plan) computeGroups() {
	depth := make([]int, len(p.steps))
	seen := make([]int, len(p.steps)) // 0 white, 1 done
	var walk func(i int) int
	walk = func(i int) int {
		if seen[i] == 1 {
			return depth[i]
		}
		seen[i] = 1 // acyclic over non-loop arcs by validation
		d := 0
		for _, a := range p.steps[i].in {
			if a.loop {
				continue
			}
			if pd := walk(a.src) + 1; pd > d {
				d = pd
			}
		}
		depth[i] = d
		return d
	}
	for i := range p.steps {
		walk(i)
	}
	for i := range p.steps {
		ps := &p.steps[i]
		if ps.isTimeout && ps.guard >= 0 {
			if gd := depth[ps.guard] + 1; gd > depth[i] {
				depth[i] = gd
			}
		}
	}
	max := 0
	for i := range p.steps {
		p.steps[i].group = depth[i]
		if depth[i] > max {
			max = depth[i]
		}
	}
	p.groups = make([][]int, max+1)
	for i := range p.steps {
		d := depth[i]
		p.groups[d] = append(p.groups[d], i)
	}
}

func (p *Plan) String() string {
	return fmt.Sprintf("plan %s: %d steps, %d arcs, %d groups (max width %d)",
		p.key, p.NumSteps(), p.NumArcs(), len(p.groups), p.MaxWidth())
}
