// Package wf implements the workflow management substrate of the paper
// (Section 2.1): workflow types composed of steps, control-flow arcs with
// conditions, data flow through typed instance data, subworkflows, and a
// workflow engine that interprets instances against a workflow database.
//
// The execution semantics follow the classical WfMC/FlowMark model the
// paper assumes:
//
//   - a workflow instance is created from a workflow type and advanced by
//     the engine, with its state persisted to the workflow database between
//     transitions (Figure 4);
//   - control connectors carry conditions evaluated over instance data;
//     false conditions trigger dead-path elimination so AND-joins never
//     deadlock on skipped branches;
//   - subworkflow steps start a child instance and complete only when the
//     child completes — "subworkflows cannot return control without being
//     finished at the same time" (Section 3.1), the property that makes
//     subworkflows inadequate for message-exchange encapsulation;
//   - send/receive steps interact with the world through named ports;
//     receive steps park the instance until a message is delivered.
package wf

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
)

// StepKind classifies workflow steps.
type StepKind string

// Step kinds.
const (
	// StepTask runs a registered handler (an elementary workflow step).
	StepTask StepKind = "task"
	// StepSubworkflow starts a child instance of another workflow type and
	// waits for its completion.
	StepSubworkflow StepKind = "subworkflow"
	// StepSend emits the instance's current document through a port.
	StepSend StepKind = "send"
	// StepReceive waits until a payload is delivered to its port.
	StepReceive StepKind = "receive"
	// StepConnection is the paper's connection step (Section 4.1): it
	// passes the current document and control to a binding (outbound), or
	// waits for a document from a binding (inbound). Outbound connection
	// steps behave like sends that also fork control; inbound ones behave
	// like receives that also join control.
	StepConnection StepKind = "connection"
	// StepNoop does nothing; used for pure routing nodes.
	StepNoop StepKind = "noop"
)

// JoinKind selects the join behavior of a step with multiple incoming arcs.
type JoinKind string

// Join kinds.
const (
	// JoinAll activates the step when every incoming arc signaled true;
	// the step is skipped when any incoming arc signaled false.
	JoinAll JoinKind = "all"
	// JoinAny activates the step on the first incoming arc that signals
	// true; it is skipped when all incoming arcs signaled false.
	JoinAny JoinKind = "any"
)

// Direction distinguishes the two halves of connection steps.
type Direction string

// Connection directions.
const (
	DirOut Direction = "out" // instance → binding
	DirIn  Direction = "in"  // binding → instance
)

// Step roles: semantic step classifications orthogonal to Kind. A role is
// declared by the model builder; analysis tools (package metrics) rely on
// it instead of guessing from step names.
const (
	// RoleTransform marks a step whose handler performs a document format
	// transformation — the paper's per-combination "Transform X to Y" work
	// the advanced architecture confines to bindings.
	RoleTransform = "transform"
)

// StepDef defines one step of a workflow type.
type StepDef struct {
	// Name is unique within the type.
	Name string
	// Kind selects the behavior.
	Kind StepKind
	// Role optionally classifies the step semantically (e.g. RoleTransform);
	// the engine ignores it, analysis tooling keys off it.
	Role string
	// Handler names the registered handler for task steps.
	Handler string
	// Subworkflow names the child workflow type for subworkflow steps.
	Subworkflow string
	// Port names the message port for send/receive/connection steps.
	Port string
	// Dir is the direction of a connection step.
	Dir Direction
	// Join selects the join behavior; empty means JoinAll.
	Join JoinKind
	// DataKey, on receive/connection-in steps, names the instance data key
	// the delivered payload is stored under; empty means "document".
	DataKey string
	// Message optionally names the logical business message a send or
	// receive step carries ("PO", "POA"). It is metadata used by the
	// conformance checker to verify that two enterprises' processes agree
	// on message sequencing; the engine ignores it.
	Message string
	// OnTimeout, on receive/connection-in steps, names the step to
	// activate when the wait is expired via Engine.Expire — the paper's
	// "some [public processes] implement time-out behavior". The named
	// step must not be reachable through normal control flow from this
	// step (it is the alternative branch).
	OnTimeout string
	// Retries, on task steps, is the number of additional handler
	// attempts after a failure before the step (and instance) fails — a
	// guard against the paper's "endlessly repeating error conditions":
	// transient faults retry a bounded number of times, then surface.
	Retries int
	// Reads and Writes optionally declare the instance data keys a task
	// step's handler touches. Declared task steps with disjoint accesses
	// may execute concurrently under WithStepParallelism; a task step that
	// declares nothing always runs serially. The engine copies back only
	// the declared Writes keys after a concurrent execution, so the
	// declaration is a contract, not a hint.
	Reads  []string
	Writes []string
}

func (s *StepDef) join() JoinKind {
	if s.Join == "" {
		return JoinAll
	}
	return s.Join
}

// Arc is a control connector between two steps, optionally conditioned on
// instance data, optionally a loop-back edge.
type Arc struct {
	From, To string
	// Condition is an expression over instance data; empty means true.
	Condition string
	// Loop marks a back edge: when it fires, the engine resets the target
	// step and everything downstream of it for a new iteration.
	Loop bool

	cond expr.Node // compiled condition
}

// TypeDef is a workflow type (workflow definition). Types are immutable
// once deployed; changes deploy a new version.
type TypeDef struct {
	// Name identifies the type; Version distinguishes revisions.
	Name    string
	Version int
	// Steps and Arcs define the graph.
	Steps []StepDef
	Arcs  []Arc

	steps    map[string]*StepDef
	incoming map[string][]*Arc
	outgoing map[string][]*Arc
	// timeoutTarget maps a timeout-branch step to the waiting step that
	// guards it: the branch runs only when its guard expires, and is
	// skipped when the guard completes normally.
	timeoutTarget map[string]string
}

// Validate checks structural well-formedness and compiles arc conditions.
// It must be called (directly or via Engine.Deploy) before execution.
func (t *TypeDef) Validate() error {
	var problems []string
	if t.Name == "" {
		problems = append(problems, "missing type name")
	}
	t.steps = make(map[string]*StepDef, len(t.Steps))
	for i := range t.Steps {
		s := &t.Steps[i]
		if s.Name == "" {
			problems = append(problems, fmt.Sprintf("step %d: missing name", i))
			continue
		}
		if _, dup := t.steps[s.Name]; dup {
			problems = append(problems, fmt.Sprintf("duplicate step name %q", s.Name))
			continue
		}
		t.steps[s.Name] = s
		switch s.Kind {
		case StepTask:
			if s.Handler == "" {
				problems = append(problems, fmt.Sprintf("task step %q: missing handler", s.Name))
			}
		case StepSubworkflow:
			if s.Subworkflow == "" {
				problems = append(problems, fmt.Sprintf("subworkflow step %q: missing subworkflow type", s.Name))
			}
		case StepSend, StepReceive:
			if s.Port == "" {
				problems = append(problems, fmt.Sprintf("%s step %q: missing port", s.Kind, s.Name))
			}
		case StepConnection:
			if s.Port == "" {
				problems = append(problems, fmt.Sprintf("connection step %q: missing port", s.Name))
			}
			if s.Dir != DirIn && s.Dir != DirOut {
				problems = append(problems, fmt.Sprintf("connection step %q: direction must be in or out", s.Name))
			}
		case StepNoop:
		default:
			problems = append(problems, fmt.Sprintf("step %q: unknown kind %q", s.Name, s.Kind))
		}
	}
	t.timeoutTarget = map[string]string{}
	for i := range t.Steps {
		s := &t.Steps[i]
		if s.OnTimeout == "" {
			continue
		}
		if s.Kind != StepReceive && !(s.Kind == StepConnection && s.Dir == DirIn) {
			problems = append(problems, fmt.Sprintf("step %q: OnTimeout is only valid on waiting steps", s.Name))
			continue
		}
		if _, ok := t.steps[s.OnTimeout]; !ok {
			problems = append(problems, fmt.Sprintf("step %q: unknown timeout step %q", s.Name, s.OnTimeout))
			continue
		}
		if guard, dup := t.timeoutTarget[s.OnTimeout]; dup {
			problems = append(problems, fmt.Sprintf("step %q is the timeout branch of both %q and %q", s.OnTimeout, guard, s.Name))
			continue
		}
		t.timeoutTarget[s.OnTimeout] = s.Name
	}
	t.incoming = make(map[string][]*Arc)
	t.outgoing = make(map[string][]*Arc)
	for i := range t.Arcs {
		a := &t.Arcs[i]
		if _, ok := t.steps[a.From]; !ok {
			problems = append(problems, fmt.Sprintf("arc %d: unknown source step %q", i, a.From))
			continue
		}
		if _, ok := t.steps[a.To]; !ok {
			problems = append(problems, fmt.Sprintf("arc %d: unknown target step %q", i, a.To))
			continue
		}
		if a.Condition != "" {
			n, err := expr.Parse(a.Condition)
			if err != nil {
				problems = append(problems, fmt.Sprintf("arc %s→%s: bad condition: %v", a.From, a.To, err))
				continue
			}
			a.cond = n
		}
		t.outgoing[a.From] = append(t.outgoing[a.From], a)
		t.incoming[a.To] = append(t.incoming[a.To], a)
	}
	if len(problems) == 0 {
		if err := t.checkAcyclic(); err != nil {
			problems = append(problems, err.Error())
		}
	}
	if len(t.Steps) == 0 {
		problems = append(problems, "workflow type has no steps")
	}
	if len(problems) > 0 {
		return fmt.Errorf("wf: invalid type %q: %s", t.Name, strings.Join(problems, "; "))
	}
	return nil
}

// checkAcyclic verifies the graph without loop arcs is a DAG (loop arcs are
// the only sanctioned back edges). Roots are visited in declaration order so
// the same defective type always reports the same cycle — error messages are
// stable run to run and safe to pin in tests.
func (t *TypeDef) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(t.Steps))
	var visit func(string) error
	visit = func(n string) error {
		color[n] = gray
		for _, a := range t.outgoing[n] {
			if a.Loop {
				continue
			}
			switch color[a.To] {
			case gray:
				return fmt.Errorf("control-flow cycle through %q→%q (mark back edges with Loop)", a.From, a.To)
			case white:
				if err := visit(a.To); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	for i := range t.Steps {
		name := t.Steps[i].Name
		if color[name] == white {
			if err := visit(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// StartSteps lists steps with no non-loop incoming arcs — the entry points.
func (t *TypeDef) StartSteps() []string {
	var out []string
	for i := range t.Steps {
		name := t.Steps[i].Name
		n := 0
		for _, a := range t.incoming[name] {
			if !a.Loop {
				n++
			}
		}
		if n == 0 {
			out = append(out, name)
		}
	}
	return out
}

// Step returns the named step definition.
func (t *TypeDef) Step(name string) (*StepDef, bool) {
	s, ok := t.steps[name]
	return s, ok
}

// Key identifies a type version in the workflow database.
func (t *TypeDef) Key() string { return t.Name + "@" + strconv.Itoa(t.Version) }

// CountSteps reports the number of steps; the complexity experiments use it
// as a model-size metric.
func (t *TypeDef) CountSteps() int { return len(t.Steps) }

// CountArcs reports the number of control connectors.
func (t *TypeDef) CountArcs() int { return len(t.Arcs) }

// Clone returns a deep copy of the definition WITHOUT compiled state: arc
// conditions, step/arc indexes and timeout links are all rebuilt by
// Validate, and the copy is unusable until the caller runs it (directly or
// via Engine.Deploy, which validates and compiles). Compile enforces this
// contract — handing it an un-validated clone is rejected with a clear
// error rather than panicking on the missing indexes.
func (t *TypeDef) Clone() *TypeDef {
	cp := &TypeDef{Name: t.Name, Version: t.Version}
	cp.Steps = append([]StepDef(nil), t.Steps...)
	for i := range cp.Steps {
		cp.Steps[i].Reads = append([]string(nil), t.Steps[i].Reads...)
		cp.Steps[i].Writes = append([]string(nil), t.Steps[i].Writes...)
	}
	cp.Arcs = make([]Arc, len(t.Arcs))
	for i, a := range t.Arcs {
		cp.Arcs[i] = Arc{From: a.From, To: a.To, Condition: a.Condition, Loop: a.Loop}
	}
	return cp
}
