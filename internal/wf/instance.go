package wf

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/doc"
	"repro/internal/expr"
)

// InstState is the lifecycle state of a workflow instance.
type InstState string

// Instance states.
const (
	InstRunning   InstState = "running"
	InstCompleted InstState = "completed"
	InstFailed    InstState = "failed"
	// InstMigrated marks an instance whose execution moved to another
	// engine (Section 2.1, workflow instance migration); the local copy is
	// retained as a tombstone.
	InstMigrated InstState = "migrated"
)

// StepState is the lifecycle state of one step within an instance.
type StepState string

// Step states.
const (
	StepPending   StepState = "pending"
	StepWaiting   StepState = "waiting" // receive/connection-in parked for delivery
	StepChildRun  StepState = "child-running"
	StepCompleted StepState = "completed"
	StepSkipped   StepState = "skipped" // dead path
	StepFailed    StepState = "failed"
)

// signal is the evaluation state of an arc within an instance.
type signal int

const (
	sigUnset signal = iota
	sigTrue
	sigFalse
)

// StepRun is the runtime state of one step.
type StepRun struct {
	State StepState
	// Child is the child instance ID for subworkflow steps.
	Child string
	// Error records a failure.
	Error string
	// Attempts counts executed attempts of a retryable step (1 on a
	// first-try success).
	Attempts int
}

// Event is one entry of the instance history; Seq orders events totally.
type Event struct {
	Seq  int
	Step string
	What string
}

// Instance is a workflow instance: the unit of execution and, in the
// distribution experiments, the object of migration.
type Instance struct {
	ID      string
	Type    string
	Version int
	State   InstState
	// Data is the instance data (variables and documents).
	Data map[string]any
	// Parent and ParentStep link a subworkflow instance to its caller.
	Parent     string
	ParentStep string
	// History is the ordered event log.
	History []Event
	// Error records the failure cause for failed instances.
	Error string

	// lay names runs and sigs by position: the step runs and the arc
	// signals. An instance the engine started or advanced shares its plan's
	// layout, so the interpreter reads both by plan index; one built
	// elsewhere (decoded, migrated, made by a test) has its own, which the
	// engine converts by name when it first advances the instance.
	lay  *layout
	runs []StepRun
	sigs []signal
	// events is the pooled buffer History grows in while the engine
	// advances the instance; persist copies History out of it.
	events *eventBuf
}

// layout names an instance's step runs and arc signals by position. A plan
// holds one for every instance of its type version: its steps in definition
// order and its distinct arc keys ("from→to") in declaration order, so arcs
// that share a key share a signal.
type layout struct {
	steps []string
	arcs  []string
}

// eventBuf is a reusable history buffer (see Instance.events).
type eventBuf struct{ buf []Event }

var eventPool = sync.Pool{New: func() any { return new(eventBuf) }}

func arcKey(a *Arc) string { return a.From + "→" + a.To }

func (in *Instance) log(step, what string) {
	seq := 1
	if n := len(in.History); n > 0 {
		seq = in.History[n-1].Seq + 1
	}
	in.History = append(in.History, Event{Seq: seq, Step: step, What: what})
}

// StepRunOf returns the run of the named step; ok is false when the
// instance has no such step.
func (in *Instance) StepRunOf(name string) (run StepRun, ok bool) {
	if in.lay != nil {
		if i := slices.Index(in.lay.steps, name); i >= 0 {
			return in.runs[i], in.runs[i].State != ""
		}
	}
	return StepRun{}, false
}

// StepStateOf returns the state of the named step ("" when it has none).
func (in *Instance) StepStateOf(name string) StepState {
	run, _ := in.StepRunOf(name)
	return run.State
}

// RangeSteps calls fn with each step's name and run, in layout order (for
// an instance the engine advanced, definition order), until fn returns
// false.
func (in *Instance) RangeSteps(fn func(name string, run StepRun) bool) {
	if in.lay == nil {
		return
	}
	for i, name := range in.lay.steps {
		if in.runs[i].State != "" && !fn(name, in.runs[i]) {
			return
		}
	}
}

// RangeArcs calls fn with each signaled arc's key ("from→to") and signal (1
// true, 2 false), in layout order, until fn returns false. Arcs that have
// not signaled, or whose signal a loop iteration reset, are left out.
func (in *Instance) RangeArcs(fn func(key string, signal int) bool) {
	if in.lay == nil {
		return
	}
	for i, key := range in.lay.arcs {
		if in.sigs[i] != sigUnset && !fn(key, int(in.sigs[i])) {
			return
		}
	}
}

// SetRuns replaces the instance's step runs and its arc signals (keyed
// "from→to") with the given ones, for an instance built outside the
// engine: decoded from a store or made by a test. It lays both out in name
// order; a run with an empty State and a signal of 0 are left out of the
// walks.
func (in *Instance) SetRuns(runs map[string]StepRun, arcs map[string]int) {
	in.lay = &layout{steps: sortedNames(runs), arcs: sortedNames(arcs)}
	in.runs = make([]StepRun, len(in.lay.steps))
	for i, name := range in.lay.steps {
		in.runs[i] = runs[name]
	}
	in.sigs = make([]signal, len(in.lay.arcs))
	for i, key := range in.lay.arcs {
		in.sigs[i] = signal(arcs[key])
	}
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// stateAt returns the state of plan step i, reading an instance laid out
// for another plan by step name.
func (in *Instance) stateAt(p *Plan, i int) StepState {
	if in.lay == p.lay {
		return in.runs[i].State
	}
	return in.StepStateOf(p.steps[i].name)
}

// Env returns the expression environment that conditions evaluate against.
// It resolves a path when an expression looks it up: first in the current
// document's rule environment (doc.Env, given the data values "source" and
// "target" as its rule parameters), then as a primitive data value
// (string, bool, int, int64, float64) under that key; any other path is
// undefined. It reads the instance at lookup time.
func (in *Instance) Env() expr.Env { return instanceEnv{in} }

type instanceEnv struct{ in *Instance }

// Lookup implements expr.Env.
func (e instanceEnv) Lookup(path string) (expr.Value, bool) {
	data := e.in.Data
	if d, ok := data["document"]; ok {
		source, _ := data["source"].(string)
		target, _ := data["target"].(string)
		if v, ok := doc.Lookup(d, source, target, path); ok {
			return v, true
		}
	}
	switch v := data[path].(type) {
	case string, bool, int, int64, float64:
		return v, true
	}
	return nil, false
}

// Document returns the instance's current business document (data key
// "document").
func (in *Instance) Document() any { return in.Data["document"] }

// SetDocument replaces the instance's current business document.
func (in *Instance) SetDocument(d any) { in.Data["document"] = d }

// newInstance returns a running instance of p's type version, laid out by
// p, with empty data, every step pending and its history growing in a
// pooled buffer.
func newInstance(p *Plan) *Instance {
	in := &Instance{
		Type:    p.def.Name,
		Version: p.def.Version,
		State:   InstRunning,
		Data:    map[string]any{},
		lay:     p.lay,
		runs:    make([]StepRun, len(p.lay.steps)),
		sigs:    make([]signal, len(p.lay.arcs)),
	}
	for i := range in.runs {
		in.runs[i].State = StepPending
	}
	in.takeEvents()
	return in
}

// clone returns the working copy the engine advances into the next
// snapshot: it shares no mutable structure with the instance. It has a
// fresh Data map and its own step runs and arc signals, laid out by p (an
// instance laid out otherwise is converted by step and arc name; steps and
// arcs p does not name are dropped). Its history grows in a pooled buffer
// until persist copies it out. Data values are shared; handlers replace a
// document (SetDocument) rather than editing it in place.
func (in *Instance) clone(p *Plan) *Instance {
	cp := *in
	cp.Data = make(map[string]any, len(in.Data))
	for k, v := range in.Data {
		cp.Data[k] = v
	}
	cp.lay = p.lay
	cp.runs = make([]StepRun, len(p.lay.steps))
	cp.sigs = make([]signal, len(p.lay.arcs))
	if in.lay == p.lay {
		copy(cp.runs, in.runs)
		copy(cp.sigs, in.sigs)
	} else {
		for i, name := range p.lay.steps {
			cp.runs[i], _ = in.StepRunOf(name)
		}
		in.RangeArcs(func(key string, sig int) bool {
			if j := slices.Index(p.lay.arcs, key); j >= 0 {
				cp.sigs[j] = signal(sig)
			}
			return true
		})
	}
	cp.takeEvents()
	cp.History = append(cp.History, in.History...)
	return &cp
}

// takeEvents starts the instance's history in a pooled buffer (empty).
func (in *Instance) takeEvents() {
	in.events = eventPool.Get().(*eventBuf)
	in.History = in.events.buf[:0]
}

// sealHistory copies the history out of its pooled buffer into a slice of
// exactly its length, and returns the buffer to the pool: a stored
// snapshot keeps no append headroom and shares no array a later advance
// writes.
func (in *Instance) sealHistory() {
	if in.events == nil {
		return
	}
	h := make([]Event, len(in.History))
	copy(h, in.History)
	in.events.buf = in.History[:0]
	eventPool.Put(in.events)
	in.events, in.History = nil, h
}

// cloneValue deep-copies the data values that support it; batchView uses it
// to isolate concurrently executing batch members from each other.
func cloneValue(v any) any {
	switch d := v.(type) {
	case *doc.PurchaseOrder:
		return d.Clone()
	case *doc.PurchaseOrderAck:
		return d.Clone()
	case []byte:
		return append([]byte(nil), d...)
	}
	return v
}

// Summary renders a short human-readable state line for tracing.
func (in *Instance) Summary() string {
	steps, done, waiting := 0, 0, 0
	in.RangeSteps(func(_ string, run StepRun) bool {
		steps++
		switch run.State {
		case StepCompleted, StepSkipped:
			done++
		case StepWaiting:
			waiting++
		}
		return true
	})
	return fmt.Sprintf("%s[%s] %s: %d/%d steps done, %d waiting",
		in.Type, in.ID, in.State, done, steps, waiting)
}
