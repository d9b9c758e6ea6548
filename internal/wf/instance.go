package wf

import (
	"fmt"

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
	// Steps is the per-step runtime state.
	Steps map[string]*StepRun
	// arcs holds arc signals keyed "from→to".
	Arcs map[string]int
	// Parent and ParentStep link a subworkflow instance to its caller.
	Parent     string
	ParentStep string
	// History is the ordered event log.
	History []Event
	// Error records the failure cause for failed instances.
	Error string
}

func arcKey(a *Arc) string { return a.From + "→" + a.To }

func (in *Instance) log(step, what string) {
	seq := 1
	if n := len(in.History); n > 0 {
		seq = in.History[n-1].Seq + 1
	}
	in.History = append(in.History, Event{Seq: seq, Step: step, What: what})
}

// StepStateOf returns the state of the named step.
func (in *Instance) StepStateOf(name string) StepState {
	if r, ok := in.Steps[name]; ok {
		return r.State
	}
	return ""
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

// clone returns a copy of the instance that shares no mutable structure
// with it: fresh Data, Steps and Arcs maps, its own step runs and its own
// history. Data values are shared; handlers replace a document
// (SetDocument) rather than editing it in place.
func (in *Instance) clone() *Instance {
	cp := *in
	cp.Data = make(map[string]any, len(in.Data))
	for k, v := range in.Data {
		cp.Data[k] = v
	}
	cp.Steps = make(map[string]*StepRun, len(in.Steps))
	runs := make([]StepRun, 0, len(in.Steps))
	for k, v := range in.Steps {
		runs = append(runs, *v)
		cp.Steps[k] = &runs[len(runs)-1]
	}
	cp.Arcs = make(map[string]int, len(in.Arcs))
	for k, v := range in.Arcs {
		cp.Arcs[k] = v
	}
	cp.History = append([]Event(nil), in.History...)
	return &cp
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
	done, waiting := 0, 0
	for _, s := range in.Steps {
		switch s.State {
		case StepCompleted, StepSkipped:
			done++
		case StepWaiting:
			waiting++
		}
	}
	return fmt.Sprintf("%s[%s] %s: %d/%d steps done, %d waiting",
		in.Type, in.ID, in.State, done, len(in.Steps), waiting)
}
