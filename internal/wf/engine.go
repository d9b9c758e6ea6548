package wf

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
)

// Handler is the implementation of a task step. Handlers may read and write
// instance data; they must not block on external events (use receive steps
// for that).
type Handler func(ctx context.Context, in *Instance, step *StepDef) error

// Handlers is a registry of task-step implementations. Each name owns a
// stable slot: compiled plans pre-resolve the slot once at compile time, and
// re-registering a name later swaps the function inside the slot, so already
// compiled plans observe the replacement — the same dynamic-rebinding
// semantics a per-execution map lookup had.
type Handlers struct {
	mu sync.RWMutex
	m  map[string]*handlerSlot
}

// handlerSlot is the stable indirection cell for one handler name.
type handlerSlot struct {
	mu sync.RWMutex
	fn Handler
}

func (s *handlerSlot) load() Handler {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fn
}

// NewHandlers returns an empty registry.
func NewHandlers() *Handlers { return &Handlers{m: map[string]*handlerSlot{}} }

// Register adds (or replaces) a handler under name.
func (h *Handlers) Register(name string, fn Handler) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.m[name]
	if !ok {
		s = &handlerSlot{}
		h.m[name] = s
	}
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

// Lookup resolves a handler.
func (h *Handlers) Lookup(name string) (Handler, bool) {
	h.mu.RLock()
	s, ok := h.m[name]
	h.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return s.load(), true
}

// slot resolves the stable cell for a handler name (used by the compiler).
func (h *Handlers) slot(name string) (*handlerSlot, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s, ok := h.m[name]
	return s, ok
}

// PortFunc is the engine's outbound interface: it is invoked for send steps
// and outbound connection steps with the step's port name and the payload
// (the instance's current document).
type PortFunc func(ctx context.Context, in *Instance, step *StepDef, payload any) error

// Store is the workflow database of Figure 4: it persists workflow types
// and workflow instances. Implementations live in package wfstore.
type Store interface {
	// PutType stores a workflow type version.
	PutType(t *TypeDef) error
	// GetType loads a type version; version 0 means latest.
	GetType(name string, version int) (*TypeDef, error)
	// HasType reports whether the exact version exists.
	HasType(name string, version int) bool
	// ListTypes lists stored type keys (name@version), sorted.
	ListTypes() ([]string, error)
	// PutInstance stores an instance snapshot. The store owns the instance
	// from then on and may hand it to readers as is: the caller must not
	// change it afterwards.
	PutInstance(in *Instance) error
	// GetInstance loads an instance snapshot. Snapshots are shared and
	// immutable: callers must not change one they read (the engine
	// advances a copy).
	GetInstance(id string) (*Instance, error)
	// ListInstances lists stored instance IDs, sorted.
	ListInstances() ([]string, error)
	// DeleteInstance removes an instance (used after migration).
	DeleteInstance(id string) error
}

// ErrNotFound is returned by stores for missing types or instances.
var ErrNotFound = errors.New("wf: not found")

// Engine is the workflow engine: it compiles deployed workflow types into
// execution plans (see Plan), advances workflow instances against them and
// persists instance state to the workflow database between transitions. An
// engine is identified by name; instance IDs embed it so migrated instances
// remain traceable.
type Engine struct {
	name     string
	store    Store
	handlers *Handlers
	ports    PortFunc
	observer StepObserver
	decider  RetryDecider
	planObs  PlanObserver

	// parallelism bounds how many independent ready steps of one instance
	// execute concurrently (1 = strictly serial, byte-identical to the
	// pre-plan interpreter's trace order).
	parallelism int
	// portCheck, when set, validates send/receive/connection ports at
	// compile time (the hub installs its routing-table checker).
	portCheck PortChecker
	// legacy pins the engine to the pre-plan TypeDef interpreter; kept as
	// the differential-testing oracle for the compiled path.
	legacy bool

	// plans caches compiled plans by type key; epoch increments on every
	// deploy so downstream caches (the hub's route cache) can detect
	// recompiles. compiles counts compilations for change-impact analysis.
	planMu   sync.RWMutex
	plans    map[string]*Plan
	epoch    atomic.Int64
	compiles atomic.Int64

	mu      sync.Mutex
	counter int
}

// EngineOption configures NewEngine without growing its signature.
type EngineOption func(*Engine)

// WithStepParallelism lets up to n independent ready steps of one instance
// execute concurrently. Only steps whose data accesses are declared and
// disjoint are batched: send and outbound-connection steps (they read their
// payload slot), and task steps that declare Reads/Writes. n <= 1 keeps the
// strictly serial order.
func WithStepParallelism(n int) EngineOption {
	return func(e *Engine) {
		if n >= 1 {
			e.parallelism = n
		}
	}
}

// WithPortChecker installs the compile-time port validator: Deploy rejects
// types whose send/receive/connection ports the environment cannot route.
func WithPortChecker(fn PortChecker) EngineOption {
	return func(e *Engine) { e.portCheck = fn }
}

// WithLegacyInterpreter pins the engine to the pre-plan TypeDef
// interpreter. Deploy still compiles (and rejects broken models); only the
// advance loop differs. This exists as the differential-testing oracle: the
// compiled interpreter at parallelism 1 must produce byte-identical
// instance histories.
func WithLegacyInterpreter() EngineOption {
	return func(e *Engine) { e.legacy = true }
}

// PlanObserver is called after every compilation attempt with the type, the
// plan (nil when compilation failed), the compile time and the error.
type PlanObserver func(t *TypeDef, p *Plan, elapsed time.Duration, err error)

// SetPlanObserver installs the engine's plan observer. Like the step
// observer it must be installed before types are deployed.
func (e *Engine) SetPlanObserver(fn PlanObserver) { e.planObs = fn }

// StepObserver is called after every step execution attempt with the
// instance, the step, the wall time the execution took, and the error (nil
// on success; receive steps report when they park). Observers run
// synchronously on the goroutine advancing the instance and must be fast.
type StepObserver func(in *Instance, step *StepDef, elapsed time.Duration, err error)

// SetStepObserver installs the engine's step observer. It must be called
// before the engine starts executing instances; installation is not
// synchronized with running instances.
func (e *Engine) SetStepObserver(fn StepObserver) { e.observer = fn }

// RetryDecider decides, after a failed attempt of a task, send or outbound
// connection step, whether the engine should retry it and how long to back
// off first. attempt is 1-based (the attempt that just failed). When no
// decider is installed, the engine falls back to StepDef.Retries immediate
// retries. Deciders run synchronously on the goroutine advancing the
// instance; they are where the hub's per-binding RetryPolicy plugs in.
type RetryDecider func(ctx context.Context, in *Instance, s *StepDef, attempt int, err error) (retry bool, backoff time.Duration)

// SetRetryDecider installs the engine's retry decider. Like the step
// observer it must be installed before instances start executing.
func (e *Engine) SetRetryDecider(fn RetryDecider) { e.decider = fn }

// NewEngine creates an engine bound to a store and handler registry. ports
// may be nil if no type uses send/connection steps.
func NewEngine(name string, store Store, handlers *Handlers, ports PortFunc, opts ...EngineOption) *Engine {
	if handlers == nil {
		handlers = NewHandlers()
	}
	e := &Engine{
		name: name, store: store, handlers: handlers, ports: ports,
		parallelism: 1,
		plans:       map[string]*Plan{},
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Name returns the engine identifier.
func (e *Engine) Name() string { return e.name }

// Store exposes the engine's workflow database (the distribution experiments
// inspect it).
func (e *Engine) Store() Store { return e.store }

// Deploy validates a workflow type, compiles it into an execution plan and
// stores it. Model defects the compiler detects — unknown handlers,
// unroutable ports, unsatisfiable joins, unreachable steps, dead timeout
// branches — reject the deployment with typed PlanErrors instead of
// surfacing mid-exchange at runtime.
func (e *Engine) Deploy(t *TypeDef) error {
	if err := t.Validate(); err != nil {
		return err
	}
	start := time.Now()
	p, err := Compile(t, CompileDeps{Handlers: e.handlers, Ports: e.portCheck})
	e.compiles.Add(1)
	if e.planObs != nil {
		e.planObs(t, p, time.Since(start), err)
	}
	if err != nil {
		return err
	}
	if err := e.store.PutType(t); err != nil {
		return err
	}
	e.planMu.Lock()
	e.plans[t.Key()] = p
	e.planMu.Unlock()
	e.epoch.Add(1)
	return nil
}

// PlanEpoch increments on every successful Deploy. Downstream caches keyed
// off compiled plans (the hub's binding-resolution cache) compare epochs to
// detect recompiles.
func (e *Engine) PlanEpoch() int64 { return e.epoch.Load() }

// CompiledPlans counts compilation runs since engine creation — the
// change-impact metric: how many plans a model edit forced to recompile.
func (e *Engine) CompiledPlans() int64 { return e.compiles.Load() }

// PlanFor returns the cached plan of a deployed type version, if any.
func (e *Engine) PlanFor(name string, version int) (*Plan, bool) {
	e.planMu.RLock()
	defer e.planMu.RUnlock()
	p, ok := e.plans[fmt.Sprintf("%s@%d", name, version)]
	return p, ok
}

// Plans snapshots the engine's live compiled plans.
func (e *Engine) Plans() []*Plan {
	e.planMu.RLock()
	defer e.planMu.RUnlock()
	out := make([]*Plan, 0, len(e.plans))
	for _, p := range e.plans {
		out = append(out, p)
	}
	return out
}

// planFor resolves the plan for a type, compiling lazily for types that
// reached the store without passing through this engine's Deploy (shared or
// reopened stores). A type that fails lazy compilation returns nil and the
// engine falls back to the legacy interpreter for it — the behavior such a
// type would have had before compilation existed.
func (e *Engine) planFor(t *TypeDef) *Plan {
	key := t.Key()
	e.planMu.RLock()
	p := e.plans[key]
	e.planMu.RUnlock()
	if p != nil {
		return p
	}
	p, err := Compile(t, CompileDeps{Handlers: e.handlers, Ports: e.portCheck})
	e.compiles.Add(1)
	if err != nil {
		return nil
	}
	e.planMu.Lock()
	e.plans[key] = p
	e.planMu.Unlock()
	return p
}

// HasType reports whether the engine's store holds the named type at the
// exact version (version 0 asks for the latest). Version-pinned callers use
// it to detect pins that predate the store's content — e.g. a config epoch
// journaled before a crash whose type bodies did not survive the restart.
func (e *Engine) HasType(name string, version int) bool {
	_, err := e.store.GetType(name, version)
	return err == nil
}

func (e *Engine) nextID() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.counter++
	return fmt.Sprintf("%s-%06d", e.name, e.counter)
}

// Start creates an instance of the named type (latest version) with the
// given initial data and advances it until it completes or parks on a
// receive step. The returned instance is the snapshot the engine stored;
// it is read-only.
func (e *Engine) Start(ctx context.Context, typeName string, data map[string]any) (*Instance, error) {
	return e.startChildVersion(ctx, typeName, 0, data, "", "")
}

// StartVersion is Start pinned to a specific type version (0 means latest).
// Callers that captured a version at admission time use it to keep an
// exchange on one consistent configuration even if the type is redeployed
// mid-flight: the store retains every deployed version.
func (e *Engine) StartVersion(ctx context.Context, typeName string, version int, data map[string]any) (*Instance, error) {
	return e.startChildVersion(ctx, typeName, version, data, "", "")
}

func (e *Engine) startChild(ctx context.Context, typeName string, data map[string]any, parent, parentStep string) (*Instance, error) {
	return e.startChildVersion(ctx, typeName, 0, data, parent, parentStep)
}

func (e *Engine) startChildVersion(ctx context.Context, typeName string, version int, data map[string]any, parent, parentStep string) (*Instance, error) {
	t, err := e.store.GetType(typeName, version)
	if err != nil {
		return nil, fmt.Errorf("wf: start %q: %w", typeName, err)
	}
	in := &Instance{
		ID:         e.nextID(),
		Type:       t.Name,
		Version:    t.Version,
		State:      InstRunning,
		Data:       map[string]any{},
		Steps:      map[string]*StepRun{},
		Arcs:       map[string]int{},
		Parent:     parent,
		ParentStep: parentStep,
	}
	for k, v := range data {
		in.Data[k] = v
	}
	for i := range t.Steps {
		in.Steps[t.Steps[i].Name] = &StepRun{State: StepPending}
	}
	in.log("", "created")
	if err := e.advance(ctx, t, in); err != nil {
		return in, err
	}
	return in, e.persist(in)
}

// Deliver completes a waiting receive or inbound-connection step of the
// instance that listens on port, storing payload under the step's data key,
// then advances the instance. It returns ErrNotWaiting if no step of the
// instance is parked on that port.
func (e *Engine) Deliver(ctx context.Context, instanceID, port string, payload any) error {
	snap, err := e.store.GetInstance(instanceID)
	if err != nil {
		return err
	}
	t, err := e.store.GetType(snap.Type, snap.Version)
	if err != nil {
		return err
	}
	var target *StepDef
	for i := range t.Steps {
		s := &t.Steps[i]
		if s.Port != port {
			continue
		}
		if run := snap.Steps[s.Name]; run != nil && run.State == StepWaiting {
			target = s
			break
		}
	}
	if target == nil {
		return fmt.Errorf("%w: instance %s has no step waiting on port %q", ErrNotWaiting, instanceID, port)
	}
	in := snap.clone()
	key := target.DataKey
	if key == "" {
		key = "document"
	}
	in.Data[key] = payload
	e.completeStep(ctx, t, in, target)
	if err := e.advance(ctx, t, in); err != nil {
		return err
	}
	if err := e.persist(in); err != nil {
		return err
	}
	return e.resumeParentIfDone(ctx, in)
}

// ErrNotWaiting is returned by Deliver when the instance has no step parked
// on the given port.
var ErrNotWaiting = errors.New("wf: no step waiting on port")

// Expire times out a parked receive or inbound-connection step: the step is
// skipped (its normal continuation dead-path-eliminated) and its OnTimeout
// step is activated instead — the paper's public-process time-out behavior.
func (e *Engine) Expire(ctx context.Context, instanceID, stepName string) error {
	snap, err := e.store.GetInstance(instanceID)
	if err != nil {
		return err
	}
	t, err := e.store.GetType(snap.Type, snap.Version)
	if err != nil {
		return err
	}
	s, ok := t.Step(stepName)
	if !ok {
		return fmt.Errorf("wf: instance %s has no step %q", instanceID, stepName)
	}
	if s.OnTimeout == "" {
		return fmt.Errorf("wf: step %q declares no timeout branch", stepName)
	}
	if run := snap.Steps[s.Name]; run == nil || run.State != StepWaiting {
		return fmt.Errorf("%w: step %q is not waiting", ErrNotWaiting, stepName)
	}
	in := snap.clone()
	in.Steps[s.Name].State = StepSkipped
	in.log(s.Name, "timed out")
	e.signalOutgoing(ctx, t, in, s, false, nil)
	if err := e.advanceWith(ctx, t, in, map[string]bool{s.OnTimeout: true}); err != nil {
		return err
	}
	if err := e.persist(in); err != nil {
		return err
	}
	return e.resumeParentIfDone(ctx, in)
}

// Instance loads an instance snapshot from the workflow database. The
// snapshot is shared and read-only: a later transition stores a new
// snapshot instead of changing it.
func (e *Engine) Instance(id string) (*Instance, error) {
	return e.store.GetInstance(id)
}

// persist stores the instance as its next snapshot (Figure 4's "store the
// advanced state of the workflow instance back into the database"). The
// store owns it from then on: the engine never changes an instance after
// persisting it, and Deliver, Expire and resumeParentIfDone advance a clone
// of the stored snapshot. The history is first copied to an exact-size
// slice, so the snapshot keeps no append headroom alive.
func (e *Engine) persist(in *Instance) error {
	if len(in.History) < cap(in.History) {
		in.History = append(make([]Event, 0, len(in.History)), in.History...)
	}
	return e.store.PutInstance(in)
}

// advance runs the instance until quiescence: no step is ready.
func (e *Engine) advance(ctx context.Context, t *TypeDef, in *Instance) error {
	return e.advanceWith(ctx, t, in, map[string]bool{})
}

// advanceWith runs the instance with an initial set of force-activated
// steps (loop re-entries and timeout branches). It dispatches to the
// compiled-plan interpreter when a plan is available, falling back to the
// legacy TypeDef interpreter otherwise (or always, under
// WithLegacyInterpreter).
func (e *Engine) advanceWith(ctx context.Context, t *TypeDef, in *Instance, forced map[string]bool) error {
	if !e.legacy {
		if p := e.planFor(t); p != nil {
			return e.advancePlan(ctx, p, in, forced)
		}
	}
	return e.advanceLegacy(ctx, t, in, forced)
}

// advanceLegacy is the pre-plan interpreter: a full rescan of every step per
// pass. Kept verbatim as the differential-testing oracle for advancePlan.
func (e *Engine) advanceLegacy(ctx context.Context, t *TypeDef, in *Instance, forced map[string]bool) error {
	for in.State == InstRunning {
		progressed := false
		for i := range t.Steps {
			s := &t.Steps[i]
			run := in.Steps[s.Name]
			if run.State != StepPending {
				continue
			}
			ready, dead := e.evalJoin(t, in, s, forced)
			if dead {
				run.State = StepSkipped
				in.log(s.Name, "skipped (dead path)")
				e.signalOutgoing(ctx, t, in, s, false, forced)
				progressed = true
				continue
			}
			if !ready {
				continue
			}
			delete(forced, s.Name)
			if err := e.execute(ctx, t, in, s); err != nil {
				return err
			}
			progressed = true
		}
		if !progressed {
			break
		}
	}
	e.maybeFinish(in)
	return nil
}

// evalJoin decides whether a pending step is ready or dead.
func (e *Engine) evalJoin(t *TypeDef, in *Instance, s *StepDef, forced map[string]bool) (ready, dead bool) {
	if forced[s.Name] {
		return true, false
	}
	// Timeout branches run only when forced by an expiry; until their
	// guard resolves they stay pending.
	if _, isTimeout := t.timeoutTarget[s.Name]; isTimeout {
		return false, false
	}
	var normal []*Arc
	for _, a := range t.incoming[s.Name] {
		if !a.Loop {
			normal = append(normal, a)
		}
	}
	if len(normal) == 0 {
		// Entry step: ready exactly once, at instance start (its state is
		// still pending and no arc can re-activate it).
		return true, false
	}
	var nTrue, nFalse int
	for _, a := range normal {
		switch signal(in.Arcs[arcKey(a)]) {
		case sigTrue:
			nTrue++
		case sigFalse:
			nFalse++
		}
	}
	evaluated := nTrue + nFalse
	switch s.join() {
	case JoinAny:
		if nTrue > 0 {
			return true, false
		}
		if evaluated == len(normal) {
			return false, true
		}
	default: // JoinAll
		if nFalse > 0 && evaluated == len(normal) {
			return false, true
		}
		if nTrue == len(normal) {
			return true, false
		}
	}
	return false, false
}

// execute runs one ready step: it aborts if the exchange's context is
// already done (cancellation propagates between steps, so a canceled
// pipeline stops before its next side effect), times the execution, and
// reports to the engine's observer.
func (e *Engine) execute(ctx context.Context, t *TypeDef, in *Instance, s *StepDef) error {
	start := time.Now()
	var err error
	if cerr := ctx.Err(); cerr != nil {
		err = e.failStep(in, s, cerr)
	} else {
		err = e.executeStep(ctx, t, in, s)
	}
	if e.observer != nil {
		e.observer(in, s, time.Since(start), err)
	}
	return err
}

// executeStep dispatches on the step kind.
func (e *Engine) executeStep(ctx context.Context, t *TypeDef, in *Instance, s *StepDef) error {
	run := in.Steps[s.Name]
	switch s.Kind {
	case StepNoop:
		e.completeStep(ctx, t, in, s)

	case StepTask:
		fn, ok := e.handlers.Lookup(s.Handler)
		if !ok {
			return e.failStep(in, s, fmt.Errorf("wf: no handler %q registered", s.Handler))
		}
		if err := e.attemptLoop(ctx, in, s, func() error { return fn(ctx, in, s) }); err != nil {
			return e.failStep(in, s, err)
		}
		e.completeStep(ctx, t, in, s)

	case StepSend:
		if e.ports == nil {
			return e.failStep(in, s, fmt.Errorf("wf: engine has no port function for send step %q", s.Name))
		}
		if err := e.attemptLoop(ctx, in, s, func() error { return e.ports(ctx, in, s, outboundPayload(in, s)) }); err != nil {
			return e.failStep(in, s, err)
		}
		in.log(s.Name, "sent on port "+s.Port)
		e.completeStep(ctx, t, in, s)

	case StepConnection:
		if s.Dir == DirOut {
			if e.ports == nil {
				return e.failStep(in, s, fmt.Errorf("wf: engine has no port function for connection step %q", s.Name))
			}
			if err := e.attemptLoop(ctx, in, s, func() error { return e.ports(ctx, in, s, outboundPayload(in, s)) }); err != nil {
				return e.failStep(in, s, err)
			}
			in.log(s.Name, "passed control to binding via port "+s.Port)
			e.completeStep(ctx, t, in, s)
		} else {
			run.State = StepWaiting
			in.log(s.Name, "waiting for binding on port "+s.Port)
		}

	case StepReceive:
		run.State = StepWaiting
		in.log(s.Name, "waiting on port "+s.Port)

	case StepSubworkflow:
		child, err := e.startChild(ctx, s.Subworkflow, in.Data, in.ID, s.Name)
		if err != nil {
			return e.failStep(in, s, err)
		}
		run.Child = child.ID
		switch child.State {
		case InstCompleted:
			e.absorbChild(in, child)
			e.completeStep(ctx, t, in, s)
		case InstFailed:
			return e.failStep(in, s, fmt.Errorf("wf: subworkflow %s failed: %s", child.ID, child.Error))
		default:
			run.State = StepChildRun
			in.log(s.Name, "subworkflow "+child.ID+" running")
		}
	default:
		return e.failStep(in, s, fmt.Errorf("wf: unknown step kind %q", s.Kind))
	}
	return nil
}

// attemptLoop runs one step's side-effecting operation under the engine's
// retry regime: attempts are numbered from 1, recorded on the step run, and
// repeated while the decider (or, absent one, the step's Retries budget)
// allows. Backoff pauses are interruptible by the exchange's context; a
// done context always stops the loop with the last attempt's error.
func (e *Engine) attemptLoop(ctx context.Context, in *Instance, s *StepDef, op func() error) error {
	run := in.Steps[s.Name]
	for attempt := 1; ; attempt++ {
		err := op()
		run.Attempts = attempt
		if err == nil {
			return nil
		}
		var retry bool
		var backoff time.Duration
		if e.decider != nil {
			retry, backoff = e.decider(ctx, in, s, attempt, err)
		} else {
			retry = attempt <= s.Retries
		}
		if !retry || ctx.Err() != nil {
			return err
		}
		in.log(s.Name, fmt.Sprintf("attempt %d failed, retrying: %v", attempt, err))
		if backoff > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return err
			}
		}
	}
}

// outboundPayload selects what a send or outbound-connection step emits:
// the data slot named by DataKey, or the current document. (DataKey thus
// names the payload slot symmetrically for inbound and outbound steps.)
func outboundPayload(in *Instance, s *StepDef) any {
	key := s.DataKey
	if key == "" {
		key = "document"
	}
	return in.Data[key]
}

// absorbChild copies the child's document and result back into the parent
// (the subworkflow interface of Section 2.1: "the data it requires and
// returns").
func (e *Engine) absorbChild(parent, child *Instance) {
	if d, ok := child.Data["document"]; ok {
		parent.Data["document"] = d
	}
	if r, ok := child.Data["result"]; ok {
		parent.Data["result"] = r
	}
}

func (e *Engine) completeStep(ctx context.Context, t *TypeDef, in *Instance, s *StepDef) {
	in.Steps[s.Name].State = StepCompleted
	in.log(s.Name, "completed")
	e.signalOutgoing(ctx, t, in, s, true, nil)
	// A guard completing normally retires its timeout branch.
	if s.OnTimeout != "" {
		if run := in.Steps[s.OnTimeout]; run != nil && run.State == StepPending {
			run.State = StepSkipped
			in.log(s.OnTimeout, "skipped (guard completed in time)")
			if ts, ok := t.Step(s.OnTimeout); ok {
				e.signalOutgoing(ctx, t, in, ts, false, nil)
			}
		}
	}
}

func (e *Engine) failStep(in *Instance, s *StepDef, err error) error {
	e.markFailed(in, s, err)
	if perr := e.persist(in); perr != nil {
		return errors.Join(err, perr)
	}
	return err
}

// markFailed records a step failure on the instance without persisting.
func (e *Engine) markFailed(in *Instance, s *StepDef, err error) {
	in.Steps[s.Name].State = StepFailed
	in.Steps[s.Name].Error = err.Error()
	in.State = InstFailed
	in.Error = fmt.Sprintf("step %q: %v", s.Name, err)
	in.log(s.Name, "failed: "+err.Error())
}

// signalOutgoing evaluates the outgoing arcs of a finished step. completed
// is false for skipped steps (dead-path elimination: every outgoing arc
// signals false). forced collects loop re-entry targets; it may be nil when
// the caller is outside an advance loop (Deliver), in which case loop arcs
// are handled by the subsequent advance's forced map being empty — loop
// arcs only fire from within advance, which is where completions that can
// close a loop happen.
func (e *Engine) signalOutgoing(ctx context.Context, t *TypeDef, in *Instance, s *StepDef, completed bool, forced map[string]bool) {
	for _, a := range t.outgoing[s.Name] {
		val := false
		if completed {
			if a.cond == nil {
				val = true
			} else if ok, err := evalCond(a, in.Env()); err == nil {
				val = ok
			} else {
				in.log(s.Name, fmt.Sprintf("condition %q error: %v (treated as false)", a.Condition, err))
			}
		}
		if a.Loop {
			if val {
				e.fireLoop(t, in, a, forced)
			}
			continue
		}
		if val {
			in.Arcs[arcKey(a)] = int(sigTrue)
		} else {
			in.Arcs[arcKey(a)] = int(sigFalse)
		}
	}
}

func evalCond(a *Arc, env expr.Env) (bool, error) {
	return expr.EvalBool(a.cond, env)
}

// fireLoop resets the loop body (the target step and everything reachable
// from it via non-loop arcs) for a new iteration and forces the target
// ready.
func (e *Engine) fireLoop(t *TypeDef, in *Instance, loop *Arc, forced map[string]bool) {
	region := map[string]bool{}
	var mark func(string)
	mark = func(n string) {
		if region[n] {
			return
		}
		region[n] = true
		for _, a := range t.outgoing[n] {
			if !a.Loop {
				mark(a.To)
			}
		}
	}
	mark(loop.To)
	for name := range region {
		in.Steps[name] = &StepRun{State: StepPending}
		for _, a := range t.outgoing[name] {
			delete(in.Arcs, arcKey(a))
		}
		for _, a := range t.incoming[name] {
			if region[a.From] {
				delete(in.Arcs, arcKey(a))
			}
		}
	}
	in.log(loop.To, "loop iteration")
	if forced != nil {
		forced[loop.To] = true
	}
}

// maybeFinish marks the instance completed when every step is terminal and
// none is parked.
func (e *Engine) maybeFinish(in *Instance) {
	if in.State != InstRunning {
		return
	}
	for _, r := range in.Steps {
		switch r.State {
		case StepCompleted, StepSkipped:
		default:
			return
		}
	}
	in.State = InstCompleted
	in.log("", "instance completed")
}

// resumeParentIfDone propagates a child instance's terminal state to its
// waiting parent step and advances the parent (recursively up the chain).
func (e *Engine) resumeParentIfDone(ctx context.Context, child *Instance) error {
	if child.Parent == "" || child.State == InstRunning {
		return nil
	}
	snap, err := e.store.GetInstance(child.Parent)
	if err != nil {
		return err
	}
	t, err := e.store.GetType(snap.Type, snap.Version)
	if err != nil {
		return err
	}
	s, ok := t.Step(child.ParentStep)
	if !ok {
		return fmt.Errorf("wf: parent %s has no step %q", snap.ID, child.ParentStep)
	}
	if snap.Steps[s.Name].State != StepChildRun {
		return nil
	}
	parent := snap.clone()
	if child.State == InstFailed {
		// The parent is now failed; persisting that is a real durability
		// obligation, so a persist error must not be dropped on the floor —
		// join it with whatever propagating further up the chain reports.
		e.markFailed(parent, s, fmt.Errorf("wf: subworkflow %s failed: %s", child.ID, child.Error))
		perr := e.persist(parent)
		rerr := e.resumeParentIfDone(ctx, parent)
		return errors.Join(perr, rerr)
	}
	e.absorbChild(parent, child)
	e.completeStep(ctx, t, parent, s)
	if err := e.advance(ctx, t, parent); err != nil {
		return err
	}
	if err := e.persist(parent); err != nil {
		return err
	}
	return e.resumeParentIfDone(ctx, parent)
}
