package wf

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
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
	// DeleteInstance removes an instance; deleting an unknown ID is not an
	// error. Engine.Forget deletes an instance tree through it.
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
	// execute concurrently (1 = strictly serial, the pass order the compat
	// goldens pin).
	parallelism int
	// portCheck, when set, validates send/receive/connection ports at
	// compile time (the hub installs its routing-table checker).
	portCheck PortChecker

	// plans caches compiled plans by type version, and rejected the
	// PlanErrors of stored types that failed lazy compilation; epoch
	// counts successful deploys and compiles counts compilations, both
	// reported for change-impact analysis.
	planMu   sync.RWMutex
	plans    map[planKey]*Plan
	rejected map[planKey]error
	epoch    atomic.Int64
	compiles atomic.Int64

	mu      sync.Mutex
	counter int
}

// planKey identifies a type version in the plan cache; a struct key spares
// every lookup the "name@version" string.
type planKey struct {
	name    string
	version int
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
		plans:       map[planKey]*Plan{},
		rejected:    map[planKey]error{},
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
	p, err := e.compile(t)
	if err != nil {
		return err
	}
	if err := e.store.PutType(t); err != nil {
		return err
	}
	key := planKey{t.Name, t.Version}
	e.planMu.Lock()
	e.plans[key] = p
	delete(e.rejected, key)
	e.planMu.Unlock()
	e.epoch.Add(1)
	return nil
}

// compile compiles a type against the engine's handler registry and port
// checker, counting the compilation and reporting it to the plan observer.
func (e *Engine) compile(t *TypeDef) (*Plan, error) {
	start := time.Now()
	p, err := Compile(t, CompileDeps{Handlers: e.handlers, Ports: e.portCheck})
	e.compiles.Add(1)
	if e.planObs != nil {
		e.planObs(t, p, time.Since(start), err)
	}
	return p, err
}

// PlanEpoch counts successful Deploys: the plan statistics report it next
// to CompiledPlans, so a model change shows how many deploys it made.
func (e *Engine) PlanEpoch() int64 { return e.epoch.Load() }

// CompiledPlans counts compilation runs since engine creation — the
// change-impact metric: how many plans a model edit forced to recompile.
func (e *Engine) CompiledPlans() int64 { return e.compiles.Load() }

// PlanFor returns the cached plan of a deployed type version, if any.
func (e *Engine) PlanFor(name string, version int) (*Plan, bool) {
	e.planMu.RLock()
	defer e.planMu.RUnlock()
	p, ok := e.plans[planKey{name, version}]
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

// planFor resolves the plan for a type. A type that reached the store
// without passing through this engine's Deploy (a migrated type, a reopened
// store) compiles on first use, and either outcome is cached: a type that
// fails compilation keeps returning its PlanErrors until it is deployed.
func (e *Engine) planFor(t *TypeDef) (*Plan, error) {
	key := planKey{t.Name, t.Version}
	e.planMu.RLock()
	p, err := e.plans[key], e.rejected[key]
	e.planMu.RUnlock()
	if p != nil || err != nil {
		return p, err
	}
	p, err = e.compile(t)
	e.planMu.Lock()
	if err != nil {
		e.rejected[key] = err
	} else {
		e.plans[key] = p
	}
	e.planMu.Unlock()
	return p, err
}

// instancePlan resolves the plan of an instance's type version.
func (e *Engine) instancePlan(in *Instance) (*Plan, error) {
	t, err := e.store.GetType(in.Type, in.Version)
	if err != nil {
		return nil, err
	}
	return e.planFor(t)
}

// nextID names the next instance "<engine>-<counter>", the counter
// zero-padded to six digits.
func (e *Engine) nextID() string {
	e.mu.Lock()
	e.counter++
	n := e.counter
	e.mu.Unlock()
	var scratch [20]byte
	digits := strconv.AppendInt(scratch[:0], int64(n), 10)
	return e.name + "-" + "000000"[min(len(digits), 6):] + string(digits)
}

// Start creates an instance of the named type (latest version) with the
// given initial data and advances it until it completes or parks on a
// receive step. The returned instance is the snapshot the engine stored;
// it is read-only. A stored type that fails compilation is refused with its
// PlanErrors before any instance exists.
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
	p, err := e.planFor(t)
	if err != nil {
		return nil, err
	}
	in := newInstance(p)
	in.ID, in.Parent, in.ParentStep = e.nextID(), parent, parentStep
	for k, v := range data {
		in.Data[k] = v
	}
	in.log("", "created")
	if err := e.advancePlan(ctx, p, in, nil); err != nil {
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
	p, err := e.instancePlan(snap)
	if err != nil {
		return err
	}
	var target *planStep
	for i := range p.steps {
		ps := &p.steps[i]
		if ps.def.Port != port {
			continue
		}
		if snap.stateAt(p, i) == StepWaiting {
			target = ps
			break
		}
	}
	if target == nil {
		return fmt.Errorf("%w: instance %s has no step waiting on port %q", ErrNotWaiting, instanceID, port)
	}
	in := snap.clone(p)
	key := target.def.DataKey
	if key == "" {
		key = "document"
	}
	in.Data[key] = payload
	e.planCompleteStep(p, in, target, nil)
	return e.settle(ctx, in, e.advancePlan(ctx, p, in, nil))
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
	p, err := e.instancePlan(snap)
	if err != nil {
		return err
	}
	i, ok := p.index[stepName]
	if !ok {
		return fmt.Errorf("wf: instance %s has no step %q", instanceID, stepName)
	}
	ps := &p.steps[i]
	if ps.def.OnTimeout == "" {
		return fmt.Errorf("wf: step %q declares no timeout branch", stepName)
	}
	if snap.stateAt(p, i) != StepWaiting {
		return fmt.Errorf("%w: step %q is not waiting", ErrNotWaiting, stepName)
	}
	in := snap.clone(p)
	in.runs[i].State = StepSkipped
	in.log(ps.name, "timed out")
	e.planSignalOutgoing(p, in, ps, false, nil)
	return e.settle(ctx, in, e.advancePlan(ctx, p, in, map[string]bool{ps.def.OnTimeout: true}))
}

// settle ends a Deliver or Expire: it persists the advanced instance and
// propagates a terminal state to a parked parent. A failed advance already
// persisted the failed instance (failStep), and its parent must still learn
// of the failure or it waits on the child forever, so the advance error is
// joined with whatever the propagation reports.
func (e *Engine) settle(ctx context.Context, in *Instance, advanceErr error) error {
	if advanceErr != nil {
		return errors.Join(advanceErr, e.resumeParentIfDone(ctx, in))
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

// Forget deletes an instance the caller is done with from the workflow
// database, and with it, depth first, the children its subworkflow steps
// started (StepRun.Child). The instance's state does not matter: one parked
// on a receive step of an exchange that failed is forgotten like a
// completed one. The hub forgets the instances of every exchange that ages
// out of its retention window. Nothing may advance the tree meanwhile.
func (e *Engine) Forget(id string) error {
	in, err := e.store.GetInstance(id)
	if err != nil {
		return err
	}
	var errs error
	in.RangeSteps(func(_ string, run StepRun) bool {
		if run.Child != "" {
			errs = errors.Join(errs, e.Forget(run.Child))
		}
		return true
	})
	return errors.Join(errs, e.store.DeleteInstance(id))
}

// persist stores the instance as its next snapshot (Figure 4's "store the
// advanced state of the workflow instance back into the database"). The
// store owns it from then on: the engine never changes an instance after
// persisting it, and Deliver, Expire and resumeParentIfDone advance a clone
// of the stored snapshot. The history is first copied out of its pooled
// buffer into a slice of exactly its length, the snapshot's one history
// allocation.
func (e *Engine) persist(in *Instance) error {
	in.sealHistory()
	return e.store.PutInstance(in)
}

// attemptLoop runs one step's side-effecting operation under the engine's
// retry regime: attempts are numbered from 1, recorded on the step run, and
// repeated while the decider (or, absent one, the step's Retries budget)
// allows. Backoff pauses are interruptible by the exchange's context; a
// done context always stops the loop with the last attempt's error.
func (e *Engine) attemptLoop(ctx context.Context, in *Instance, ps *planStep, op func() error) error {
	s, run := ps.def, &in.runs[ps.idx]
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

func (e *Engine) failStep(in *Instance, ps *planStep, err error) error {
	e.markFailed(in, ps, err)
	if perr := e.persist(in); perr != nil {
		return errors.Join(err, perr)
	}
	return err
}

// markFailed records a step failure on the instance without persisting.
func (e *Engine) markFailed(in *Instance, ps *planStep, err error) {
	run := &in.runs[ps.idx]
	run.State = StepFailed
	run.Error = err.Error()
	in.State = InstFailed
	in.Error = fmt.Sprintf("step %q: %v", ps.name, err)
	in.log(ps.name, "failed: "+err.Error())
}

// maybeFinish marks the instance completed when every step is terminal and
// none is parked.
func (e *Engine) maybeFinish(in *Instance) {
	if in.State != InstRunning {
		return
	}
	done := true
	in.RangeSteps(func(_ string, run StepRun) bool {
		done = run.State == StepCompleted || run.State == StepSkipped
		return done
	})
	if !done {
		return
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
	p, err := e.instancePlan(snap)
	if err != nil {
		return err
	}
	i, ok := p.index[child.ParentStep]
	if !ok {
		return fmt.Errorf("wf: parent %s has no step %q", snap.ID, child.ParentStep)
	}
	ps := &p.steps[i]
	if snap.stateAt(p, i) != StepChildRun {
		return nil
	}
	parent := snap.clone(p)
	if child.State == InstFailed {
		// The parent is now failed; persisting that is a real durability
		// obligation, so a persist error must not be dropped on the floor —
		// join it with whatever propagating further up the chain reports.
		e.markFailed(parent, ps, fmt.Errorf("wf: subworkflow %s failed: %s", child.ID, child.Error))
		perr := e.persist(parent)
		rerr := e.resumeParentIfDone(ctx, parent)
		return errors.Join(perr, rerr)
	}
	e.absorbChild(parent, child)
	e.planCompleteStep(p, parent, ps, nil)
	if err := e.advancePlan(ctx, p, parent, nil); err != nil {
		return err
	}
	if err := e.persist(parent); err != nil {
		return err
	}
	return e.resumeParentIfDone(ctx, parent)
}
