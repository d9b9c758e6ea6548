package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/cfgstore"
	"repro/internal/doc"
	"repro/internal/formats"
	"repro/internal/formats/edi"
	"repro/internal/formats/oagis"
	"repro/internal/formats/oracleoif"
	"repro/internal/formats/rosettanet"
	"repro/internal/formats/sapidoc"
	"repro/internal/health"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/transform"
	"repro/internal/wf"
	"repro/internal/wfstore"
)

// Exchange is the runtime state of one inbound message's journey through
// the process chain: one instance each of the public process, the binding,
// the private process and the application binding, plus the outbound
// result.
type Exchange struct {
	ID       string
	Partner  TradingPartner
	Protocol formats.Format
	Backend  string
	// Flow is the business flow the exchange belongs to (PO round trip or
	// outbound invoice).
	Flow obs.Flow

	PublicID  string
	BindingID string
	PrivateID string
	AppID     string

	// Outbound holds the native response document captured at the public
	// process's send step.
	Outbound any
	// Signals holds protocol-level acknowledgment documents (e.g. EDI 997
	// functional acks) the public process emitted before the response.
	Signals []any

	// queue holds this exchange's pending routing hops. Queues are
	// per-exchange so that a hop is only executed by the goroutine driving
	// this exchange, strictly after the engine call that enqueued it
	// returned — hops of concurrent exchanges never interleave within one
	// instance.
	queue []routeTask

	// route is the partner's entry in the snapshot's partner index: its
	// record and the type names the exchange routes through.
	route *resolvedRoute

	// resubmit marks a dead-letter replay: its app binding tolerates the
	// backend's duplicate-order rejection.
	resubmit bool

	// state is the exchange's lifecycle state, kept by the ledger under its
	// lock.
	state exState

	// retry is the per-call retry policy override (Request.Retry), nil to
	// use the hub's configured policies.
	retry *RetryPolicy

	// snap is the model snapshot the exchange was admitted under: every
	// stage resolves its artifact versions, rules and transforms from this
	// one snapshot, so changes concurrent with the exchange are invisible
	// to it.
	snap *Snapshot

	// canary is the partner's canary run in snap (nil if none); canaryArm
	// marks this exchange as routed to the candidate version.
	canary    *canaryRun
	canaryArm bool
}

// ConfigEpoch returns the config epoch the exchange was admitted under.
func (ex *Exchange) ConfigEpoch() int64 { return ex.snap.cfg.Epoch }

// CanaryArm reports whether the exchange rode a canary candidate version.
func (ex *Exchange) CanaryArm() bool { return ex.canaryArm }

// routeTask is one queued hop between process instances.
type routeTask struct {
	port    string
	payload any
}

// Hub is the integration engine runtime: it hosts the model's workflow
// types on one engine, evaluates business rules through the external
// registry, talks to the back-end systems, and routes documents through
// public process → binding → private process → application binding and
// back (Figure 14).
type Hub struct {
	// Model is the model of the current snapshot, kept for callers that
	// read the model as a field. Read the snapshot (Snapshot) instead: it
	// is published atomically, the field is not.
	Model  *Model
	Engine *wf.Engine
	// Systems maps backend name to the simulated ERP.
	Systems map[string]backend.System

	reg    *transform.Registry
	codecs *formats.Registry

	// mu guards Systems and each exchange's hop state (queue, Outbound,
	// Signals).
	mu sync.Mutex

	// ledger owns every exchange's lifecycle state: the exchange records,
	// the dead-letter queue and the journal's live index (see ledger.go).
	ledger *ledger

	// Observability: every step execution, routing hop and exchange
	// lifecycle transition is emitted on the bus; metrics, collector,
	// counters and the scheduler gauges are the hub's always-attached
	// derived views.
	bus          *obs.Bus
	metrics      *obs.Metrics
	collector    *obs.Collector
	counters     *obs.ExchangeCounters
	schedMetrics *obs.SchedMetrics
	planMetrics  *obs.PlanMetrics

	// Sharded scheduler for asynchronous submission (see sched.go and
	// submit.go). schedCfg holds the NewHub option values the scheduler is
	// lazily started with; drained is set by the first Drain and never
	// cleared.
	schedMu  sync.Mutex
	sched    *scheduler
	drained  bool
	schedCfg hubConfig

	// snap is the current model snapshot (see config.go); Apply publishes
	// the next one under swapMu.
	snap atomic.Pointer[Snapshot]

	handlerReg *wf.Handlers

	// Reliability layer (see retry.go): per-binding retry policies.
	retryMu       sync.RWMutex
	retryPolicies map[string]RetryPolicy
	defaultRetry  RetryPolicy

	// Partner health tracking (see health.go in this package and
	// internal/health): nil unless the hub was built WithHealth. The
	// tracker's breakers gate admission in Do/DoAsync; healthMetrics
	// derives per-partner gauges from the KindHealth events; shed counts
	// submissions dropped by the adaptive shedder for Drain's summary.
	health        *health.Tracker
	healthMetrics *obs.HealthMetrics
	shed          atomic.Int64

	// Durability layer (see journal.go in this package and
	// internal/journal): nil unless the hub was built WithJournal; the
	// ledger appends to it. jrnStartup is the open-time replay snapshot,
	// consumed once by Recover; jrnFS is the storage seam under the journal
	// (and TakeOverJournal's reads), nil meaning the real filesystem.
	jrn             *journal.Journal
	jrnStartup      atomic.Pointer[journalSnapshot]
	jrnFS           journal.FS
	recoveryMetrics *obs.RecoveryMetrics
	// dur is the storage-health state of the durability failure policy
	// (see durability.go).
	dur durability

	// Runtime change management (see change.go and config.go):
	// configMetrics derives the change gauges from KindConfig events;
	// swapMu serializes changes (Apply), which build and publish the next
	// snapshot. bodies keeps the body of every registered rule-set and
	// transform version (a *rules.Set or a transform.Transformer) for
	// Rollback; swapMu guards it. Lock order: swapMu is taken before h.mu
	// and the ledger's lock.
	configMetrics *obs.ConfigMetrics
	canaryPolicy  cfgstore.CanaryPolicy
	swapMu        sync.Mutex
	bodies        map[VersionRef]any

	// Federation (see federation.go): clusterFn is the registered provider
	// of StatusSnapshot's cluster section, set by the cluster node wrapping
	// this hub (nil on standalone hubs).
	clusterMu sync.Mutex
	clusterFn func() *ClusterStatus
}

// Bus exposes the hub's event bus; attach sinks to observe the pipeline.
func (h *Hub) Bus() *obs.Bus { return h.bus }

// Events returns the event history of one exchange in emission order, from
// its first event on, for as long as ExchangeByID finds it: nil once the
// exchange aged out of the retention window.
func (h *Hub) Events(exchangeID string) []obs.Event { return h.collector.Events(exchangeID) }

// Trace renders an exchange's routing journey as human-readable hop
// strings, kept as long as Events keeps its events.
func (h *Hub) Trace(exchangeID string) []string { return h.collector.Trace(exchangeID) }

// stageOf maps a workflow type name ("public:EDI", "binding-inv:RosettaNet",
// "private:order-mgmt", "appbinding:SAP") to its pipeline stage.
func stageOf(typeName string) obs.Stage {
	prefix := typeName
	if i := strings.Index(typeName, ":"); i >= 0 {
		prefix = typeName[:i]
	}
	switch prefix {
	case "public", "public-inv":
		return obs.StagePublic
	case "binding", "binding-inv":
		return obs.StageBinding
	case "private":
		return obs.StagePrivate
	case "appbinding", "appbinding-inv":
		return obs.StageApp
	}
	return obs.Stage(prefix)
}

// NewCodecRegistry builds a codec registry covering every concrete format.
func NewCodecRegistry() *formats.Registry {
	r := &formats.Registry{}
	r.Register(edi.POCodec{})
	r.Register(edi.POACodec{})
	r.Register(edi.FACodec{})
	r.Register(rosettanet.POCodec{})
	r.Register(rosettanet.POACodec{})
	r.Register(oagis.POCodec{})
	r.Register(oagis.POACodec{})
	r.Register(sapidoc.POCodec{})
	r.Register(sapidoc.POACodec{})
	r.Register(oracleoif.POCodec{})
	r.Register(oracleoif.POACodec{})
	r.Register(edi.INVCodec{})
	r.Register(rosettanet.INVCodec{})
	r.Register(oagis.INVCodec{})
	r.Register(sapidoc.INVCodec{})
	r.Register(oracleoif.INVCodec{})
	return r
}

// NewHub deploys the model onto a fresh engine with simulated back ends.
// Options configure the sharded scheduler (WithShards, WithWorkersPerShard,
// WithQueueDepth), the event bus (WithBus), the journal and the rest.
func NewHub(m *Model, opts ...HubOption) (*Hub, error) {
	cfg := hubConfig{
		shards:          DefaultShards,
		workersPerShard: DefaultWorkers,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	h := &Hub{
		Model:           m,
		Systems:         map[string]backend.System{},
		reg:             &transform.Registry{},
		codecs:          NewCodecRegistry(),
		bus:             cfg.bus,
		metrics:         obs.NewMetrics(),
		collector:       obs.NewCollector(RetentionWindow),
		counters:        obs.NewExchangeCounters(),
		schedMetrics:    obs.NewSchedMetrics(),
		planMetrics:     obs.NewPlanMetrics(),
		healthMetrics:   obs.NewHealthMetrics(),
		recoveryMetrics: obs.NewRecoveryMetrics(),
		configMetrics:   obs.NewConfigMetrics(),
		canaryPolicy:    cfg.canaryPolicy,
		bodies:          map[VersionRef]any{},
		schedCfg:        cfg,
	}
	if h.bus == nil {
		h.bus = obs.NewBus()
	}
	if cfg.health != nil {
		h.health = health.NewTracker(*cfg.health, func(partner string, from, to health.State) {
			h.bus.Emit(obs.Event{
				Partner: partner,
				Kind:    obs.KindHealth,
				Stage:   obs.StageHealth,
				Step:    breakerStep(to),
			})
		})
	}
	h.bus.Attach(h.metrics)
	h.bus.Attach(h.collector)
	h.bus.Attach(h.counters)
	h.bus.Attach(h.schedMetrics)
	h.bus.Attach(h.planMetrics)
	h.bus.Attach(h.healthMetrics)
	h.bus.Attach(h.recoveryMetrics)
	h.bus.Attach(h.configMetrics)
	h.jrnFS = cfg.journalFS
	h.dur.policy = cfg.jrnPolicy
	if h.dur.policy == "" {
		h.dur.policy = FailStop
	}
	h.dur.probeInterval = cfg.probeInterval
	if h.dur.probeInterval <= 0 {
		h.dur.probeInterval = DefaultJournalProbeInterval
	}
	if cfg.journalPath != "" {
		j, err := journal.Open(cfg.journalPath, journal.Options{Fsync: cfg.fsync, FS: cfg.journalFS})
		if err != nil {
			return nil, fmt.Errorf("core: open journal: %w", err)
		}
		h.jrn = j
	}
	h.ledger = newLedger(h.jrn, &h.dur, h.collector, cfg.dlqCap, cfg.exchIDBase)
	transform.RegisterAll(h.reg)
	for _, b := range m.Backends {
		sys, err := newSystem(b)
		if err != nil {
			return nil, err
		}
		h.Systems[b.Name] = sys
	}
	handlers := wf.NewHandlers()
	h.registerHandlers(handlers)
	for _, b := range m.Backends {
		h.appHandlersFor(b)
	}
	// The engine compiles every deployed type against the hub's routing
	// fabric (checkPort) so broken models are rejected before any exchange
	// runs; WithStepParallelism passes through to the plan interpreter.
	engOpts := []wf.EngineOption{wf.WithPortChecker(h.checkPort)}
	if cfg.stepParallelism > 1 {
		engOpts = append(engOpts, wf.WithStepParallelism(cfg.stepParallelism))
	}
	h.Engine = wf.NewEngine("hub", wfstore.NewMemStore(), handlers, h.portFunc, engOpts...)
	// Every compilation — eager at deploy, lazy on first execution of a
	// store-loaded type — surfaces as a plan event keyed by the type.
	h.Engine.SetPlanObserver(func(t *wf.TypeDef, p *wf.Plan, elapsed time.Duration, err error) {
		step := obs.StepCompiled
		if err != nil {
			step = obs.StepRejected
		}
		h.bus.Emit(obs.Event{
			ExchangeID: t.Key(),
			Kind:       obs.KindPlan,
			Stage:      obs.StagePlan,
			Step:       step,
			Elapsed:    elapsed,
			Err:        err,
		})
	})
	// Every step execution anywhere in the chain surfaces as a step event
	// attributed to its exchange and pipeline stage.
	h.Engine.SetStepObserver(func(in *wf.Instance, s *wf.StepDef, elapsed time.Duration, err error) {
		exID, _ := in.Data["exchange"].(string)
		partner, _ := in.Data["source"].(string)
		h.bus.Emit(obs.Event{
			ExchangeID: exID,
			Partner:    partner,
			Kind:       obs.KindStep,
			Stage:      stageOf(in.Type),
			Step:       s.Name,
			Elapsed:    elapsed,
			Err:        err,
		})
	})
	// Transient step failures are retried under the binding's RetryPolicy
	// (see retry.go); without configured policies the decider retries
	// nothing beyond each step's own Retries budget.
	h.Engine.SetRetryDecider(h.retryDecider)
	if err := h.seed(m); err != nil {
		return nil, err
	}
	if h.jrn != nil {
		h.openJournal()
	}
	return h, nil
}

// seed deploys the startup model and publishes a copy of it as the first
// snapshot, so neither the hub nor a later Model.Apply by the caller writes
// what the other reads. Every type, rule set and transform program joins
// version management at the version the startup model gives it, so
// exchanges pin them all.
func (h *Hub) seed(m *Model) error {
	m = m.clone()
	store := cfgstore.New()
	register := func(class cfgstore.Class, name string, version int) error {
		epoch, err := store.Register(class, name, version, "seed")
		if err == nil {
			h.bus.Emit(configEvent(obs.StepSwapped, "", class, name, version, epoch))
		}
		return err
	}
	for _, t := range m.AllTypes() {
		if err := h.deployType(t); err != nil {
			return err
		}
		if err := register(classOf(t.Name), t.Name, t.Version); err != nil {
			return err
		}
	}
	for _, name := range m.Rules.SetNames() {
		if err := register(cfgstore.ClassRules, name, 1); err != nil {
			return err
		}
		h.bodies[VersionRef{Class: cfgstore.ClassRules, Name: name, Version: 1}], _ = m.Rules.Lookup(name)
	}
	for _, name := range h.reg.Keys() {
		if err := register(cfgstore.ClassTransform, name, 1); err != nil {
			return err
		}
	}
	h.publish(&Snapshot{Model: m, store: store, cfg: store.Snapshot()})
	return nil
}

func newSystem(b Backend) (backend.System, error) {
	switch b.Format {
	case formats.SAPIDoc:
		return backend.NewSAP(b.Name, nil), nil
	case formats.OracleOIF:
		return backend.NewOracle(b.Name, nil), nil
	}
	return nil, fmt.Errorf("core: backend format %s is not executable", b.Format)
}

// registerHandlers registers the generic handler set. Note what is NOT
// here: no per-partner logic. Transform handlers are parameterized per
// protocol and per backend because transformations belong to bindings;
// rule evaluation goes through the external registry.
func (h *Hub) registerHandlers(reg *wf.Handlers) {
	for _, p := range []formats.Format{formats.EDI, formats.RosettaNet, formats.OAGIS} {
		p := p
		reg.Register("bind-xform-in:"+string(p), func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			nd, err := h.applyXform(ctx, p, formats.Normalized, doc.TypePO, in.Document())
			if err != nil {
				return err
			}
			in.SetDocument(nd)
			return nil
		})
		reg.Register("bind-xform-out:"+string(p), func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			native, err := h.applyXform(ctx, formats.Normalized, p, doc.TypePOA, in.Document())
			if err != nil {
				return err
			}
			in.SetDocument(native)
			return nil
		})
		reg.Register("bind-inv-xform:"+string(p), func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			native, err := h.applyXform(ctx, formats.Normalized, p, doc.TypeINV, in.Document())
			if err != nil {
				return err
			}
			in.SetDocument(native)
			return nil
		})
	}
	reg.Register("rule:"+ApprovalRuleSet, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		source, _ := in.Data["source"].(string)
		target, _ := in.Data["target"].(string)
		decision, err := h.evalRules(ctx, ApprovalRuleSet, source, target, in.Document())
		if err != nil {
			return err
		}
		in.Data["needsApproval"] = decision.Result
		in.Data["ruleApplied"] = decision.Rule
		return nil
	})
	reg.Register("rule:"+InvoiceReviewRuleSet, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		source, _ := in.Data["source"].(string)
		target, _ := in.Data["target"].(string)
		decision, err := h.evalRules(ctx, InvoiceReviewRuleSet, source, target, in.Document())
		if err != nil {
			return err
		}
		in.Data["reviewNeeded"] = decision.Result
		in.Data["ruleApplied"] = decision.Rule
		return nil
	})
	reg.Register("review", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		in.Data["reviewed"] = true
		return nil
	})
	reg.Register("approve", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		in.Data["approved"] = true
		return nil
	})
	reg.Register("audit", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		in.Data["audited"] = true
		return nil
	})
	reg.Register("transport-ack", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		return nil // acknowledged at the messaging layer; modeled as a step
	})
	reg.Register("produce-997", func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		po, ok := in.Document().(*edi.PO850)
		if !ok {
			return fmt.Errorf("core: produce-997 expects an *edi.PO850, got %T", in.Document())
		}
		in.Data["signal"] = &edi.FA997{
			SenderID:   po.ReceiverID,
			ReceiverID: po.SenderID,
			Control:    po.Control + 1,
			AckNumber:  fmt.Sprintf("997-%09d", po.Control),
			RefGroupID: "PO",
			RefControl: po.Control,
			Accepted:   true,
			Date:       po.Date,
		}
		return nil
	})
	h.handlerReg = reg
}

// appHandlersFor registers the application-binding handlers of one back
// end; AddBackend calls it for a back end added to a live hub. The
// handlers resolve the backend system at execution time, through the hub
// lock, because a back end's system is installed when its change is
// published.
func (h *Hub) appHandlersFor(b Backend) {
	reg, bName := h.handlerReg, b.Name
	// Every handler of the binding runs each attempt under the backend's
	// PerAttemptTimeout (when a policy configures one).
	register := func(name string, fn wf.Handler) { reg.Register(name, h.withAttemptTimeout(bName, fn)) }
	register("app-xform-in:"+bName, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		po, ok := in.Document().(*doc.PurchaseOrder)
		if !ok {
			return fmt.Errorf("core: app binding expects a normalized PO, got %T", in.Document())
		}
		in.Data["poid"] = po.ID
		native, err := h.applyXform(ctx, formats.Normalized, b.Format, doc.TypePO, po)
		if err != nil {
			return err
		}
		in.SetDocument(native)
		return nil
	})
	register("app-store:"+bName, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		codec, err := h.codecs.Lookup(b.Format, doc.TypePO)
		if err != nil {
			return err
		}
		wire, err := codec.Encode(in.Document())
		if err != nil {
			return err
		}
		sys, ok := h.system(bName)
		if !ok {
			return fmt.Errorf("core: no system deployed for backend %q", bName)
		}
		// A resubmitted dead letter may have stored the order before
		// failing downstream; the backend's duplicate elimination then
		// satisfies this step without a second mutation.
		return tolerateDuplicate(in, sys.Submit(ctx, wire))
	})
	register("app-extract:"+bName, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		sys, ok := h.system(bName)
		if !ok {
			return fmt.Errorf("core: no system deployed for backend %q", bName)
		}
		poID, _ := in.Data["poid"].(string)
		if poID == "" {
			return fmt.Errorf("core: app binding lost the order identifier")
		}
		if _, err := sys.Process(ctx); err != nil {
			return err
		}
		// Extract this exchange's acknowledgment specifically:
		// concurrent exchanges share the back end.
		wire, ok2, err := sys.ExtractByPO(ctx, poID)
		if err != nil {
			return err
		}
		if !ok2 {
			return fmt.Errorf("core: backend %s produced no acknowledgment for %s", bName, poID)
		}
		codec, err := h.codecs.Lookup(b.Format, doc.TypePOA)
		if err != nil {
			return err
		}
		native, err := codec.Decode(wire)
		if err != nil {
			return err
		}
		in.SetDocument(native)
		return nil
	})
	register("app-xform-out:"+bName, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		nd, err := h.applyXform(ctx, b.Format, formats.Normalized, doc.TypePOA, in.Document())
		if err != nil {
			return err
		}
		in.SetDocument(nd)
		return nil
	})
	register("app-inv-extract:"+bName, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		sys, ok := h.system(bName)
		if !ok {
			return fmt.Errorf("core: no system deployed for backend %q", bName)
		}
		poID, _ := in.Data["poid"].(string)
		if poID == "" {
			return fmt.Errorf("core: invoice extraction requires the order identifier")
		}
		wire, ok2, err := sys.ExtractInvoiceByPO(ctx, poID)
		if err != nil {
			return err
		}
		if !ok2 {
			return fmt.Errorf("core: backend %s has no billing document for %s", bName, poID)
		}
		codec, err := h.codecs.Lookup(b.Format, doc.TypeINV)
		if err != nil {
			return err
		}
		native, err := codec.Decode(wire)
		if err != nil {
			return err
		}
		in.SetDocument(native)
		return nil
	})
	register("app-inv-xform:"+bName, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
		nd, err := h.applyXform(ctx, b.Format, formats.Normalized, doc.TypeINV, in.Document())
		if err != nil {
			return err
		}
		in.SetDocument(nd)
		return nil
	})
}

// portFunc enqueues routing work onto the owning exchange's queue; the
// exchange's pump drains it between engine calls (never re-entering an
// instance that is still advancing).
func (h *Hub) portFunc(ctx context.Context, in *wf.Instance, s *wf.StepDef, payload any) error {
	ex := exchangeFrom(ctx)
	if ex == nil {
		return fmt.Errorf("core: instance %s has no exchange context", in.ID)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ex.queue = append(ex.queue, routeTask{port: s.Port, payload: payload})
	return nil
}

// exchangeKey is the context key an exchange's goroutine carries its record
// under, so the engine callbacks of its steps (ports, handlers, retry
// decisions) find it without taking the ledger's lock.
type exchangeKey struct{}

func withExchange(ctx context.Context, ex *Exchange) context.Context {
	return context.WithValue(ctx, exchangeKey{}, ex)
}

// exchangeFrom returns the exchange ctx carries, nil outside one.
func exchangeFrom(ctx context.Context) *Exchange {
	ex, _ := ctx.Value(exchangeKey{}).(*Exchange)
	return ex
}

// system looks a backend system up under the hub lock (backends can be
// deployed while exchanges run).
func (h *Hub) system(name string) (backend.System, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sys, ok := h.Systems[name]
	return sys, ok
}

func (h *Hub) dequeue(ex *Exchange) (routeTask, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(ex.queue) == 0 {
		return routeTask{}, false
	}
	t := ex.queue[0]
	ex.queue = ex.queue[1:]
	return t, true
}
