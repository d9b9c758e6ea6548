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
	"repro/internal/rules"
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

	// route is the partner's cached binding resolution, captured at
	// admission so the exchange never re-derives type names per hop.
	route resolvedRoute

	// resubmit marks a dead-letter replay: its app binding tolerates the
	// backend's duplicate-order rejection.
	resubmit bool

	// deadLettered records that the exchange was parked on the dead-letter
	// queue. Set by the goroutine driving the exchange before its result
	// resolves; journalComplete classifies the terminal outcome by it.
	deadLettered bool

	// retry is the per-call retry policy override (Request.Retry), nil to
	// use the hub's configured policies.
	retry *RetryPolicy

	// cfg is the admission-time config snapshot (epoch + active artifact
	// versions): every stage of this exchange resolves its artifact version
	// from this one snapshot, so hot-swaps concurrent with the exchange are
	// invisible to it. Immutable after newExchange.
	cfg cfgstore.Snapshot

	// canary is the partner's canary run at admission time (nil if none);
	// canaryArm marks this exchange as routed to the candidate version.
	canary    *canaryRun
	canaryArm bool
}

// ConfigEpoch returns the config epoch the exchange was admitted under.
func (ex *Exchange) ConfigEpoch() int64 { return ex.cfg.Epoch }

// CanaryArm reports whether the exchange rode a canary candidate version.
func (ex *Exchange) CanaryArm() bool { return ex.canaryArm }

// routeTask is one queued hop between process instances.
type routeTask struct {
	exchangeID string
	port       string
	payload    any
}

// Hub is the integration engine runtime: it hosts the model's workflow
// types on one engine, evaluates business rules through the external
// registry, talks to the back-end systems, and routes documents through
// public process → binding → private process → application binding and
// back (Figure 14).
type Hub struct {
	Model  *Model
	Engine *wf.Engine
	// Systems maps backend name to the simulated ERP.
	Systems map[string]backend.System

	reg    *transform.Registry
	codecs *formats.Registry

	mu        sync.Mutex
	exchanges map[string]*Exchange
	exchSeq   int

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
	// lazily started with.
	schedMu     sync.Mutex
	sched       *scheduler
	schedClosed bool
	schedCfg    hubConfig

	// Binding-resolution cache (see exchange.go): partner ID → resolved
	// route, invalidated wholesale on deploy-time changes.
	routeMu sync.RWMutex
	routes  map[string]resolvedRoute

	// appHandlersFor registers the app-binding handlers for one backend;
	// kept so the change manager can wire backends added after startup.
	appHandlersFor func(backendName string)
	handlerReg     *wf.Handlers

	// Reliability layer (see retry.go): per-binding retry policies and the
	// dead-letter queue of exchanges that exhausted theirs.
	retryMu       sync.RWMutex
	retryPolicies map[string]RetryPolicy
	defaultRetry  RetryPolicy
	dlqMu         sync.Mutex
	dlq           []DeadLetter

	// Partner health tracking (see health.go in this package and
	// internal/health): nil unless the hub was built WithHealth. The
	// tracker's breakers gate admission in Do/DoAsync; healthMetrics
	// derives per-partner gauges from the KindHealth events; shed counts
	// submissions dropped by the adaptive shedder for Drain's summary.
	health        *health.Tracker
	healthMetrics *obs.HealthMetrics
	shed          atomic.Int64

	// Durability layer (see journal.go in this package and
	// internal/journal): nil unless the hub was built WithJournal. jrnMu
	// orders journal appends and guards the live compaction index
	// (jrnPending: admissions without a terminal outcome; jrnDead:
	// unresolved dead letters) plus jrnSeq, the admission-key sequence.
	// jrnStartup is the open-time replay snapshot, consumed once by
	// Recover. Lock order: h.mu is never taken inside jrnMu.
	// jrnAttempts counts recovery replay attempts per pending admission
	// key (poison detection); jrnFS is the storage seam under the journal
	// (and TakeOverJournal's reads), nil meaning the real filesystem.
	jrn             *journal.Journal
	jrnFS           journal.FS
	jrnMu           sync.Mutex
	jrnSeq          int
	jrnPending      map[string]*journalRequest
	jrnDead         map[string]journalOutcome
	jrnAttempts     map[string]int
	jrnStartup      *journalSnapshot
	recoveryMetrics *obs.RecoveryMetrics
	// dur is the storage-health state of the durability failure policy
	// (see durability.go).
	dur durability

	// dlqCap bounds the in-memory dead-letter queue (0 = unbounded).
	dlqCap int

	// Runtime change management (see config.go): cfg is the versioned
	// config store every admission snapshots; configMetrics derives the
	// change gauges from KindConfig events; canaryMu guards the per-partner
	// canary runs. Lock order: canaryMu is never taken inside h.mu or jrnMu.
	cfg           *cfgstore.Store
	configMetrics *obs.ConfigMetrics
	canaryPolicy  cfgstore.CanaryPolicy
	canaryMu      sync.Mutex
	canaries      map[string]*canaryRun
	// swapMu serializes hot-swap/canary/rollback operations (they mutate
	// model maps and assign version numbers). Never taken inside canaryMu.
	swapMu sync.Mutex

	// Frozen non-workflow artifact versions: when a rule set or transform is
	// hot-swapped, the displaced value is kept here under its version so
	// pinned exchanges keep evaluating exactly what they admitted under.
	frozenMu     sync.RWMutex
	frozenRules  map[string]map[int]*rules.Set
	frozenXforms map[string]map[int]transform.Transformer

	// Federation (see federation.go): clusterFn is the registered provider
	// of StatusSnapshot's cluster section, set by the cluster node wrapping
	// this hub (nil on standalone hubs).
	clusterMu sync.Mutex
	clusterFn func() *ClusterStatus
}

// Bus exposes the hub's event bus; attach sinks to observe the pipeline.
func (h *Hub) Bus() *obs.Bus { return h.bus }

// Events returns the retained event history of one exchange in emission
// order.
func (h *Hub) Events(exchangeID string) []obs.Event { return h.collector.Events(exchangeID) }

// Trace renders an exchange's routing journey as human-readable hop
// strings — the structured replacement for the old Exchange.Trace journal.
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
// WithQueueDepth), the default retry policy (WithRetryPolicy) and the event
// bus (WithBus); a hub built without options behaves like the former
// single-pool hub.
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
		exchanges:       map[string]*Exchange{},
		bus:             cfg.bus,
		metrics:         obs.NewMetrics(),
		collector:       obs.NewCollector(0),
		counters:        obs.NewExchangeCounters(),
		schedMetrics:    obs.NewSchedMetrics(),
		planMetrics:     obs.NewPlanMetrics(),
		healthMetrics:   obs.NewHealthMetrics(),
		recoveryMetrics: obs.NewRecoveryMetrics(),
		configMetrics:   obs.NewConfigMetrics(),
		canaryPolicy:    cfg.canaryPolicy,
		canaries:        map[string]*canaryRun{},
		frozenRules:     map[string]map[int]*rules.Set{},
		frozenXforms:    map[string]map[int]transform.Transformer{},
		schedCfg:        cfg,
		dlqCap:          cfg.dlqCap,
		exchSeq:         cfg.exchIDBase,
	}
	// The versioned config store must exist before the journal is opened:
	// initJournal replays config records into it.
	h.cfg = cfgstore.New()
	if h.bus == nil {
		h.bus = obs.NewBus()
	}
	if cfg.defaultRetry != nil {
		h.defaultRetry = *cfg.defaultRetry
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
		h.initJournal()
	}
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
	for _, t := range m.AllTypes() {
		if err := h.deployType(t); err != nil {
			return nil, err
		}
	}
	// Rule sets and transform programs join version management at v1 so
	// exchanges pin them like process artifacts. registerArtifact skips
	// versions already restored from the journal on a restart.
	for _, set := range m.Rules.SetNames() {
		if _, err := h.registerArtifact(cfgstore.ClassRules, set, 1, "seed", false); err != nil {
			return nil, err
		}
	}
	for _, name := range h.reg.Keys() {
		if _, err := h.registerArtifact(cfgstore.ClassTransform, name, 1, "seed", false); err != nil {
			return nil, err
		}
	}
	return h, nil
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

// DeployBackend adds a backend system created after hub construction (used
// by the change manager when a backend is added at runtime).
func (h *Hub) DeployBackend(b Backend) error {
	sys, err := newSystem(b)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.Systems[b.Name] = sys
	h.mu.Unlock()
	ab, ok := h.Model.AppBindings[b.Name]
	if !ok {
		return fmt.Errorf("core: model has no app binding for %q", b.Name)
	}
	h.appHandlersFor(b.Name)
	h.invalidateRoutes()
	return h.deployType(ab)
}

// registerHandlers registers the generic handler set. Note what is NOT
// here: no per-partner logic. Transform handlers are parameterized per
// protocol and per backend because transformations belong to bindings;
// rule evaluation goes through the external registry.
func (h *Hub) registerHandlers(reg *wf.Handlers) {
	for _, p := range []formats.Format{formats.EDI, formats.RosettaNet, formats.OAGIS} {
		p := p
		reg.Register("bind-xform-in:"+string(p), func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			nd, err := h.applyXform(in, p, formats.Normalized, doc.TypePO, in.Document())
			if err != nil {
				return err
			}
			in.SetDocument(nd)
			return nil
		})
		reg.Register("bind-xform-out:"+string(p), func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			native, err := h.applyXform(in, formats.Normalized, p, doc.TypePOA, in.Document())
			if err != nil {
				return err
			}
			in.SetDocument(native)
			return nil
		})
		reg.Register("bind-inv-xform:"+string(p), func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			native, err := h.applyXform(in, formats.Normalized, p, doc.TypeINV, in.Document())
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
		decision, err := h.evalRules(in, ApprovalRuleSet, source, target, in.Document())
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
		decision, err := h.evalRules(in, InvoiceReviewRuleSet, source, target, in.Document())
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
	h.registerAppHandlers(reg)
}

// registerAppHandlers wires the application-binding handlers. They resolve
// the backend system at execution time so backends added later work too.
func (h *Hub) registerAppHandlers(reg *wf.Handlers) {
	appHandlersFor := func(bName string) {
		// Every handler of the binding runs each attempt under the
		// backend's PerAttemptTimeout (when a policy configures one).
		register := func(name string, fn wf.Handler) { reg.Register(name, h.withAttemptTimeout(bName, fn)) }
		register("app-xform-in:"+bName, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			b, ok := h.Model.BackendByName(bName)
			if !ok {
				return fmt.Errorf("core: unknown backend %q", bName)
			}
			po, ok := in.Document().(*doc.PurchaseOrder)
			if !ok {
				return fmt.Errorf("core: app binding expects a normalized PO, got %T", in.Document())
			}
			in.Data["poid"] = po.ID
			native, err := h.applyXform(in, formats.Normalized, b.Format, doc.TypePO, po)
			if err != nil {
				return err
			}
			in.SetDocument(native)
			return nil
		})
		register("app-store:"+bName, func(ctx context.Context, in *wf.Instance, s *wf.StepDef) error {
			b, _ := h.Model.BackendByName(bName)
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
			b, _ := h.Model.BackendByName(bName)
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
			b, _ := h.Model.BackendByName(bName)
			nd, err := h.applyXform(in, b.Format, formats.Normalized, doc.TypePOA, in.Document())
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
			b, _ := h.Model.BackendByName(bName)
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
			b, _ := h.Model.BackendByName(bName)
			nd, err := h.applyXform(in, b.Format, formats.Normalized, doc.TypeINV, in.Document())
			if err != nil {
				return err
			}
			in.SetDocument(nd)
			return nil
		})
	}
	for _, b := range h.Model.Backends {
		appHandlersFor(b.Name)
	}
	// Allow later-added backends: expose for the change manager.
	h.appHandlersFor = appHandlersFor
	h.handlerReg = reg
}

// portFunc enqueues routing work onto the owning exchange's queue; the
// exchange's pump drains it between engine calls (never re-entering an
// instance that is still advancing).
func (h *Hub) portFunc(ctx context.Context, in *wf.Instance, s *wf.StepDef, payload any) error {
	exID, _ := in.Data["exchange"].(string)
	if exID == "" {
		return fmt.Errorf("core: instance %s has no exchange context", in.ID)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ex, ok := h.exchanges[exID]
	if !ok {
		return fmt.Errorf("core: instance %s references unknown exchange %q", in.ID, exID)
	}
	ex.queue = append(ex.queue, routeTask{exchangeID: exID, port: s.Port, payload: payload})
	return nil
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
