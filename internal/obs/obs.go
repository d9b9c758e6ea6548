// Package obs is the runtime observability substrate of the hub: every hop
// of an exchange — step executions inside the workflow engine, routing
// between the chain's process instances, exchange start and completion —
// is emitted as a typed Event on a Bus that fans out to pluggable Sinks.
//
// Exchange traces (Collector), activity counters (ExchangeCounters) and
// per-stage latency histograms (Metrics) are derived views over the event
// stream, which the hub's Status snapshot reads.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies where in the integration pipeline an event originated.
// The stages mirror the paper's chain: public process → binding → private
// process → application binding, plus the hub's routing fabric and the
// exchange envelope itself.
type Stage string

// Pipeline stages.
const (
	StageExchange Stage = "exchange" // whole-exchange envelope events
	StagePublic   Stage = "public"   // public process steps
	StageBinding  Stage = "binding"  // protocol binding steps
	StagePrivate  Stage = "private"  // private process steps
	StageApp      Stage = "app"      // application binding steps
	StageRoute    Stage = "route"    // hub routing hops between instances
	StageSched    Stage = "sched"    // scheduler admission and dispatch
	StageHealth   Stage = "health"   // partner health tracking (breakers)
	StageRecovery Stage = "recovery" // journal replay after a restart
	StagePlan     Stage = "plan"     // workflow plan compilation at deploy
	StageConfig   Stage = "config"   // runtime configuration changes
	StageCluster  Stage = "cluster"  // multi-node federation (forwarding, takeover)
	// StageDurability is the journal's storage health: degraded-mode
	// transitions, disk probes and re-arms.
	StageDurability Stage = "durability"
)

// Kind classifies events.
type Kind string

// Event kinds.
const (
	// KindStep is one workflow step execution (task run, send, document
	// delivery wait parked, …). Step carries the step name.
	KindStep Kind = "step"
	// KindRoute is one routing hop between process instances. Step carries
	// the human-readable hop description ("public → binding").
	KindRoute Kind = "route"
	// KindExchange marks exchange lifecycle: Step is "started", "finished"
	// or "failed"; Elapsed on the terminal events is the end-to-end latency.
	// A "dead-letter" event follows "failed" when the hub parks the exchange
	// on its dead-letter queue.
	KindExchange Kind = "exchange"
	// KindRetry marks reliability-layer activity: Step is StepAttempt for a
	// failed delivery attempt (Err set, Elapsed is the attempt duration) or
	// StepBackoff for the pause before the next one (Elapsed is the backoff).
	KindRetry Kind = "retry"
	// KindHealth marks partner-health activity: breaker state transitions
	// (StepBreakerOpen / StepBreakerHalfOpen / StepBreakerClosed), probe
	// outcomes (StepProbe, Err set when the probe failed), and admission
	// rejections (StepFastFail for an open circuit, StepShed for the
	// adaptive load shedder). Partner names the breaker.
	KindHealth Kind = "health"
	// KindSched marks scheduler activity: Step is StepEnqueued or
	// StepBypassed when a submission is admitted to a shard queue,
	// StepDispatched when a worker picks it up, and StepCompleted (Elapsed
	// is the job's run time) when it finishes. Shard locates the queue.
	KindSched Kind = "sched"
	// KindRecovery marks journal replay after a restart: StepStarted and
	// StepFinished bracket one Recover pass (Elapsed on the latter is its
	// duration), StepRestored is one completed exchange restored as a
	// record, StepDeadLetterRestored is one dead letter restored to the
	// queue, and StepReplayed is one unfinished admission re-run through
	// the scheduler (Err set when the replay dead-lettered again).
	KindRecovery Kind = "recovery"
	// KindPlan marks workflow-type compilation at deploy time: Step is
	// StepCompiled when the type lowered into an executable plan (Elapsed is
	// the compile time) or StepRejected when compilation produced plan
	// errors (Err carries them). Partner-less: ExchangeID holds the type key
	// ("name@version").
	KindPlan Kind = "plan"
	// KindConfig marks runtime configuration changes on a live hub: Step is
	// StepSwapped for a hot-swapped artifact version, StepActivated for an
	// active-pointer move (rollback or promotion), and the canary-* steps
	// for canary deployment lifecycle. ExchangeID holds the artifact key
	// ("class:name@version"); Epoch carries the config epoch the change
	// produced.
	KindConfig Kind = "config"
	// KindCluster marks multi-node federation activity: forwards between
	// peers (StepForwarded / StepForwardRetry / StepForwardFailed, Partner
	// names the target partner), peer liveness transitions (StepPeerAlive /
	// StepPeerSuspect / StepPeerDead, ExchangeID holds the peer's node ID)
	// and journal takeover of a dead peer (StepTakeover, Elapsed is the
	// replay duration).
	KindCluster Kind = "cluster"
	// KindDurability marks journal storage-health transitions: Step is
	// StepDegraded when an append failure flips the hub to non-durable
	// admission (Err carries the disk error), StepProbe for each re-arm
	// probe of the disk (Err set when the probe failed), StepRearmed when a
	// probe succeeded and journaling resumed on a fresh segment,
	// StepAdmitRejected for a fail-stop admission rejection, and
	// StepPoisoned for an admission parked after repeatedly crashing
	// recovery.
	KindDurability Kind = "durability"
)

// Well-known Step values for lifecycle, retry and scheduler events.
const (
	StepStarted    = "started"
	StepFinished   = "finished"
	StepFailed     = "failed"
	StepDeadLetter = "dead-letter"
	StepAttempt    = "attempt"
	StepBackoff    = "backoff"
	// Scheduler steps (KindSched). StepBypassed is an enqueue that was
	// diverted away from its slow home shard by the admission layer.
	StepEnqueued   = "enqueued"
	StepBypassed   = "bypassed"
	StepDispatched = "dispatched"
	StepCompleted  = "completed"
	// Health steps (KindHealth). The three breaker-* steps record the state
	// a partner's circuit transitioned INTO.
	StepBreakerOpen     = "breaker-open"
	StepBreakerHalfOpen = "breaker-half-open"
	StepBreakerClosed   = "breaker-closed"
	StepProbe           = "probe"
	StepShed            = "shed"
	StepFastFail        = "fast-fail"
	// StepDLQEvict (KindHealth) records a dead letter pushed out of the
	// bounded in-memory queue: spilled to journal-only retention when the
	// hub has a journal, rejected outright when it does not.
	StepDLQEvict = "dlq-evict"
	// Plan steps (KindPlan).
	StepCompiled = "compiled"
	StepRejected = "rejected"
	// Recovery steps (KindRecovery).
	StepRestored           = "restored"
	StepDeadLetterRestored = "dead-letter-restored"
	StepReplayed           = "replayed"
	// Config steps (KindConfig). StepSwapped registers a new artifact
	// version as active; StepActivated moves the active pointer to an
	// already-registered version (rollback/promotion). The canary steps
	// bracket a canary deployment: started when a candidate begins taking a
	// traffic fraction, promoted/rolled-back when its verdict lands.
	StepSwapped          = "swapped"
	StepActivated        = "activated"
	StepCanaryStarted    = "canary-started"
	StepCanaryPromoted   = "canary-promoted"
	StepCanaryRolledBack = "canary-rolled-back"
	// Cluster steps (KindCluster). StepForwarded is one submit successfully
	// relayed to the partner's owner node; StepForwardRetry is a failed
	// attempt that will back off and retry; StepForwardFailed exhausted its
	// policy (the exchange parks on the local DLQ). The peer-* steps record
	// liveness transitions from heartbeating, and StepTakeover records a
	// dead peer's journal replayed by its successor.
	StepForwarded     = "forwarded"
	StepForwardRetry  = "forward-retry"
	StepForwardFailed = "forward-failed"
	StepPeerAlive     = "peer-alive"
	StepPeerSuspect   = "peer-suspect"
	StepPeerDead      = "peer-dead"
	StepTakeover      = "takeover"
	// Durability steps (KindDurability). StepDegraded and StepRearmed
	// bracket one degraded-mode episode; StepProbe is one disk probe in
	// between; StepAdmitRejected is one fail-stop admission rejection;
	// StepPoisoned is one admission parked for repeatedly crashing recovery.
	StepDegraded      = "degraded"
	StepRearmed       = "rearmed"
	StepAdmitRejected = "admit-rejected"
	StepPoisoned      = "poisoned"
)

// Flow distinguishes the business flow an exchange belongs to.
type Flow string

// Exchange flows.
const (
	FlowPO      Flow = "po"      // inbound purchase-order round trip
	FlowInvoice Flow = "invoice" // outbound one-way invoice
)

// Event is one structured observation from the exchange pipeline.
type Event struct {
	// Seq is a bus-global monotonically increasing sequence number; events
	// of one exchange are emitted by the goroutine driving it, so sorting
	// by Seq reconstructs its journey.
	Seq uint64
	// Time is the emission time.
	Time time.Time
	// ExchangeID names the exchange the event belongs to.
	ExchangeID string
	// Partner is the trading partner of the exchange.
	Partner string
	// Flow is the business flow (PO round trip or invoice), set on
	// KindExchange events.
	Flow Flow
	// Kind classifies the event; Stage locates it in the pipeline.
	Kind  Kind
	Stage Stage
	// Step is the step name (KindStep), hop description (KindRoute) or
	// lifecycle marker (KindExchange).
	Step string
	// Shard is the scheduler shard the event refers to (KindSched only).
	Shard int
	// Epoch is the config epoch a KindConfig event produced (0 elsewhere).
	Epoch int64
	// Elapsed is the duration of the observed unit of work.
	Elapsed time.Duration
	// Err is non-nil when the unit of work failed.
	Err error
}

// Sink consumes events. Implementations must be safe for concurrent use;
// Emit is called synchronously on the exchange's goroutine and must not
// block.
type Sink interface {
	Emit(Event)
}

// Bus stamps events with sequence numbers and fans them out to the
// attached sinks. The zero value is not usable; use NewBus.
type Bus struct {
	seq atomic.Uint64

	mu    sync.RWMutex
	sinks []Sink
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Attach adds a sink. Sinks attached while events are flowing only see
// events emitted after attachment.
func (b *Bus) Attach(s Sink) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sinks = append(b.sinks, s)
}

// Emit stamps the event (Seq, Time) and delivers it to every sink.
func (b *Bus) Emit(e Event) {
	e.Seq = b.seq.Add(1)
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	b.mu.RLock()
	sinks := b.sinks
	b.mu.RUnlock()
	for _, s := range sinks {
		s.Emit(e)
	}
}

// FuncSink adapts a function to the Sink interface.
type FuncSink func(Event)

// Emit implements Sink.
func (f FuncSink) Emit(e Event) { f(e) }
