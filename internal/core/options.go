package core

import (
	"time"

	"repro/internal/cfgstore"
	"repro/internal/health"
	"repro/internal/journal"
	"repro/internal/msg"
	"repro/internal/obs"
)

// Scheduler defaults. A hub constructed without options runs one shard of
// DefaultWorkers workers, started on the first submission or by
// StartScheduler.
const (
	// DefaultShards is the shard count when WithShards is not given.
	DefaultShards = 1
	// DefaultWorkers is the per-shard worker count when WithWorkersPerShard
	// is not given.
	DefaultWorkers = 4
	// DefaultQueueDepthPerWorker sizes each shard's queue at a few jobs per
	// worker: enough to keep workers busy, small enough that submitters
	// feel backpressure.
	DefaultQueueDepthPerWorker = 4
)

// hubConfig collects the scheduler and observability knobs of NewHub.
type hubConfig struct {
	shards          int
	workersPerShard int
	queueDepth      int
	bus             *obs.Bus
	health          *health.Config
	journalPath     string
	fsync           journal.FsyncPolicy
	journalFS       journal.FS
	jrnPolicy       JournalFailurePolicy
	probeInterval   time.Duration
	dlqCap          int
	stepParallelism int
	canaryPolicy    cfgstore.CanaryPolicy
	exchIDBase      int
}

// HubOption configures NewHub without growing its signature.
type HubOption func(*hubConfig)

// WithShards sets the scheduler's shard count (minimum 1). Exchanges hash
// by trading partner onto shards, so partners on different shards cannot
// stall each other.
func WithShards(n int) HubOption {
	return func(c *hubConfig) {
		if n >= 1 {
			c.shards = n
		}
	}
}

// WithWorkersPerShard sets how many workers drain each shard's queue
// (minimum 1).
func WithWorkersPerShard(n int) HubOption {
	return func(c *hubConfig) {
		if n >= 1 {
			c.workersPerShard = n
		}
	}
}

// WithQueueDepth bounds each shard's queue (minimum 1). Submitters block
// once a shard's queue is full — admission backpressure.
func WithQueueDepth(n int) HubOption {
	return func(c *hubConfig) {
		if n >= 1 {
			c.queueDepth = n
		}
	}
}

// WithBus makes the hub emit on an externally owned event bus instead of
// creating its own, so several hubs (or a test harness) can share one
// observer fabric. Each hub's trace collector then sees every hub's events:
// hubs that share a bus need disjoint exchange IDs (WithExchangeIDBase),
// or same-numbered exchanges share a trace.
func WithBus(b *obs.Bus) HubOption {
	return func(c *hubConfig) {
		if b != nil {
			c.bus = b
		}
	}
}

// WithHealth enables the partner health tracker: a sliding-window
// failure-rate circuit breaker per trading partner (see internal/health)
// consulted at admission. Open circuits fast-fail submissions into the
// dead-letter queue without consuming workers or retry attempts; degraded
// partners have their normal-priority work shed under shard-queue
// pressure. Hubs built without this option track nothing and admit
// everything (the pre-breaker behavior).
func WithHealth(cfg health.Config) HubOption {
	return func(c *hubConfig) { c.health = &cfg }
}

// WithJournal write-ahead-logs the hub's exchange lifecycle to the file at
// path (see internal/journal): every admission through Do/DoAsync is
// journaled before the scheduler sees it, terminal outcomes append
// completion records, and Recover replays the log after a restart —
// unfinished admissions re-run with duplicate tolerance, dead letters come
// back replayable via Resubmit. NewHub fails when the journal cannot be
// opened.
func WithJournal(path string) HubOption {
	return func(c *hubConfig) { c.journalPath = path }
}

// WithFsyncPolicy selects the journal's durability level (default
// journal.FsyncBatched — group commit). Only meaningful WithJournal.
func WithFsyncPolicy(p journal.FsyncPolicy) HubOption {
	return func(c *hubConfig) { c.fsync = p }
}

// WithJournalFS threads a storage seam (journal.FS) under the hub's
// journal: every file operation of the write-ahead log goes through it.
// The chaos harness injects disk faults with journal.NewFaultFS; nil (the
// default) is the real filesystem. Only meaningful WithJournal.
func WithJournalFS(fs journal.FS) HubOption {
	return func(c *hubConfig) { c.journalFS = fs }
}

// WithJournalFailurePolicy selects what happens to admissions whose
// journal append fails: FailStop (the default) rejects them with
// ErrJournalUnavailable, FailDegraded keeps admitting non-durably while a
// background prober watches for the disk to heal and re-arms journaling
// on a fresh segment once it does. Only meaningful WithJournal.
func WithJournalFailurePolicy(p JournalFailurePolicy) HubOption {
	return func(c *hubConfig) { c.jrnPolicy = p }
}

// WithJournalProbeInterval tunes how often a degraded hub probes the disk
// for recovery (default DefaultJournalProbeInterval). Only meaningful
// with WithJournalFailurePolicy(FailDegraded).
func WithJournalProbeInterval(d time.Duration) HubOption {
	return func(c *hubConfig) {
		if d > 0 {
			c.probeInterval = d
		}
	}
}

// WithDLQCap bounds the in-memory dead-letter queue at n entries (0, the
// default, is unbounded). When the queue is full, a hub with a journal
// spills its oldest journaled entry to journal-only retention (a later
// Recover restores it); a hub without one rejects the incoming entry.
// Either way a KindHealth dlq-evict event feeds Status().Partners.
func WithDLQCap(n int) HubOption {
	return func(c *hubConfig) {
		if n >= 0 {
			c.dlqCap = n
		}
	}
}

// WithStepParallelism lets the workflow engine execute independent ready
// steps of one instance concurrently, up to n at a time (minimum 1, the
// default). Parallelism applies within a single advance — two sends on
// disjoint branches go out together — and is safe only because compiled
// plans know each step's declared reads/writes. n == 1 keeps the strictly
// serial step order.
func WithStepParallelism(n int) HubOption {
	return func(c *hubConfig) {
		if n >= 1 {
			c.stepParallelism = n
		}
	}
}

// WithCanaryPolicy sets the verdict policy for canary deployments started
// via Hub.Canary: how many candidate samples must accumulate before a
// verdict, and how much worse than the incumbent the candidate's failure
// rate may be before it is rolled back. The zero-valued fields fall back to
// cfgstore.DefaultCanaryPolicy.
func WithCanaryPolicy(p cfgstore.CanaryPolicy) HubOption {
	return func(c *hubConfig) { c.canaryPolicy = p }
}

// WithExchangeIDBase floors the exchange ID sequence at base, so the first
// allocated ID is "ex-<base+1>". Federated hubs give each cluster node a
// disjoint base (node index × a wide stride): exchange IDs stay unique
// across the cluster, and a successor can restore a dead peer's exchanges
// under their original IDs without colliding with its own.
func WithExchangeIDBase(base int) HubOption {
	return func(c *hubConfig) {
		if base > 0 {
			c.exchIDBase = base
		}
	}
}

// queueDepthOrDefault resolves the effective per-shard queue bound.
func (c hubConfig) queueDepthOrDefault() int {
	if c.queueDepth > 0 {
		return c.queueDepth
	}
	return DefaultQueueDepthPerWorker * c.workersPerShard
}

// serverConfig collects NewServer's knobs.
type serverConfig struct {
	reliable msg.ReliableConfig
}

// ServerOption configures NewServer without growing its signature.
type ServerOption func(*serverConfig)

// WithReliableConfig sets the reliable-messaging parameters (retransmit
// timeout, attempt budget) of the server's endpoint.
func WithReliableConfig(cfg msg.ReliableConfig) ServerOption {
	return func(c *serverConfig) { c.reliable = cfg }
}
