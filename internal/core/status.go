package core

import (
	"time"

	"repro/internal/obs"
)

// The unified read API: everything an operator (or a remote admin client)
// can ask the hub collapses into one versioned, JSON-serializable
// StatusSnapshot returned by Hub.Status, the only read path over the
// hub's metric sinks; internal/server serves Status verbatim as the ops
// endpoint and `b2bctl status` renders it.

// StatusVersion is the schema version of StatusSnapshot. It is bumped when
// a field changes meaning or is removed; additive fields do not bump it.
// Remote clients compare it against the version they were compiled for.
const StatusVersion = 1

// SchedStatus is the scheduler section of a StatusSnapshot.
type SchedStatus struct {
	// Shards is the number of scheduler shards (0 until the scheduler has
	// been started).
	Shards int `json:"shards"`
	// Running reports whether the scheduler is started and admitting work
	// (it starts on the first submission or StartScheduler, and stops for
	// good at Drain).
	Running bool `json:"running"`
	// Shed counts submissions dropped by the adaptive load shedder.
	Shed int64 `json:"shed"`
	// PerShard is the live per-shard queue/busy/completed gauge set.
	PerShard []obs.ShardSnapshot `json:"per_shard,omitempty"`
}

// DLQStatus is the dead-letter-queue section of a StatusSnapshot.
type DLQStatus struct {
	// Depth is the current in-memory queue length.
	Depth int `json:"depth"`
	// Cap is the configured bound (0 = unbounded).
	Cap int `json:"cap"`
}

// JournalStatus is the durability section of a StatusSnapshot.
type JournalStatus struct {
	// Enabled reports whether the hub was built WithJournal.
	Enabled bool `json:"enabled"`
	// PendingAdmits is the number of journaled admissions without a
	// terminal outcome record — the exchanges a crash right now would
	// replay on Recover.
	PendingAdmits int `json:"pending_admits"`
	// UnresolvedDeadLetters is the number of journaled dead letters not
	// yet resolved by a successful Resubmit.
	UnresolvedDeadLetters int `json:"unresolved_dead_letters"`
}

// StatusSnapshot is the hub's whole observable state at one instant, with
// stable JSON field names. Fields are point-in-time copies; the snapshot
// is safe to serialize and retain.
type StatusSnapshot struct {
	// Version is the StatusSnapshot schema version (StatusVersion).
	Version int `json:"version"`
	// Time is when the snapshot was taken.
	Time time.Time `json:"time"`

	// Exchanges is the lifecycle counter set (started/failed/retries/
	// dead-lettered, by flow and partner).
	Exchanges obs.CountersSnapshot `json:"exchanges"`
	// Stages is the per-pipeline-stage latency/error table.
	Stages []obs.StageSnapshot `json:"stages,omitempty"`
	// Sched is the sharded-scheduler section.
	Sched SchedStatus `json:"sched"`
	// Partners is the per-partner health gauge set (breaker state,
	// fast-fails, sheds, probes); empty on hubs built without WithHealth.
	Partners []obs.HealthSnapshot `json:"partners,omitempty"`
	// DLQ is the dead-letter-queue section.
	DLQ DLQStatus `json:"dlq"`
	// Journal is the durability section.
	Journal JournalStatus `json:"journal"`
	// Recovery is the crash-recovery gauge set.
	Recovery obs.RecoverySnapshot `json:"recovery"`
	// Config is the runtime-change gauge set (swaps, canaries, epoch).
	Config obs.ConfigSnapshot `json:"config"`
	// Plans is the workflow-compilation gauge set.
	Plans obs.PlanSnapshot `json:"plans"`
	// Cluster is the federation section (nil on standalone hubs). It is an
	// additive field with its own schema version (ClusterVersion), so its
	// presence does not bump StatusVersion.
	Cluster *ClusterStatus `json:"cluster,omitempty"`
	// Durability is the storage-health section (nil on hubs built without
	// WithJournal). Like Cluster it is additive with its own schema
	// version (DurabilityVersion), so its presence does not bump
	// StatusVersion.
	Durability *DurabilityStatus `json:"durability,omitempty"`
}

// Status returns the hub's unified observability snapshot: lifecycle
// counters, stage latencies, scheduler gauges, partner health, DLQ and
// journal depths, recovery, config and plan gauges — one versioned struct.
func (h *Hub) Status() StatusSnapshot {
	s := StatusSnapshot{
		Version:   StatusVersion,
		Time:      time.Now(),
		Exchanges: h.counters.Snapshot(),
		Stages:    h.metrics.Snapshot(),
		Recovery:  h.recoveryMetrics.Snapshot(),
		Config:    h.configMetrics.Snapshot(),
		Plans:     h.planMetrics.Snapshot(),
	}
	if h.healthMetrics != nil {
		s.Partners = h.healthMetrics.Snapshot()
	}

	s.Sched = SchedStatus{
		Shed:     h.shed.Load(),
		PerShard: h.schedMetrics.Snapshot(),
	}
	h.schedMu.Lock()
	if h.sched != nil {
		s.Sched.Shards = len(h.sched.shards)
		s.Sched.Running = !h.drained
	}
	h.schedMu.Unlock()

	depth, pending, unresolved := h.ledger.counts()
	s.DLQ = DLQStatus{Depth: depth, Cap: h.ledger.cap}
	if h.jrn != nil {
		s.Journal = JournalStatus{
			Enabled:               true,
			PendingAdmits:         pending,
			UnresolvedDeadLetters: unresolved,
		}
	}
	s.Cluster = h.clusterStatus()
	s.Durability = h.durabilityStatus()
	return s
}
