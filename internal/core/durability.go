package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// The durability failure policy: what a journaled hub does when its disk
// stops cooperating. A journal append that fails voids the durability
// promise for that record — the question is what happens to the exchange
// that wanted it.
//
//   - FailStop (the default, and the old behavior made typed): the
//     admission is rejected with ErrJournalUnavailable. In-flight
//     exchanges drain normally (their completion appends were always
//     best-effort); nothing new is accepted that cannot be logged. The
//     hub keeps trying — each admission probes the disk implicitly, so a
//     healed disk resumes service without intervention.
//
//   - FailDegraded: the hub keeps serving. The failed admission and every
//     one after it proceed non-durably (no admission key, no replay after
//     a crash), a KindDurability degraded alarm is raised, and a
//     background prober re-checks the disk. Once a probe succeeds the
//     journal is re-armed on a fresh compacted segment (checkpoint +
//     live state) and admissions are durable again.
//
// Either way, exchanges the hub already acknowledged keep their
// exactly-once accounting: a durable admit without a complete re-delivers
// at most once on Recover, and non-durable (degraded) admissions are by
// definition never replayed.

// JournalFailurePolicy selects the hub's reaction to journal append
// failures (WithJournalFailurePolicy).
type JournalFailurePolicy string

// Durability failure policies.
const (
	// FailStop rejects admissions whose journal append failed with
	// ErrJournalUnavailable. The default.
	FailStop JournalFailurePolicy = "fail-stop"
	// FailDegraded keeps admitting non-durably while the disk is down and
	// re-arms journaling automatically once it heals.
	FailDegraded JournalFailurePolicy = "degraded"
)

// ParseFailurePolicy parses a policy name as given on a command line.
func ParseFailurePolicy(s string) (JournalFailurePolicy, error) {
	switch JournalFailurePolicy(s) {
	case FailStop, FailDegraded:
		return JournalFailurePolicy(s), nil
	}
	return "", fmt.Errorf("core: unknown journal failure policy %q (want fail-stop or degraded)", s)
}

// DefaultJournalProbeInterval is how often a degraded hub probes the disk
// for recovery (WithJournalProbeInterval overrides).
const DefaultJournalProbeInterval = 250 * time.Millisecond

// DurabilityVersion is the schema version of DurabilityStatus. Like
// ClusterVersion it is bumped only when a field changes meaning; additive
// fields do not bump it.
const DurabilityVersion = 1

// DurabilityStatus is the versioned storage-health section of a
// StatusSnapshot (nil on hubs built without WithJournal).
type DurabilityStatus struct {
	// Version is the DurabilityStatus schema version (DurabilityVersion).
	Version int `json:"version"`
	// Policy is the configured failure policy.
	Policy JournalFailurePolicy `json:"policy"`
	// Mode is "durable" while appends reach the journal and "degraded"
	// while the hub is admitting non-durably after an append failure.
	Mode string `json:"mode"`
	// Since is when the current degraded episode began (degraded only).
	Since *time.Time `json:"since,omitempty"`
	// LastError is the most recent journal append failure, if any.
	LastError string `json:"last_error,omitempty"`
	// AppendFailures counts failed admission appends; RejectedAdmits the
	// fail-stop rejections they caused; NonDurableAdmits the degraded-mode
	// admissions that proceeded without a journal record.
	AppendFailures   int64 `json:"append_failures"`
	RejectedAdmits   int64 `json:"rejected_admits"`
	NonDurableAdmits int64 `json:"non_durable_admits"`
	// Probes counts disk probes while degraded; Rearms the successful
	// re-arms that ended a degraded episode.
	Probes int64 `json:"probes"`
	Rearms int64 `json:"rearms"`
	// Poisoned counts admissions parked to the dead-letter queue for
	// repeatedly crashing recovery.
	Poisoned int64 `json:"poisoned"`
	// Corrupt and QuarantinedBytes account the mid-file damage the
	// journal's open-time repair quarantined; Rotations counts journal
	// compactions since open.
	Corrupt          int   `json:"corrupt"`
	QuarantinedBytes int64 `json:"quarantined_bytes"`
	Rotations        int64 `json:"rotations"`
}

// durability is the hub's storage-health state. Lock order: dur.mu is a
// leaf — it is never held across journal appends, bus emissions or any
// other hub lock.
type durability struct {
	policy        JournalFailurePolicy
	probeInterval time.Duration

	mu             sync.Mutex
	degraded       bool
	since          time.Time
	lastErr        error
	appendFailures int64
	rejected       int64
	nonDurable     int64
	probes         int64
	rearms         int64
	poisoned       int64
	// stopProbe/probeDone belong to the running prober (nil when none).
	stopProbe chan struct{}
	probeDone chan struct{}
}

// journalDown reports whether the hub is in degraded (non-durable) mode.
func (h *Hub) journalDown() bool {
	h.dur.mu.Lock()
	defer h.dur.mu.Unlock()
	return h.dur.degraded
}

// noteNonDurableAdmit counts one admission served while degraded.
func (h *Hub) noteNonDurableAdmit() {
	h.dur.mu.Lock()
	h.dur.nonDurable++
	h.dur.mu.Unlock()
}

// journalAppendFailed applies the failure policy to one failed admission
// append: it returns the error the admission must fail with (fail-stop),
// or nil when the admission should proceed non-durably (degraded).
func (h *Hub) journalAppendFailed(err error) error {
	d := &h.dur
	d.mu.Lock()
	d.appendFailures++
	d.lastErr = err
	if d.policy != FailDegraded {
		d.rejected++
		d.mu.Unlock()
		h.bus.Emit(obs.Event{
			Kind: obs.KindDurability, Stage: obs.StageDurability,
			Step: obs.StepAdmitRejected, Err: err,
		})
		return fmt.Errorf("core: journal admit: %w (%v)", ErrJournalUnavailable, err)
	}
	entered := !d.degraded
	if entered {
		d.degraded = true
		d.since = time.Now()
		d.stopProbe = make(chan struct{})
		d.probeDone = make(chan struct{})
		go h.durabilityProbe(d.stopProbe, d.probeDone)
	}
	d.nonDurable++
	d.mu.Unlock()
	if entered {
		h.bus.Emit(obs.Event{
			Kind: obs.KindDurability, Stage: obs.StageDurability,
			Step: obs.StepDegraded, Err: err,
		})
	}
	return nil
}

// durabilityProbe is the degraded-mode recovery loop: every probeInterval
// it attempts a journal checkpoint — a compaction onto a fresh segment
// carrying the hub's live state — and re-arms durable admission on the
// first success. The goroutine exits on re-arm or when stop closes
// (CloseJournal).
func (h *Hub) durabilityProbe(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(h.dur.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		h.dur.mu.Lock()
		h.dur.probes++
		h.dur.mu.Unlock()
		// The probe is the rotation itself: Compact writes, fsyncs and
		// renames a fresh segment without touching the (possibly broken)
		// old handle, so success proves the disk accepts durable writes
		// and leaves the journal re-armed in one move.
		if err := h.CheckpointJournal(); err != nil {
			h.bus.Emit(obs.Event{
				Kind: obs.KindDurability, Stage: obs.StageDurability,
				Step: obs.StepProbe, Err: err,
			})
			continue
		}
		h.dur.mu.Lock()
		h.dur.degraded = false
		h.dur.rearms++
		h.dur.stopProbe = nil
		h.dur.probeDone = nil
		h.dur.mu.Unlock()
		h.bus.Emit(obs.Event{
			Kind: obs.KindDurability, Stage: obs.StageDurability,
			Step: obs.StepRearmed,
		})
		return
	}
}

// stopDurabilityProbe terminates a running prober and waits for it to
// exit. Safe to call whether or not one is running.
func (h *Hub) stopDurabilityProbe() {
	h.dur.mu.Lock()
	stop, done := h.dur.stopProbe, h.dur.probeDone
	h.dur.stopProbe, h.dur.probeDone = nil, nil
	h.dur.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// durabilityStatus assembles StatusSnapshot's durability section (nil on
// hubs without a journal).
func (h *Hub) durabilityStatus() *DurabilityStatus {
	if h.jrn == nil {
		return nil
	}
	st := h.jrn.Stats()
	d := &h.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	ds := &DurabilityStatus{
		Version:          DurabilityVersion,
		Policy:           d.policy,
		Mode:             "durable",
		AppendFailures:   d.appendFailures,
		RejectedAdmits:   d.rejected,
		NonDurableAdmits: d.nonDurable,
		Probes:           d.probes,
		Rearms:           d.rearms,
		Poisoned:         d.poisoned,
		Corrupt:          st.Corrupt,
		QuarantinedBytes: st.QuarantinedBytes,
		Rotations:        st.Rotations,
	}
	if d.degraded {
		ds.Mode = "degraded"
		since := d.since
		ds.Since = &since
	}
	if d.lastErr != nil {
		ds.LastError = d.lastErr.Error()
	}
	return ds
}

// ScrubJournal walks the hub's journal file read-only and reports every
// valid record, mid-file corrupt region and torn tail (the b2bctl scrub
// surface). It never modifies the journal; quarantining happens at the
// next open.
func (h *Hub) ScrubJournal() (journal.ScrubReport, error) {
	if h.jrn == nil {
		return journal.ScrubReport{}, ErrNoJournal
	}
	return h.jrn.Scrub()
}
