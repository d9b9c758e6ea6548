package journal

import (
	"time"
)

// syncer applies one FsyncPolicy to the journal's file: Append calls
// didAppend after each record has reached the OS, and the syncer decides
// when the file must be fsynced. It implements the batched policy's group
// commit without a background goroutine: an fsync happens when
// DefaultBatchAppends appends have accumulated or DefaultBatchInterval has
// passed since the last one, amortizing the cost across the batch.
//
// A syncer is not safe for concurrent use on its own; the journal calls it
// under the lock that serializes its appends.
type syncer struct {
	policy        FsyncPolicy
	batchAppends  int
	batchInterval time.Duration

	pending  int
	lastSync time.Time
	syncs    int64
}

func newSyncer(policy FsyncPolicy) syncer {
	return syncer{
		policy:        policy,
		batchAppends:  DefaultBatchAppends,
		batchInterval: DefaultBatchInterval,
		lastSync:      time.Now(),
	}
}

// didAppend records one completed append and fsyncs per policy.
func (s *syncer) didAppend(f File) error {
	switch s.policy {
	case FsyncAlways:
		return s.sync(f)
	case FsyncNever:
		return nil
	default: // batched group commit
		s.pending++
		if s.pending >= s.batchAppends || time.Since(s.lastSync) >= s.batchInterval {
			return s.sync(f)
		}
		return nil
	}
}

// flush is the close-time sync: it drains the pending batch for the
// always and batched policies and is a no-op for never (whose contract is
// that no fsync is ever issued).
func (s *syncer) flush(f File) error {
	if s.policy == FsyncNever || s.pending == 0 {
		return nil
	}
	return s.sync(f)
}

// sync fsyncs unconditionally, regardless of policy.
func (s *syncer) sync(f File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	s.pending = 0
	s.lastSync = time.Now()
	s.syncs++
	return nil
}
