package core

import (
	"context"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The sharded scheduler: per-trading-partner shards, each with its own
// bounded queue and workers. An exchange's shard is the hash of its partner
// ID, so one partner's work lands on one queue and a hung partner (a
// backend.Faulty hang schedule) backs up only its own shard. The admission
// layer adds two behaviors on top of plain hashing:
//
//   - Backpressure: a submission blocks once its shard's queue is full, so
//     producers feel the hub falling behind instead of growing an unbounded
//     backlog.
//   - Slow-shard bypass: before blocking, a submission may divert to the
//     least-loaded shard — but only while its own key has fewer jobs in
//     flight than one shard's worker complement. The cap is what keeps a
//     hung partner from poisoning the other shards: its first few jobs
//     bypass and wedge, then the cap forces the rest to wait at home.
//
// Every admission, dispatch and completion is emitted as a KindSched event
// on the hub's bus; obs.SchedMetrics derives the per-shard gauges.

// schedJob is one queued submission.
type schedJob struct {
	ctx   context.Context
	key   string
	shard int
	run   func(ctx context.Context) Result
	// onShed, when set, resolves the job as shed instead of running it —
	// the admission layer's escape hatch for degraded partners under
	// queue pressure.
	onShed func() Result
	fut    *Future
}

// shard is one scheduler partition: a two-lane bounded queue (high-priority
// lane drained first) and the gauges admission reads.
type shard struct {
	id   int
	high chan schedJob
	norm chan schedJob
	// load is the shard's queued + running job count, read by the bypass
	// to pick the least-loaded shard.
	load atomic.Int64
}

// scheduler runs the shards. It is created started and stops once, for
// good.
type scheduler struct {
	hub             *Hub
	shards          []*shard
	workersPerShard int

	// quit closes when stop begins: submissions blocked on backpressure
	// give up with ErrHubStopped. sealed closes once every submission
	// admitted before the stop has returned: no job can be enqueued any
	// more, so the workers run what is queued and exit. done closes once
	// they have.
	quit   chan struct{}
	sealed chan struct{}
	done   chan struct{}

	mu       sync.Mutex
	closed   bool
	inflight map[string]int // per shard-key admitted-but-unfinished jobs

	senderWG sync.WaitGroup
	workerWG sync.WaitGroup
}

// newScheduler starts nShards shards with workersPerShard workers each and
// per-shard queues bounded at queueDepth.
func newScheduler(h *Hub, nShards, workersPerShard, queueDepth int) *scheduler {
	if nShards < 1 {
		nShards = 1
	}
	if workersPerShard < 1 {
		workersPerShard = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	s := &scheduler{
		hub:             h,
		workersPerShard: workersPerShard,
		quit:            make(chan struct{}),
		sealed:          make(chan struct{}),
		done:            make(chan struct{}),
		inflight:        map[string]int{},
	}
	for i := 0; i < nShards; i++ {
		sh := &shard{
			id:   i,
			high: make(chan schedJob, queueDepth),
			norm: make(chan schedJob, queueDepth),
		}
		s.shards = append(s.shards, sh)
		for w := 0; w < workersPerShard; w++ {
			s.workerWG.Add(1)
			go s.worker(sh)
		}
	}
	return s
}

// shardFor hashes a shard key (normally the trading partner ID) to its home
// shard.
func (s *scheduler) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// emit publishes one scheduler event for a job.
func (s *scheduler) emit(j schedJob, step string, elapsed time.Duration, err error) {
	s.hub.bus.Emit(obs.Event{
		Partner: j.key,
		Kind:    obs.KindSched,
		Stage:   obs.StageSched,
		Step:    step,
		Shard:   j.shard,
		Elapsed: elapsed,
		Err:     err,
	})
}

// admit registers a submission attempt; it fails once the scheduler closed.
func (s *scheduler) admit(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.inflight[key]++
	s.senderWG.Add(1)
	return true
}

// release undoes admit's accounting (failed enqueue or finished job).
func (s *scheduler) release(key string) {
	s.mu.Lock()
	if s.inflight[key]--; s.inflight[key] <= 0 {
		delete(s.inflight, key)
	}
	s.mu.Unlock()
}

// keyLoad reports how many admitted-but-unfinished jobs a key has.
func (s *scheduler) keyLoad(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight[key]
}

// leastLoaded returns the shard with the lowest queued+running load,
// excluding the given one.
func (s *scheduler) leastLoaded(except *shard) *shard {
	var best *shard
	var bestLoad int64
	for _, sh := range s.shards {
		if sh == except {
			continue
		}
		l := sh.load.Load()
		if best == nil || l < bestLoad {
			best, bestLoad = sh, l
		}
	}
	return best
}

// lane picks the job's queue lane on a shard.
func lane(sh *shard, priority Priority) chan schedJob {
	if priority == PriorityHigh {
		return sh.high
	}
	return sh.norm
}

// submit admits one job: non-blocking enqueue on the home shard, adaptive
// shed for degraded partners, bypass to the least-loaded shard while the
// key is under its fair share, else a blocking wait on the home shard
// (backpressure). It returns ErrHubStopped after stop and ctx.Err() on
// cancellation while blocked; a job it enqueued always runs, even when the
// scheduler stops first. onShed (optional) resolves the job as shed when
// the shedder drops it.
func (s *scheduler) submit(ctx context.Context, key string, priority Priority, run func(context.Context) Result, onShed func() Result) (*Future, error) {
	if !s.admit(key) {
		return nil, ErrHubStopped
	}
	defer s.senderWG.Done()

	home := s.shardFor(key)
	fut := &Future{done: make(chan struct{})}
	j := schedJob{ctx: ctx, key: key, shard: home.id, run: run, onShed: onShed, fut: fut}

	// Fast path: room on the home shard.
	select {
	case lane(home, priority) <- j:
		home.load.Add(1)
		s.emit(j, obs.StepEnqueued, 0, nil)
		return fut, nil
	default:
	}

	// Adaptive shed: the home shard is backed up and this partner is
	// degraded — drop the submission now (it resolves as dead-lettered
	// via onShed) rather than let a sick partner's work bypass into
	// healthy shards or block the producer. The high-priority lane is
	// never shed; it falls through to bypass and backpressure.
	if onShed != nil && priority != PriorityHigh && s.hub.healthDegraded(key) {
		fut.res = onShed()
		close(fut.done)
		s.release(key)
		return fut, nil
	}

	// Home shard is backed up. Divert to the least-loaded shard — but only
	// while this key's in-flight count is within one shard's worker
	// complement, so a hung partner's overflow cannot wedge every shard.
	if len(s.shards) > 1 && s.keyLoad(key) <= s.workersPerShard {
		if alt := s.leastLoaded(home); alt != nil {
			bj := j
			bj.shard = alt.id
			select {
			case lane(alt, priority) <- bj:
				alt.load.Add(1)
				s.emit(bj, obs.StepBypassed, 0, nil)
				return fut, nil
			default:
			}
		}
	}

	// Backpressure: block until the home shard has room.
	select {
	case lane(home, priority) <- j:
		home.load.Add(1)
		s.emit(j, obs.StepEnqueued, 0, nil)
		return fut, nil
	case <-s.quit:
		s.release(key)
		return nil, ErrHubStopped
	case <-ctx.Done():
		s.release(key)
		return nil, ctx.Err()
	}
}

// worker drains one shard, preferring the high-priority lane.
func (s *scheduler) worker(sh *shard) {
	defer s.workerWG.Done()
	for {
		// Prefer high-priority work without starving the normal lane.
		select {
		case j := <-sh.high:
			s.runJob(sh, j)
			continue
		default:
		}
		select {
		case j := <-sh.high:
			s.runJob(sh, j)
		case j := <-sh.norm:
			s.runJob(sh, j)
		case <-s.sealed:
			// Nothing can be enqueued any more: run what is queued.
			for {
				select {
				case j := <-sh.high:
					s.runJob(sh, j)
				case j := <-sh.norm:
					s.runJob(sh, j)
				default:
					return
				}
			}
		}
	}
}

// runJob executes one job and resolves its future. The completed event is
// emitted before the future resolves, so a caller that waited on the future
// reads shard gauges that already count the job.
func (s *scheduler) runJob(sh *shard, j schedJob) {
	s.emit(j, obs.StepDispatched, 0, nil)
	start := time.Now()
	j.fut.res = j.run(j.ctx)
	s.emit(j, obs.StepCompleted, time.Since(start), j.fut.res.Err)
	close(j.fut.done)
	sh.load.Add(-1)
	s.release(j.key)
}

// stop begins the shutdown on its first call — no new admissions, and
// every job already enqueued or running finishes, none is dropped — and
// returns a channel every call can wait on, which closes once the last job
// has finished.
func (s *scheduler) stop() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.quit)
		go func() {
			// New admissions are rejected via closed, and quit releases
			// the ones blocked on backpressure, so once senderWG drains no
			// job can be enqueued: the workers' final drain sees every one.
			s.senderWG.Wait()
			close(s.sealed)
			s.workerWG.Wait()
			close(s.done)
		}()
	}
	return s.done
}
