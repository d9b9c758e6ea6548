package wf

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/expr"
)

// This file is the workflow interpreter. It advances an instance over its
// type's compiled plan by walking a ready-set worklist over the plan's
// index-addressed steps, so one advance costs O(steps + signals). Deliver,
// Expire and subworkflow resumption run through the same plan operations.
// At parallelism 1 the step order is fixed (the compat goldens pin it); at
// parallelism n > 1 independent ready steps with declared, disjoint data
// accesses execute concurrently.

// worklist yields steps in pass order with a two-heap worklist: passes visit
// steps in index order, restarting from the first until a pass makes no
// progress, so a signal to a step *ahead* of the cursor is observed within
// the same pass and a signal to a step at or behind it only on the next
// pass. cur holds this pass's steps (all indices > pos, popped in increasing
// order), next holds the following pass's. A nil worklist ignores pushes:
// Deliver, Expire and subworkflow resumption signal outside an advance, and
// the advance that follows seeds every pending step anyway.
type worklist struct {
	cur, next     []int
	inCur, inNext []bool
	pos           int
	// heaps and flags back the two heaps and their flags; a pooled
	// worklist keeps them for the next advance.
	heaps []int
	flags []bool
}

var worklistPool = sync.Pool{New: func() any { return new(worklist) }}

// getWorklist takes a pooled worklist and sizes it for n steps. A step sits
// in at most one of the two heaps, so each gets a fixed half of one int
// slab, and the flags share one bool slab. Every advance takes its own, so
// a nested advance (a subworkflow started by a step) does not share its
// caller's.
func getWorklist(n int) *worklist {
	w := worklistPool.Get().(*worklist)
	if cap(w.heaps) < 2*n {
		w.heaps, w.flags = make([]int, 2*n), make([]bool, 2*n)
	}
	heaps, flags := w.heaps[:2*n], w.flags[:2*n]
	clear(flags)
	w.cur, w.next, w.inCur, w.inNext, w.pos = heaps[:0:n], heaps[n:n:2*n], flags[:n:n], flags[n:], -1
	return w
}

// push enqueues step i for (re-)evaluation; already-queued steps are left
// where they are.
func (w *worklist) push(i int) {
	if w == nil || w.inCur[i] || w.inNext[i] {
		return
	}
	if i > w.pos {
		w.inCur[i] = true
		heapPush(&w.cur, i)
	} else {
		w.inNext[i] = true
		heapPush(&w.next, i)
	}
}

// pop removes the next step in pass order; ok is false when the worklist is
// drained.
func (w *worklist) pop() (i int, ok bool) {
	if len(w.cur) == 0 {
		if len(w.next) == 0 {
			return 0, false
		}
		w.cur, w.next = w.next, w.cur
		w.inCur, w.inNext = w.inNext, w.inCur
		w.pos = -1
	}
	i = heapPop(&w.cur)
	w.inCur[i] = false
	w.pos = i
	return i, true
}

// peek returns the head of the current pass without removing it; ok is false
// at a pass boundary (batches never straddle passes).
func (w *worklist) peek() (i int, ok bool) {
	if len(w.cur) == 0 {
		return 0, false
	}
	return w.cur[0], true
}

func heapPush(h *[]int, x int) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func heapPop(h *[]int) int {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s[l] < s[m] {
			m = l
		}
		if r < n && s[r] < s[m] {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// advancePlan runs the instance against the compiled plan until quiescence.
// It seeds every pending step, then processes the worklist: steps whose
// joins resolve run (or batch, at parallelism > 1), dead-path steps skip and
// propagate false signals, not-ready steps are dropped and re-enqueued by
// whichever future signal could change their readiness. forced names steps
// to activate regardless of their joins (an expired guard's timeout
// branch); it may be nil.
func (e *Engine) advancePlan(ctx context.Context, p *Plan, in *Instance, forced map[string]bool) error {
	wl := getWorklist(len(p.steps))
	defer worklistPool.Put(wl)
	for i := range in.runs {
		if in.runs[i].State == StepPending {
			wl.push(i)
		}
	}
	for in.State == InstRunning {
		idx, ok := wl.pop()
		if !ok {
			break
		}
		ps := &p.steps[idx]
		run := &in.runs[idx]
		if run.State != StepPending {
			continue
		}
		ready, dead := e.planReady(in, ps, forced)
		if dead {
			run.State = StepSkipped
			in.log(ps.name, "skipped (dead path)")
			e.planSignalOutgoing(p, in, ps, false, wl)
			continue
		}
		if !ready {
			continue
		}
		delete(forced, ps.name)
		if e.parallelism > 1 && batchEligible(ps) {
			batch := e.collectBatch(p, in, ps, forced, wl)
			if len(batch) > 1 {
				if err := e.executeBatch(ctx, p, in, batch, wl); err != nil {
					return err
				}
				continue
			}
		}
		if err := e.executePlan(ctx, p, in, ps, wl); err != nil {
			return err
		}
	}
	e.maybeFinish(in)
	return nil
}

// planReady decides whether a pending step is ready or dead: forced steps
// are ready, timeout branches wait for their expiry, entry steps fire once,
// joins count non-loop signals.
func (e *Engine) planReady(in *Instance, ps *planStep, forced map[string]bool) (ready, dead bool) {
	if forced[ps.name] {
		return true, false
	}
	if ps.isTimeout {
		return false, false
	}
	if ps.fanIn == 0 {
		return true, false
	}
	var nTrue, nFalse int
	for i := range ps.in {
		if ps.in[i].loop {
			continue
		}
		switch in.sigs[ps.in[i].sig] {
		case sigTrue:
			nTrue++
		case sigFalse:
			nFalse++
		}
	}
	evaluated := nTrue + nFalse
	switch ps.join {
	case JoinAny:
		if nTrue > 0 {
			return true, false
		}
		if evaluated == ps.fanIn {
			return false, true
		}
	default: // JoinAll
		if nFalse > 0 && evaluated == ps.fanIn {
			return false, true
		}
		if nTrue == ps.fanIn {
			return true, false
		}
	}
	return false, false
}

// planSignalOutgoing signals the outgoing arcs of a finished step
// (completed is false for a skipped step: dead-path elimination signals
// every arc false) and enqueues each signaled target for (re-)evaluation.
// Loop arcs fire after every other arc has signaled, so a loop reset clears
// its body's signals from this pass whatever the order the arcs are declared
// in.
func (e *Engine) planSignalOutgoing(p *Plan, in *Instance, ps *planStep, completed bool, wl *worklist) {
	for i := range ps.out {
		a := &ps.out[i]
		if a.loop {
			continue
		}
		if completed && arcHolds(in, ps, a) {
			in.sigs[a.sig] = sigTrue
		} else {
			in.sigs[a.sig] = sigFalse
		}
		wl.push(a.dst)
	}
	if !completed {
		return
	}
	for i := range ps.out {
		if a := &ps.out[i]; a.loop && arcHolds(in, ps, a) {
			e.resetLoop(p, in, a, wl)
		}
	}
}

// arcHolds evaluates an arc out of a completed step: an unconditional arc
// holds, a condition that fails to evaluate is logged and treated as false.
func arcHolds(in *Instance, ps *planStep, a *planArc) bool {
	if a.cond == nil {
		return true
	}
	ok, err := expr.EvalBool(a.cond, in.Env())
	if err != nil {
		in.log(ps.name, fmt.Sprintf("condition %q error: %v (treated as false)", a.condition, err))
		return false
	}
	return ok
}

// resetLoop resets the loop body (the target and everything reachable
// from it over non-loop arcs) and enqueues the region for the new
// iteration. Re-entry readiness comes from the surviving signals on arcs
// entering the region from outside it.
func (e *Engine) resetLoop(p *Plan, in *Instance, loop *planArc, wl *worklist) {
	region := make([]bool, len(p.steps))
	var mark func(int)
	mark = func(n int) {
		if region[n] {
			return
		}
		region[n] = true
		for i := range p.steps[n].out {
			if a := &p.steps[n].out[i]; !a.loop {
				mark(a.dst)
			}
		}
	}
	mark(loop.dst)
	for i := range p.steps {
		if !region[i] {
			continue
		}
		ps := &p.steps[i]
		in.runs[i] = StepRun{State: StepPending}
		for j := range ps.out {
			in.sigs[ps.out[j].sig] = sigUnset
		}
		for j := range ps.in {
			if region[ps.in[j].src] {
				in.sigs[ps.in[j].sig] = sigUnset
			}
		}
	}
	in.log(p.steps[loop.dst].name, "loop iteration")
	for i := range p.steps {
		if region[i] {
			wl.push(i)
		}
	}
}

// planCompleteStep marks a step completed, signals its outgoing arcs and
// retires its still-pending timeout branch: a guard completing normally
// dead-paths the alternative.
func (e *Engine) planCompleteStep(p *Plan, in *Instance, ps *planStep, wl *worklist) {
	in.runs[ps.idx].State = StepCompleted
	in.log(ps.name, "completed")
	e.planSignalOutgoing(p, in, ps, true, wl)
	if ps.timeout >= 0 {
		ts := &p.steps[ps.timeout]
		if run := &in.runs[ts.idx]; run.State == StepPending {
			run.State = StepSkipped
			in.log(ts.name, "skipped (guard completed in time)")
			e.planSignalOutgoing(p, in, ts, false, wl)
		}
	}
}

// executePlan runs one ready step: it aborts if the exchange's context is
// already done (cancellation propagates between steps, so a canceled
// pipeline stops before its next side effect), times the execution, and
// reports to the engine's observer.
func (e *Engine) executePlan(ctx context.Context, p *Plan, in *Instance, ps *planStep, wl *worklist) error {
	start := time.Now()
	var err error
	if cerr := ctx.Err(); cerr != nil {
		err = e.failStep(in, ps, cerr)
	} else {
		err = e.dispatchStep(ctx, p, in, ps, wl)
	}
	if e.observer != nil {
		e.observer(in, ps.def, time.Since(start), err)
	}
	return err
}

// dispatchStep dispatches on the step kind. Task, send and outbound
// connection steps run their operation through runStepOp, as batch members
// do.
func (e *Engine) dispatchStep(ctx context.Context, p *Plan, in *Instance, ps *planStep, wl *worklist) error {
	s := ps.def
	run := &in.runs[ps.idx]
	switch s.Kind {
	case StepNoop:
		e.planCompleteStep(p, in, ps, wl)

	case StepTask, StepSend, StepConnection:
		if s.Kind == StepConnection && s.Dir != DirOut {
			run.State = StepWaiting
			in.log(s.Name, ps.portMsg)
			break
		}
		if err := e.runStepOp(ctx, in, ps); err != nil {
			return e.failStep(in, ps, err)
		}
		e.completeOp(p, in, ps, wl)

	case StepReceive:
		run.State = StepWaiting
		in.log(s.Name, ps.portMsg)

	case StepSubworkflow:
		child, err := e.startChild(ctx, s.Subworkflow, in.Data, in.ID, s.Name)
		if err != nil {
			return e.failStep(in, ps, err)
		}
		run.Child = child.ID
		switch child.State {
		case InstCompleted:
			e.absorbChild(in, child)
			e.planCompleteStep(p, in, ps, wl)
		case InstFailed:
			return e.failStep(in, ps, fmt.Errorf("wf: subworkflow %s failed: %s", child.ID, child.Error))
		default:
			run.State = StepChildRun
			in.log(s.Name, "subworkflow "+child.ID+" running")
		}
	default:
		return e.failStep(in, ps, fmt.Errorf("wf: unknown step kind %q", s.Kind))
	}
	return nil
}

// completeOp completes a task, send or outbound-connection step whose
// operation succeeded; port steps first log the hand-off.
func (e *Engine) completeOp(p *Plan, in *Instance, ps *planStep, wl *worklist) {
	if ps.portMsg != "" {
		in.log(ps.name, ps.portMsg)
	}
	e.planCompleteStep(p, in, ps, wl)
}

// --- intra-instance step parallelism ---------------------------------------

// batchEligible reports whether a step's side effect may run concurrently
// with other steps': its data accesses must be fully declared. Send and
// outbound-connection steps read exactly their payload slot; task steps are
// eligible only when they declare Reads/Writes. Everything else (receives,
// subworkflows, noops, undeclared tasks) executes serially.
func batchEligible(ps *planStep) bool {
	switch ps.def.Kind {
	case StepSend:
		return true
	case StepConnection:
		return ps.def.Dir == DirOut
	case StepTask:
		return len(ps.def.Reads)+len(ps.def.Writes) > 0
	}
	return false
}

// stepReads lists the data keys a batch-eligible step reads.
func stepReads(s *StepDef) []string {
	switch s.Kind {
	case StepSend, StepConnection:
		key := s.DataKey
		if key == "" {
			key = "document"
		}
		return []string{key}
	}
	return s.Reads
}

// stepWrites lists the data keys a batch-eligible step writes.
func stepWrites(s *StepDef) []string {
	if s.Kind == StepTask {
		return s.Writes
	}
	return nil
}

func intersects(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// rwConflict reports whether two steps' declared accesses conflict:
// write/write on a shared key, or a write on one side of a read on the other.
func rwConflict(r1, w1, r2, w2 []string) bool {
	return intersects(w1, w2) || intersects(w1, r2) || intersects(w2, r1)
}

// collectBatch extends a batch started by first with further ready, eligible,
// non-conflicting steps from the head of the current pass. Collection stops
// at the first step that must run serially or observe the batch's results —
// order within the pass is preserved, only independent neighbors fuse.
func (e *Engine) collectBatch(p *Plan, in *Instance, first *planStep, forced map[string]bool, wl *worklist) []*planStep {
	batch := []*planStep{first}
	reads := append([]string(nil), stepReads(first.def)...)
	writes := append([]string(nil), stepWrites(first.def)...)
	for len(batch) < e.parallelism {
		idx, ok := wl.peek()
		if !ok {
			break
		}
		ps := &p.steps[idx]
		if in.runs[idx].State != StepPending {
			wl.pop() // already terminal or parked: discard and keep looking
			continue
		}
		ready, dead := e.planReady(in, ps, forced)
		if dead || !ready || !batchEligible(ps) {
			break
		}
		r, w := stepReads(ps.def), stepWrites(ps.def)
		if rwConflict(reads, writes, r, w) {
			break
		}
		wl.pop()
		delete(forced, ps.name)
		batch = append(batch, ps)
		reads = append(reads, r...)
		writes = append(writes, w...)
	}
	return batch
}

// batchView builds the isolated instance view one batch member executes
// against: a cloned data map, its own copy of the step runs and arc
// signals, and an empty history that the merge replays into the real
// instance.
func batchView(in *Instance) *Instance {
	data := make(map[string]any, len(in.Data))
	for k, v := range in.Data {
		data[k] = cloneValue(v)
	}
	return &Instance{
		ID: in.ID, Type: in.Type, Version: in.Version, State: in.State,
		Data: data,
		lay:  in.lay,
		runs: append([]StepRun(nil), in.runs...),
		sigs: append([]signal(nil), in.sigs...),
	}
}

// runStepOp runs the side-effecting operation of a task, send or outbound
// connection step (handler or port call, under the retry regime) against
// the instance, or a batch member's isolated view of it.
func (e *Engine) runStepOp(ctx context.Context, view *Instance, ps *planStep) error {
	s := ps.def
	if s.Kind == StepTask {
		fn := ps.handler.load()
		if fn == nil {
			return fmt.Errorf("wf: no handler %q registered", s.Handler)
		}
		return e.attemptLoop(ctx, view, ps, func() error { return fn(ctx, view, s) })
	}
	if e.ports == nil {
		return fmt.Errorf("wf: engine has no port function for %s step %q", s.Kind, s.Name)
	}
	return e.attemptLoop(ctx, view, ps, func() error { return e.ports(ctx, view, s, outboundPayload(view, s)) })
}

// executeBatch runs the batch members' side effects concurrently on isolated
// views, then merges results serially in pass order: attempts and retry logs
// replay, declared writes copy back, completions signal downstream. A failed
// member fails the instance after the members ahead of it merged — their
// side effects happened and are acknowledged.
func (e *Engine) executeBatch(ctx context.Context, p *Plan, in *Instance, batch []*planStep, wl *worklist) error {
	if cerr := ctx.Err(); cerr != nil {
		start := time.Now()
		err := e.failStep(in, batch[0], cerr)
		if e.observer != nil {
			e.observer(in, batch[0].def, time.Since(start), err)
		}
		return err
	}
	type member struct {
		ps      *planStep
		view    *Instance
		err     error
		elapsed time.Duration
	}
	members := make([]*member, len(batch))
	var wg sync.WaitGroup
	for i, ps := range batch {
		m := &member{ps: ps, view: batchView(in)}
		members[i] = m
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			m.err = e.runStepOp(ctx, m.view, m.ps)
			m.elapsed = time.Since(start)
		}()
	}
	wg.Wait()
	for _, m := range members {
		s := m.ps.def
		in.runs[m.ps.idx].Attempts = m.view.runs[m.ps.idx].Attempts
		for _, ev := range m.view.History {
			in.log(ev.Step, ev.What)
		}
		if m.err != nil {
			err := e.failStep(in, m.ps, m.err)
			if e.observer != nil {
				e.observer(in, s, m.elapsed, err)
			}
			return err
		}
		for _, k := range stepWrites(s) {
			if v, ok := m.view.Data[k]; ok {
				in.Data[k] = v
			}
		}
		e.completeOp(p, in, m.ps, wl)
		if e.observer != nil {
			e.observer(in, s, m.elapsed, nil)
		}
	}
	return nil
}
