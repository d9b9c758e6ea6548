package wf

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/expr"
)

// This file is the compiled-plan interpreter: the replacement for the legacy
// per-pass full rescan in advanceLegacy. It walks a ready-set worklist over
// the plan's index-addressed steps, so one advance costs O(steps + signals)
// instead of O(passes × steps). At parallelism 1 it reproduces the legacy
// trace order byte for byte (compat_test.go pins this); at parallelism n > 1
// independent ready steps with declared, disjoint data accesses execute
// concurrently.

// worklist reproduces the legacy scan order with a two-heap worklist. The
// legacy interpreter scans steps in index order, restarting from 0 until a
// full pass makes no progress; a signal to a step *ahead* of the scan cursor
// is observed within the same pass, a signal to a step at or behind it only
// on the next pass. cur holds this pass's steps (all indices > pos, popped
// in increasing order), next holds the following pass's.
type worklist struct {
	cur, next     []int
	inCur, inNext []bool
	pos           int
}

func newWorklist(n int) *worklist {
	return &worklist{inCur: make([]bool, n), inNext: make([]bool, n), pos: -1}
}

// push enqueues step i for (re-)evaluation; already-queued steps are left
// where they are.
func (w *worklist) push(i int) {
	if w.inCur[i] || w.inNext[i] {
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

// pop removes the next step in legacy scan order; ok is false when the
// worklist is drained.
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
// whichever future signal could change their readiness.
func (e *Engine) advancePlan(ctx context.Context, p *Plan, in *Instance, forced map[string]bool) error {
	wl := newWorklist(len(p.steps))
	for i := range p.steps {
		if run := in.Steps[p.steps[i].name]; run != nil && run.State == StepPending {
			wl.push(i)
		}
	}
	for in.State == InstRunning {
		idx, ok := wl.pop()
		if !ok {
			break
		}
		ps := &p.steps[idx]
		run := in.Steps[ps.name]
		if run == nil || run.State != StepPending {
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

// planReady mirrors evalJoin over the compiled step: forced steps are ready,
// timeout branches wait for their expiry, entry steps fire once, joins count
// non-loop signals.
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
		switch signal(in.Arcs[ps.in[i].key]) {
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

// planSignalOutgoing mirrors signalOutgoing: evaluate each outgoing arc,
// record the signal, fire loops, and enqueue each signaled target for
// (re-)evaluation.
func (e *Engine) planSignalOutgoing(p *Plan, in *Instance, ps *planStep, completed bool, wl *worklist) {
	for i := range ps.out {
		a := &ps.out[i]
		val := false
		if completed {
			if a.cond == nil {
				val = true
			} else if ok, err := expr.EvalBool(a.cond, in.Env()); err == nil {
				val = ok
			} else {
				in.log(ps.name, fmt.Sprintf("condition %q error: %v (treated as false)", a.condition, err))
			}
		}
		if a.loop {
			if val {
				e.planFireLoop(p, in, a, wl)
			}
			continue
		}
		if val {
			in.Arcs[a.key] = int(sigTrue)
		} else {
			in.Arcs[a.key] = int(sigFalse)
		}
		wl.push(a.dst)
	}
}

// planFireLoop mirrors fireLoop: reset the loop body (the target and
// everything reachable from it over non-loop arcs) and enqueue the region
// for the new iteration. Re-entry readiness comes from the surviving signals
// on arcs entering the region from outside it.
func (e *Engine) planFireLoop(p *Plan, in *Instance, loop *planArc, wl *worklist) {
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
		in.Steps[ps.name] = &StepRun{State: StepPending}
		for j := range ps.out {
			delete(in.Arcs, ps.out[j].key)
		}
		for j := range ps.in {
			if region[ps.in[j].src] {
				delete(in.Arcs, ps.in[j].key)
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

// planCompleteStep mirrors completeStep: mark completed, signal outgoing
// arcs, and retire a still-pending timeout branch.
func (e *Engine) planCompleteStep(p *Plan, in *Instance, ps *planStep, wl *worklist) {
	in.Steps[ps.name].State = StepCompleted
	in.log(ps.name, "completed")
	e.planSignalOutgoing(p, in, ps, true, wl)
	if ps.timeout >= 0 {
		ts := &p.steps[ps.timeout]
		if run := in.Steps[ts.name]; run != nil && run.State == StepPending {
			run.State = StepSkipped
			in.log(ts.name, "skipped (guard completed in time)")
			e.planSignalOutgoing(p, in, ts, false, wl)
		}
	}
}

// executePlan mirrors execute for one compiled step.
func (e *Engine) executePlan(ctx context.Context, p *Plan, in *Instance, ps *planStep, wl *worklist) error {
	start := time.Now()
	var err error
	if cerr := ctx.Err(); cerr != nil {
		err = e.failStep(in, ps.def, cerr)
	} else {
		err = e.executeStepPlan(ctx, p, in, ps, wl)
	}
	if e.observer != nil {
		e.observer(in, ps.def, time.Since(start), err)
	}
	return err
}

// executeStepPlan mirrors executeStep, using the plan's pre-resolved handler
// (falling back to a registry lookup for plans compiled without one).
func (e *Engine) executeStepPlan(ctx context.Context, p *Plan, in *Instance, ps *planStep, wl *worklist) error {
	s := ps.def
	run := in.Steps[s.Name]
	switch s.Kind {
	case StepNoop:
		e.planCompleteStep(p, in, ps, wl)

	case StepTask:
		var fn Handler
		if ps.handler != nil {
			fn = ps.handler.load()
		} else if f, ok := e.handlers.Lookup(s.Handler); ok {
			fn = f
		}
		if fn == nil {
			return e.failStep(in, s, fmt.Errorf("wf: no handler %q registered", s.Handler))
		}
		if err := e.attemptLoop(ctx, in, s, func() error { return fn(ctx, in, s) }); err != nil {
			return e.failStep(in, s, err)
		}
		e.planCompleteStep(p, in, ps, wl)

	case StepSend:
		if e.ports == nil {
			return e.failStep(in, s, fmt.Errorf("wf: engine has no port function for send step %q", s.Name))
		}
		if err := e.attemptLoop(ctx, in, s, func() error { return e.ports(ctx, in, s, outboundPayload(in, s)) }); err != nil {
			return e.failStep(in, s, err)
		}
		in.log(s.Name, "sent on port "+s.Port)
		e.planCompleteStep(p, in, ps, wl)

	case StepConnection:
		if s.Dir == DirOut {
			if e.ports == nil {
				return e.failStep(in, s, fmt.Errorf("wf: engine has no port function for connection step %q", s.Name))
			}
			if err := e.attemptLoop(ctx, in, s, func() error { return e.ports(ctx, in, s, outboundPayload(in, s)) }); err != nil {
				return e.failStep(in, s, err)
			}
			in.log(s.Name, "passed control to binding via port "+s.Port)
			e.planCompleteStep(p, in, ps, wl)
		} else {
			run.State = StepWaiting
			in.log(s.Name, "waiting for binding on port "+s.Port)
		}

	case StepReceive:
		run.State = StepWaiting
		in.log(s.Name, "waiting on port "+s.Port)

	case StepSubworkflow:
		child, err := e.startChild(ctx, s.Subworkflow, in.Data, in.ID, s.Name)
		if err != nil {
			return e.failStep(in, s, err)
		}
		run.Child = child.ID
		switch child.State {
		case InstCompleted:
			e.absorbChild(in, child)
			e.planCompleteStep(p, in, ps, wl)
		case InstFailed:
			return e.failStep(in, s, fmt.Errorf("wf: subworkflow %s failed: %s", child.ID, child.Error))
		default:
			run.State = StepChildRun
			in.log(s.Name, "subworkflow "+child.ID+" running")
		}
	default:
		return e.failStep(in, s, fmt.Errorf("wf: unknown step kind %q", s.Kind))
	}
	return nil
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
		if run := in.Steps[ps.name]; run == nil || run.State != StepPending {
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
// against: a cloned data map, the member's own step run, and an empty
// history that the merge replays into the real instance.
func batchView(in *Instance, ps *planStep) *Instance {
	data := make(map[string]any, len(in.Data))
	for k, v := range in.Data {
		data[k] = cloneValue(v)
	}
	run := *in.Steps[ps.name]
	return &Instance{
		ID: in.ID, Type: in.Type, Version: in.Version, State: in.State,
		Data:  data,
		Steps: map[string]*StepRun{ps.name: &run},
		Arcs:  map[string]int{},
	}
}

// runStepOp runs one batch member's side-effecting operation (handler or
// port call, under the retry regime) against its isolated view.
func (e *Engine) runStepOp(ctx context.Context, view *Instance, ps *planStep) error {
	s := ps.def
	if s.Kind == StepTask {
		var fn Handler
		if ps.handler != nil {
			fn = ps.handler.load()
		} else if f, ok := e.handlers.Lookup(s.Handler); ok {
			fn = f
		}
		if fn == nil {
			return fmt.Errorf("wf: no handler %q registered", s.Handler)
		}
		return e.attemptLoop(ctx, view, s, func() error { return fn(ctx, view, s) })
	}
	if e.ports == nil {
		return fmt.Errorf("wf: engine has no port function for %s step %q", s.Kind, s.Name)
	}
	return e.attemptLoop(ctx, view, s, func() error { return e.ports(ctx, view, s, outboundPayload(view, s)) })
}

// executeBatch runs the batch members' side effects concurrently on isolated
// views, then merges results serially in pass order: attempts and retry logs
// replay, declared writes copy back, completions signal downstream. A failed
// member fails the instance after the members ahead of it merged — their
// side effects happened and are acknowledged.
func (e *Engine) executeBatch(ctx context.Context, p *Plan, in *Instance, batch []*planStep, wl *worklist) error {
	if cerr := ctx.Err(); cerr != nil {
		start := time.Now()
		err := e.failStep(in, batch[0].def, cerr)
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
		m := &member{ps: ps, view: batchView(in, ps)}
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
		in.Steps[s.Name].Attempts = m.view.Steps[s.Name].Attempts
		for _, ev := range m.view.History {
			in.log(ev.Step, ev.What)
		}
		if m.err != nil {
			err := e.failStep(in, s, m.err)
			if e.observer != nil {
				e.observer(in, s, m.elapsed, err)
			}
			return err
		}
		switch s.Kind {
		case StepTask:
			for _, k := range s.Writes {
				if v, ok := m.view.Data[k]; ok {
					in.Data[k] = v
				}
			}
		case StepSend:
			in.log(s.Name, "sent on port "+s.Port)
		case StepConnection:
			in.log(s.Name, "passed control to binding via port "+s.Port)
		}
		e.planCompleteStep(p, in, m.ps, wl)
		if e.observer != nil {
			e.observer(in, s, m.elapsed, nil)
		}
	}
	return nil
}
