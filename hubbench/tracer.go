package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/journal"
	"repro/internal/obs"
)

// tracer collects the traced run's observations from outside the program:
// a sink on each hub's bus, a timing wrapper around every back end, a
// pass-through journal FS, and the load generator's own submit timestamps.
// It records only while armed (the open-loop phase) and keeps its spans in
// memory until the repetition writes them out.
type tracer struct {
	epoch time.Time
	armed atomic.Bool

	mu    sync.Mutex
	spans []span

	// Bus observations. started is keyed by exKey.
	events           int
	captured         []obs.Event
	started          map[string]time.Time
	service          []time.Duration
	serviceByPartner map[string][]time.Duration
	stepTime         map[obs.Stage]time.Duration
	steps            int
	enqueued         map[string][]time.Time
	dispatched       map[string][]time.Time

	// submitted holds each request's DoAsync return time (in process).
	submittedAt map[int]time.Time

	backendCalls int
	backendBusy  time.Duration
	invExtract   []time.Duration

	journalWrites []time.Duration
	journalSyncs  []time.Duration
	journalBytes  int64
}

// span is one timed unit of work. Spans of one exchange share its ID.
type span struct {
	layer, name, id string
	start, dur      time.Duration // start is relative to the tracer's epoch
}

const (
	// maxSpans bounds the in-memory span log; spans past it are not kept.
	maxSpans = 200_000
	// maxCaptured bounds the bus events kept for the obs replay.
	maxCaptured = 50_000
)

func newTracer() *tracer {
	return &tracer{
		epoch:            time.Now(),
		started:          map[string]time.Time{},
		serviceByPartner: map[string][]time.Duration{},
		stepTime:         map[obs.Stage]time.Duration{},
		enqueued:         map[string][]time.Time{},
		dispatched:       map[string][]time.Time{},
		submittedAt:      map[int]time.Time{},
	}
}

// exKey identifies one exchange (or shard) across cluster nodes.
func exKey(node, id string) string {
	return node + "/" + id
}

// addSpan must be called with t.mu held.
func (t *tracer) addSpan(layer, name, id string, start time.Time, dur time.Duration) {
	if len(t.spans) >= maxSpans {
		return
	}
	t.spans = append(t.spans, span{layer: layer, name: name, id: id, start: start.Sub(t.epoch), dur: dur})
}

// bus returns a fresh bus carrying the tracer's sink, for core.WithBus; the
// hub attaches its default sinks after it.
func (t *tracer) bus(node string) *obs.Bus {
	b := obs.NewBus()
	b.Attach(obs.FuncSink(func(e obs.Event) { t.event(node, e) }))
	return b
}

func (t *tracer) event(node string, e obs.Event) {
	if !t.armed.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events++
	if len(t.captured) < maxCaptured {
		t.captured = append(t.captured, e)
	}
	t.addSpan("obs", string(e.Kind)+"/"+e.Step, exKey(node, e.ExchangeID), e.Time.Add(-e.Elapsed), e.Elapsed)
	switch e.Kind {
	case obs.KindStep:
		t.steps++
		t.stepTime[e.Stage] += e.Elapsed
	case obs.KindExchange:
		switch e.Step {
		case obs.StepStarted:
			t.started[exKey(node, e.ExchangeID)] = e.Time
		case obs.StepFinished, obs.StepFailed:
			t.service = append(t.service, e.Elapsed)
			t.serviceByPartner[e.Partner] = append(t.serviceByPartner[e.Partner], e.Elapsed)
		}
	case obs.KindSched:
		key := exKey(node, strconv.Itoa(e.Shard))
		switch e.Step {
		case obs.StepEnqueued, obs.StepBypassed:
			t.enqueued[key] = append(t.enqueued[key], e.Time)
		case obs.StepDispatched:
			t.dispatched[key] = append(t.dispatched[key], e.Time)
		}
	}
}

// submitted records when DoAsync returned for a request.
func (t *tracer) submitted(r *request, at time.Time) {
	if !t.armed.Load() {
		return
	}
	t.mu.Lock()
	t.submittedAt[r.idx] = at
	t.mu.Unlock()
}

func (t *tracer) backendCall(name string, start time.Time) {
	if !t.armed.Load() {
		return
	}
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.backendCalls++
	t.backendBusy += d
	if name == "extract-invoice" {
		t.invExtract = append(t.invExtract, d)
	}
	t.addSpan("backend", name, "", start, d)
}

func (t *tracer) journalOp(name string, start time.Time, n int) {
	if !t.armed.Load() {
		return
	}
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if name == "write" {
		t.journalWrites = append(t.journalWrites, d)
		t.journalBytes += int64(n)
	} else {
		t.journalSyncs = append(t.journalSyncs, d)
	}
	t.addSpan("journal", name, "", start, d)
}

// writeSpans writes the span log as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Layer   string  `json:"layer"`
		Name    string  `json:"name"`
		ID      string  `json:"id,omitempty"`
		StartUS float64 `json:"start_us"`
		DurUS   float64 `json:"dur_us"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(line{s.layer, s.name, s.id, us(s.start), us(s.dur)}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timedSystem times every back-end call. It is the wrapper given to
// Hub.WrapBackends in traced runs.
type timedSystem struct {
	backend.System
	tr *tracer
}

func (s *timedSystem) Submit(ctx context.Context, wire []byte) error {
	defer s.tr.backendCall("submit", time.Now())
	return s.System.Submit(ctx, wire)
}

func (s *timedSystem) Extract(ctx context.Context) ([]byte, bool, error) {
	defer s.tr.backendCall("extract", time.Now())
	return s.System.Extract(ctx)
}

func (s *timedSystem) ExtractByPO(ctx context.Context, poID string) ([]byte, bool, error) {
	defer s.tr.backendCall("extract-ack", time.Now())
	return s.System.ExtractByPO(ctx, poID)
}

func (s *timedSystem) ExtractInvoiceByPO(ctx context.Context, poID string) ([]byte, bool, error) {
	defer s.tr.backendCall("extract-invoice", time.Now())
	return s.System.ExtractInvoiceByPO(ctx, poID)
}

func (s *timedSystem) Process(ctx context.Context) (int, error) {
	defer s.tr.backendCall("process", time.Now())
	return s.System.Process(ctx)
}

// timedFS is a pass-through journal.FS that times every write and fsync of
// the files it opens. It is given to core.WithJournalFS in traced runs.
type timedFS struct {
	journal.FS
	tr *tracer
}

func (f *timedFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, tr: f.tr}, nil
}

type timedFile struct {
	journal.File
	tr *tracer
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.tr.journalOp("write", start, n)
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.tr.journalOp("fsync", start, 0)
	return err
}
