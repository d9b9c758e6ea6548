package obs

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestBusStampsAndFansOut(t *testing.T) {
	b := NewBus()
	var got []Event
	b.Attach(FuncSink(func(e Event) { got = append(got, e) }))
	var got2 int
	b.Attach(FuncSink(func(Event) { got2++ }))

	b.Emit(Event{ExchangeID: "ex-1", Kind: KindRoute, Stage: StageRoute, Step: "public → binding"})
	b.Emit(Event{ExchangeID: "ex-1", Kind: KindStep, Stage: StagePublic, Step: "Send POA"})

	if len(got) != 2 || got2 != 2 {
		t.Fatalf("fan-out %d/%d", len(got), got2)
	}
	if got[0].Seq == 0 || got[1].Seq <= got[0].Seq {
		t.Fatalf("sequence not monotonic: %d, %d", got[0].Seq, got[1].Seq)
	}
	if got[0].Time.IsZero() {
		t.Fatal("time not stamped")
	}
}

func TestBusConcurrentEmit(t *testing.T) {
	b := NewBus()
	var mu sync.Mutex
	seen := map[uint64]bool{}
	b.Attach(FuncSink(func(e Event) {
		mu.Lock()
		seen[e.Seq] = true
		mu.Unlock()
	}))
	var wg sync.WaitGroup
	const n, per = 8, 100
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				b.Emit(Event{ExchangeID: "x", Kind: KindStep})
			}
		}()
	}
	wg.Wait()
	if len(seen) != n*per {
		t.Fatalf("lost sequence numbers: %d of %d", len(seen), n*per)
	}
}

func TestMetricsHistogram(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 99; i++ {
		m.Emit(Event{Kind: KindStep, Stage: StagePrivate, Elapsed: 10 * time.Microsecond})
	}
	m.Emit(Event{Kind: KindStep, Stage: StagePrivate, Elapsed: 5 * time.Millisecond, Err: errors.New("boom")})

	s := m.StageOf(StagePrivate)
	if s.Count != 100 || s.Errors != 1 {
		t.Fatalf("count %d errors %d", s.Count, s.Errors)
	}
	if s.Max != 5*time.Millisecond {
		t.Fatalf("max %v", s.Max)
	}
	if s.P50 > 100*time.Microsecond {
		t.Fatalf("p50 %v should sit in the 10µs region", s.P50)
	}
	if s.P99 < 4*time.Millisecond {
		t.Fatalf("p99 %v should cover the 5ms outlier", s.P99)
	}
	if s.Mean <= 0 {
		t.Fatalf("mean %v", s.Mean)
	}
}

func TestMetricsIgnoresExchangeStart(t *testing.T) {
	m := NewMetrics()
	m.Emit(Event{Kind: KindExchange, Stage: StageExchange, Step: "started"})
	m.Emit(Event{Kind: KindExchange, Stage: StageExchange, Step: "finished", Elapsed: time.Millisecond})
	if s := m.StageOf(StageExchange); s.Count != 1 {
		t.Fatalf("count %d, want only the terminal event", s.Count)
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	last := -1
	for _, d := range []time.Duration{0, time.Microsecond, 5 * time.Microsecond,
		time.Millisecond, 100 * time.Millisecond, time.Minute, time.Hour} {
		i := bucketIndex(d)
		if i < last || i >= bucketCount {
			t.Fatalf("bucketIndex(%v) = %d after %d", d, i, last)
		}
		last = i
	}
}

// TestCollectorTraceAndEviction holds the collector to its contract: it
// keeps the events of the exchanges opened and not yet forgotten, drops
// every other event, and reuses a forgotten exchange's buffer.
func TestCollectorTraceAndEviction(t *testing.T) {
	emitTo := func(c *Collector, ex string, n int) {
		for i := 0; i < n; i++ {
			c.Emit(Event{ExchangeID: ex, Kind: KindStep, Step: fmt.Sprintf("%s/%d", ex, i), Err: errors.New(ex)})
		}
	}
	t.Run("trace and eviction", func(t *testing.T) {
		c := NewCollector(0)
		c.Open("ex-1")
		c.Open("ex-2")
		emit := func(ex, hop string) {
			c.Emit(Event{ExchangeID: ex, Kind: KindRoute, Stage: StageRoute, Step: hop})
		}
		emit("ex-1", "public → binding")
		emit("ex-1", "binding → private")
		c.Emit(Event{ExchangeID: "ex-1", Kind: KindStep, Stage: StagePublic, Step: "Send"})
		emit("ex-2", "public → binding")

		trace := c.Trace("ex-1")
		if len(trace) != 2 || trace[0] != "public → binding" || trace[1] != "binding → private" {
			t.Fatalf("trace %v", trace)
		}
		if len(c.Events("ex-1")) != 3 {
			t.Fatalf("events %v", c.Events("ex-1"))
		}
		c.Forget("ex-1")
		if c.Events("ex-1") != nil || c.Trace("ex-1") != nil {
			t.Fatal("ex-1 not forgotten")
		}
		if c.Exchanges() != 1 || len(c.Events("ex-2")) != 1 {
			t.Fatalf("%d open, ex-2 holds %v; want ex-2 alone, with its event", c.Exchanges(), c.Events("ex-2"))
		}
		// Events returns a copy.
		evs := c.Events("ex-2")
		evs[0].Step = "mutated"
		if c.Events("ex-2")[0].Step == "mutated" {
			t.Fatal("Events returned shared storage")
		}
		// Opening an open exchange keeps its events.
		c.Open("ex-2")
		if len(c.Events("ex-2")) != 1 {
			t.Fatalf("a second Open reset ex-2 to %v", c.Events("ex-2"))
		}
	})
	// Events for an ID that is not open are dropped: a late event does not
	// bring a forgotten exchange back, and reopening the ID starts it empty.
	t.Run("an evicted ID that emits again is new", func(t *testing.T) {
		c := NewCollector(0)
		emitTo(c, "ex-1", 3)
		if c.Exchanges() != 0 || c.Events("ex-1") != nil {
			t.Fatalf("%d exchanges open after events for an unopened ID: %v", c.Exchanges(), c.Events("ex-1"))
		}
		c.Open("ex-1")
		emitTo(c, "ex-1", 2)
		c.Forget("ex-1")
		emitTo(c, "ex-1", 1)
		if c.Exchanges() != 0 || c.Events("ex-1") != nil {
			t.Fatalf("a forgotten exchange's late event reopened it: %v", c.Events("ex-1"))
		}
		c.Open("ex-1")
		if c.Events("ex-1") != nil {
			t.Fatalf("reopened ex-1 starts with %v, want no events", c.Events("ex-1"))
		}
		c.Emit(Event{ExchangeID: "ex-1", Kind: KindStep, Step: "late"})
		if evs := c.Events("ex-1"); len(evs) != 1 || evs[0].Step != "late" {
			t.Fatalf("reopened ex-1 holds %v", evs)
		}
	})
	// The plan, config and scheduler events carry no exchange that is ever
	// opened, so they take no trace and leave the open exchanges alone.
	t.Run("partner-less plan and config keys", func(t *testing.T) {
		c := NewCollector(0)
		c.Open("ex-1")
		emitTo(c, "ex-1", 2)
		c.Emit(Event{ExchangeID: "po-public@1", Kind: KindPlan, Stage: StagePlan, Step: StepCompiled})
		c.Emit(Event{ExchangeID: "private:po@2", Kind: KindConfig, Stage: StageConfig, Step: StepSwapped, Epoch: 3})
		c.Emit(Event{Kind: KindSched, Stage: StageSched, Step: StepEnqueued})
		if c.Events("po-public@1") != nil || c.Events("private:po@2") != nil || c.Events("") != nil {
			t.Fatal("a partner-less key holds events")
		}
		if c.Exchanges() != 1 || len(c.Events("ex-1")) != 2 {
			t.Fatalf("%d open, ex-1 holds %v; want ex-1 alone, with its 2 events", c.Exchanges(), c.Events("ex-1"))
		}
	})
	t.Run("Forget of an unknown ID does nothing", func(t *testing.T) {
		c := NewCollector(0)
		c.Open("ex-1")
		emitTo(c, "ex-1", 2)
		c.Forget("ex-2")
		c.Forget("")
		if c.Exchanges() != 1 || len(c.Events("ex-1")) != 2 || len(c.free) != 0 {
			t.Fatalf("%d open, ex-1 holds %d events, %d free buffers; want ex-1 alone with 2 and none free",
				c.Exchanges(), len(c.Events("ex-1")), len(c.free))
		}
		c.Forget("ex-1")
		c.Forget("ex-1")
		if len(c.free) != 1 {
			t.Fatalf("forgetting ex-1 twice freed %d buffers, want 1", len(c.free))
		}
	})
	t.Run("a reused slot holds none of the evicted events", func(t *testing.T) {
		c := NewCollector(0)
		c.Open("ex-1")
		emitTo(c, "ex-1", 40)
		c.Forget("ex-1")
		c.Open("ex-2")
		emitTo(c, "ex-2", 1)
		if len(c.bufs) != 1 {
			t.Fatalf("%d buffers, want ex-1's reused by ex-2", len(c.bufs))
		}
		evs := c.Events("ex-2")
		if len(evs) != 1 || evs[0].ExchangeID != "ex-2" {
			t.Fatalf("ex-2 holds %v", evs)
		}
		buf := c.bufs[0]
		if cap(buf) < 40 {
			t.Fatalf("ex-2's buffer has room for %d events, want ex-1's %d or more", cap(buf), 40)
		}
		for i, e := range buf[len(buf):cap(buf)] {
			if e != (Event{}) {
				t.Fatalf("reused buffer keeps forgotten event %d past its length: %+v", len(buf)+i, e)
			}
		}
	})
	t.Run("an Events copy survives reuse of its slot", func(t *testing.T) {
		c := NewCollector(0)
		c.Open("ex-1")
		emitTo(c, "ex-1", 5)
		before := c.Events("ex-1")
		want := append([]Event(nil), before...)
		c.Forget("ex-1")
		c.Open("ex-2")
		emitTo(c, "ex-2", 5)
		if !reflect.DeepEqual(before, want) {
			t.Fatalf("copy changed after its slot was reused:\n got %v\nwant %v", before, want)
		}
	})
	// Writers open, emit into and forget their exchanges while readers copy
	// them out, so buffers pass between exchanges under the readers' eyes.
	t.Run("concurrent emit and read", func(t *testing.T) {
		c := NewCollector(0)
		const writers, exchanges, events = 4, 20, 40
		id := func(w, x int) string { return fmt.Sprintf("w%d-ex%d", w, x) }
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for x := 0; x < exchanges; x++ {
					c.Open(id(w, x))
					for i := 0; i < events; i++ {
						c.Emit(Event{ExchangeID: id(w, x), Kind: KindStep, Shard: i})
					}
					if x >= 2 {
						c.Forget(id(w, x-2))
					}
				}
			}(w)
		}
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for w := 0; w < writers; w++ {
						for x := 0; x < exchanges; x++ {
							evs := c.Events(id(w, x))
							for i, e := range evs {
								// An exchange's events start at its first and
								// are never mixed with another's.
								if e.ExchangeID != id(w, x) || e.Shard != i {
									t.Errorf("%s: event %d is %+v", id(w, x), i, e)
									return
								}
							}
						}
					}
					_ = c.Exchanges()
				}
			}()
		}
		wg.Wait()
		close(stop)
		readers.Wait()
		if c.Exchanges() != 2*writers {
			t.Fatalf("%d exchanges open, want each writer's last 2", c.Exchanges())
		}
		for w := 0; w < writers; w++ {
			if got := len(c.Events(id(w, exchanges-1))); got != events {
				t.Fatalf("%s holds %d events, want %d", id(w, exchanges-1), got, events)
			}
		}
	})
}

func TestExchangeCounters(t *testing.T) {
	c := NewExchangeCounters()
	c.Emit(Event{Kind: KindExchange, Step: "started", Partner: "TP1", Flow: FlowPO})
	c.Emit(Event{Kind: KindExchange, Step: "finished", Partner: "TP1", Flow: FlowPO})
	c.Emit(Event{Kind: KindExchange, Step: "started", Partner: "TP1", Flow: FlowInvoice})
	c.Emit(Event{Kind: KindExchange, Step: "failed", Partner: "TP1", Flow: FlowInvoice, Err: errors.New("x")})
	// Non-exchange events are ignored.
	c.Emit(Event{Kind: KindStep, Partner: "TP1"})

	s := c.Snapshot()
	if s.Started != 2 || s.Failed != 1 {
		t.Fatalf("%+v", s)
	}
	if s.ByFlow[FlowPO] != 1 || s.ByFlow[FlowInvoice] != 1 {
		t.Fatalf("%+v", s.ByFlow)
	}
	if s.ByPartner["TP1"] != 2 {
		t.Fatalf("%+v", s.ByPartner)
	}
	// Snapshot is a copy.
	s.ByPartner["TP1"] = 99
	if c.Snapshot().ByPartner["TP1"] == 99 {
		t.Fatal("snapshot shares maps")
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewExchangeCounters()
	b := NewBus()
	b.Attach(c)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := fmt.Sprintf("TP%d", i)
			for j := 0; j < 50; j++ {
				b.Emit(Event{Kind: KindExchange, Step: "started", Partner: p, Flow: FlowPO})
				b.Emit(Event{Kind: KindExchange, Step: "finished", Partner: p, Flow: FlowPO})
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Started != 200 || s.ByFlow[FlowPO] != 200 || s.Failed != 0 {
		t.Fatalf("%+v", s)
	}
}
