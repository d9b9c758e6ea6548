package obs

import "sync"

// Collector is a Sink that keeps the full event history of the exchanges
// its owner opened and has not forgotten yet, and drops every other event.
// It has no bound or eviction order of its own: the hub's ledger opens an
// exchange's trace as it files the exchange's record and forgets it as the
// record leaves. It is safe for concurrent use.
//
// A forgotten exchange's buffer is cleared and handed to the next exchange
// opened, so once the hub forgets exchanges as fast as it opens them,
// emitting allocates nothing.
type Collector struct {
	mu    sync.Mutex
	index map[string]int // open exchange ID → its buffer in bufs
	bufs  [][]Event
	free  []int // buffers of forgotten exchanges, cleared
}

// NewCollector returns a collector with room reserved for n open exchanges.
func NewCollector(n int) *Collector {
	n = max(n, 0)
	return &Collector{index: make(map[string]int, n), bufs: make([][]Event, 0, n)}
}

// Open starts keeping the events of exchangeID; it does nothing while the
// exchange is open.
func (c *Collector) Open(exchangeID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, open := c.index[exchangeID]; open {
		return
	}
	i := len(c.bufs)
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else { // an exchange emits about 34 events: regrown at most once
		c.bufs = append(c.bufs, make([]Event, 0, 32))
	}
	c.index[exchangeID] = i
}

// Forget drops the events of exchangeID, if it is open. Its buffer is
// cleared first so the dropped events' strings and errors do not stay
// reachable.
func (c *Collector) Forget(exchangeID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, open := c.index[exchangeID]
	if !open {
		return
	}
	delete(c.index, exchangeID)
	clear(c.bufs[i])
	c.bufs[i] = c.bufs[i][:0]
	c.free = append(c.free, i)
}

// Emit implements Sink: an event of an open exchange is kept, any other
// dropped.
func (c *Collector) Emit(e Event) {
	if e.ExchangeID == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, open := c.index[e.ExchangeID]; open {
		c.bufs[i] = append(c.bufs[i], e)
	}
}

// Events returns a copy of the events of one exchange, in emission order
// (nil when the exchange is not open).
func (c *Collector) Events(exchangeID string) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[exchangeID]
	if !ok {
		return nil
	}
	return append([]Event(nil), c.bufs[i]...)
}

// Trace renders an exchange's routing journey as hop strings — the
// compatibility view over the event stream that replaces Exchange.Trace.
func (c *Collector) Trace(exchangeID string) []string {
	var hops []string
	for _, e := range c.Events(exchangeID) {
		if e.Kind == KindRoute {
			hops = append(hops, e.Step)
		}
	}
	return hops
}

// Exchanges reports how many exchanges are open.
func (c *Collector) Exchanges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// ExchangeCounters is a Sink that derives activity counters from the
// exchange lifecycle events — the replacement for hand-rolled hub
// counters. It is safe for concurrent use.
type ExchangeCounters struct {
	mu         sync.Mutex
	started    int64
	failed     int64
	retries    int64
	deadLetter int64
	byFlow     map[Flow]int64
	byPartner  map[string]int64
}

// NewExchangeCounters returns an empty counters sink.
func NewExchangeCounters() *ExchangeCounters {
	return &ExchangeCounters{byFlow: map[Flow]int64{}, byPartner: map[string]int64{}}
}

// Emit implements Sink: KindExchange lifecycle events and KindRetry
// attempts are counted. Terminal events (finished or failed) count toward
// the flow and partner totals; failures additionally increment the failure
// counter. Dead-letter events count only the dead-letter total — the
// exchange's terminal "failed" event already covered the flow and partner.
func (c *ExchangeCounters) Emit(e Event) {
	if e.Kind == KindRetry {
		if e.Step == StepAttempt {
			c.mu.Lock()
			c.retries++
			c.mu.Unlock()
		}
		return
	}
	if e.Kind != KindExchange {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.Step {
	case StepStarted:
		c.started++
	case StepDeadLetter:
		c.deadLetter++
	default:
		c.byFlow[e.Flow]++
		c.byPartner[e.Partner]++
		if e.Err != nil {
			c.failed++
		}
	}
}

// CountersSnapshot is the exported view of the exchange counters.
type CountersSnapshot struct {
	Started int64 `json:"started"`
	Failed  int64 `json:"failed"`
	// Retries counts failed delivery attempts that were retried.
	Retries int64 `json:"retries"`
	// DeadLettered counts exchanges parked on the dead-letter queue.
	DeadLettered int64          `json:"dead_lettered"`
	ByFlow       map[Flow]int64 `json:"by_flow,omitempty"`
	// ByPartner counts terminal exchanges per trading partner.
	ByPartner map[string]int64 `json:"by_partner,omitempty"`
}

// Snapshot returns a deep copy of the counters.
func (c *ExchangeCounters) Snapshot() CountersSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CountersSnapshot{
		Started:      c.started,
		Failed:       c.failed,
		Retries:      c.retries,
		DeadLettered: c.deadLetter,
		ByFlow:       make(map[Flow]int64, len(c.byFlow)),
		ByPartner:    make(map[string]int64, len(c.byPartner)),
	}
	for k, v := range c.byFlow {
		s.ByFlow[k] = v
	}
	for k, v := range c.byPartner {
		s.ByPartner[k] = v
	}
	return s
}
