package obs

import "sync"

// Collector is a Sink that retains the full event history of the most
// recent exchanges, bounded by exchange count with FIFO eviction — the
// structured replacement for the old per-exchange Trace journal. It is
// safe for concurrent use.
//
// The retained exchanges sit in a ring of at most max slots, in order of
// their first event. A new exchange on a full ring evicts the oldest slot
// and takes over its event buffer, so once the ring has filled, emitting
// allocates nothing.
type Collector struct {
	mu    sync.Mutex
	max   int
	slots []exchangeSlot
	// oldest is the slot the next new exchange evicts once the ring is full.
	oldest int
	index  map[string]int // exchange ID → slot
}

// exchangeSlot holds one retained exchange's events.
type exchangeSlot struct {
	id     string
	events []Event
}

// slotWarmLen and slotWarmCap size a slot's buffer: at its third event a
// buffer grows straight to room for a whole exchange (an exchange emits
// about 34 events). Partner-less plan and config keys, which emit one or
// two events each, stay small.
const (
	slotWarmLen = 2
	slotWarmCap = 32
)

// DefaultCollectorSize bounds the collector a hub attaches by default. It
// is also the hub's retention window: the hub keeps the records and
// workflow instances of that many finished exchanges, and its journal and
// restart follow the same bound (see core's ledger). The ring counts
// exchanges as they start and the window as they finish, so for exchanges
// run one at a time both hold the same ones.
const DefaultCollectorSize = 1024

// NewCollector returns a collector retaining at most maxExchanges
// exchanges (DefaultCollectorSize if maxExchanges <= 0).
func NewCollector(maxExchanges int) *Collector {
	if maxExchanges <= 0 {
		maxExchanges = DefaultCollectorSize
	}
	return &Collector{max: maxExchanges, index: map[string]int{}}
}

// Emit implements Sink.
func (c *Collector) Emit(e Event) {
	if e.ExchangeID == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, known := c.index[e.ExchangeID]
	if !known {
		i = c.claim(e.ExchangeID)
	}
	s := &c.slots[i]
	if len(s.events) == slotWarmLen && cap(s.events) < slotWarmCap {
		s.events = append(make([]Event, 0, slotWarmCap), s.events...)
	}
	s.events = append(s.events, e)
}

// claim registers a new exchange in a fresh slot or, on a full ring, in the
// oldest slot, whose buffer it reuses. The buffer is cleared first so the
// evicted events' strings and errors do not stay reachable.
func (c *Collector) claim(id string) int {
	i := len(c.slots)
	if i < c.max {
		c.slots = append(c.slots, exchangeSlot{})
	} else {
		i = c.oldest
		c.oldest = (c.oldest + 1) % c.max
		s := &c.slots[i]
		delete(c.index, s.id)
		clear(s.events)
		s.events = s.events[:0]
	}
	c.slots[i].id = id
	c.index[id] = i
	return i
}

// Events returns a copy of the retained events of one exchange, in
// emission order (nil when the exchange is unknown or evicted).
func (c *Collector) Events(exchangeID string) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[exchangeID]
	if !ok {
		return nil
	}
	return append([]Event(nil), c.slots[i].events...)
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

// Exchanges reports how many exchanges are currently retained.
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
