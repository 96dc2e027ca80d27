// Package pubsub implements the server's typed event bus: the push
// primitive behind the /ws endpoint that replaces the polling surfaces
// (message.wait long-polls, federation job.status batch polls, MonALISA
// gauge scrapes). The shape follows the tendermint pubsub/events model
// referenced in ROADMAP: typed events carrying key/value tags, matched
// by per-subscriber queries.
//
// Delivery contract: publishers NEVER block. Every subscription owns a
// bounded buffer; when a slow subscriber falls behind, the oldest
// buffered events are dropped to make room and a synthetic
// pubsub.lagged marker event (Data["dropped"] = count) is enqueued at
// the gap, so consumers always learn that a gap exists.
package pubsub

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"clarens/internal/telemetry"
)

// TypeLagged is the synthetic event type injected into a subscriber's
// stream after drop-oldest overflow. Its Data["dropped"] carries how
// many events were discarded since the previous marker; its Seq is 0
// (it is per-subscriber, not a bus event).
const TypeLagged = "pubsub.lagged"

// DefaultBuffer is the per-subscription buffer size used when
// Subscribe is called with buf <= 0.
const DefaultBuffer = 64

// Event is one bus event. Tags are flat key/value pairs used for query
// matching and ACL scoping (conventionally: service, owner, job_id,
// state, to, from); Data is the free-form payload delivered to
// subscribers. Seq is a bus-wide monotonic sequence number assigned at
// publish time — clients use it to deduplicate across reconnects.
type Event struct {
	Seq   uint64            `json:"seq,omitempty"`
	Type  string            `json:"type"`
	Time  time.Time         `json:"time"`
	Trace string            `json:"trace,omitempty"`
	Tags  map[string]string `json:"tags,omitempty"`
	Data  map[string]any    `json:"data,omitempty"`
}

// Bus fans events out to query-matched subscriptions. The zero value is
// not usable; call New.
type Bus struct {
	mu     sync.RWMutex
	subs   map[*Subscription]struct{}
	closed bool
	seq    atomic.Uint64

	// Telemetry (nil until Instrument).
	published *telemetry.Counter
	delivered *telemetry.Counter
	dropped   *telemetry.Counter
}

// New creates an empty bus.
func New() *Bus {
	return &Bus{subs: map[*Subscription]struct{}{}}
}

// Instrument registers the bus's counters and subscriber gauge on reg.
func (b *Bus) Instrument(reg *telemetry.Registry) {
	b.published = reg.Counter("clarens.pubsub.published",
		"Events published to the event bus.")
	b.delivered = reg.Counter("clarens.pubsub.delivered",
		"Events delivered into subscriber buffers.")
	b.dropped = reg.Counter("clarens.pubsub.dropped",
		"Events dropped from slow subscriber buffers (drop-oldest).")
	reg.RegisterGauge("clarens.pubsub.subscribers",
		"Active event bus subscriptions.",
		func() float64 { return float64(b.Subscribers()) })
}

// Subscribers reports the number of active subscriptions.
func (b *Bus) Subscribers() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.subs)
}

// Seq returns the sequence number of the most recently published event.
func (b *Bus) Seq() uint64 { return b.seq.Load() }

// Publish assigns ev a sequence number and offers it to every matching
// subscription. It never blocks: full subscriber buffers shed their
// oldest event instead (see package comment). Publishing on a closed
// bus is a no-op.
func (b *Bus) Publish(ev Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return
	}
	ev.Seq = b.seq.Add(1)
	if b.published != nil {
		b.published.Inc()
	}
	for sub := range b.subs {
		if sub.match != nil && !sub.match(&ev) {
			continue
		}
		delivered, droppedN := sub.offer(ev)
		if delivered && b.delivered != nil {
			b.delivered.Inc()
		}
		for i := 0; i < droppedN; i++ {
			if b.dropped != nil {
				b.dropped.Inc()
			}
		}
	}
}

// Subscribe registers a new subscription. match may be nil (receive
// everything); name labels the subscription for diagnostics; buf <= 0
// selects DefaultBuffer. On a closed bus the returned subscription's
// channel is already closed.
func (b *Bus) Subscribe(name string, match func(*Event) bool, buf int) *Subscription {
	if buf <= 0 {
		buf = DefaultBuffer
	}
	if buf < 2 {
		buf = 2 // room for an event plus its lagged marker
	}
	s := &Subscription{bus: b, name: name, match: match, ch: make(chan Event, buf)}
	b.mu.Lock()
	if b.closed {
		s.closed = true
		close(s.ch)
	} else {
		b.subs[s] = struct{}{}
	}
	b.mu.Unlock()
	return s
}

// Await is the long-poll primitive: it parks until ready reports true.
// It subscribes before the first check, so an event published between
// a check and the park is never missed, and re-checks on every delivery
// (lag markers included) and once more when timeout elapses, ctx ends
// or the bus closes. The subscription ends when Await returns.
func (b *Bus) Await(ctx context.Context, name string, match func(*Event) bool, timeout time.Duration, ready func() bool) {
	// A waiter only needs to learn that something happened: the
	// smallest buffer (an event plus its lag marker) is enough.
	sub := b.Subscribe(name, match, 2)
	defer sub.Cancel()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for !ready() {
		select {
		case _, ok := <-sub.Events():
			if ok {
				continue
			}
		case <-timer.C:
		case <-ctx.Done():
		}
		ready()
		return
	}
}

// Close shuts the bus down: all subscription channels are closed and
// further publishes are dropped.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := make([]*Subscription, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.subs = map[*Subscription]struct{}{}
	b.mu.Unlock()
	for _, s := range subs {
		s.closeCh()
	}
}

// Subscription is one consumer's view of the bus. Read events from
// Events(); call Cancel when done (the channel is then closed).
type Subscription struct {
	bus   *Bus
	name  string
	match func(*Event) bool

	mu          sync.Mutex
	ch          chan Event
	closed      bool
	pendingLag  uint64 // drops not yet announced by a lagged marker
	droppedTot  uint64
	deliveredTo uint64
}

// Events returns the subscription's delivery channel. It is closed by
// Cancel and by Bus.Close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Name returns the label given at Subscribe time.
func (s *Subscription) Name() string { return s.name }

// Dropped reports how many events this subscription has shed.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.droppedTot
}

// Cancel removes the subscription from the bus and closes its channel.
// Safe to call multiple times and concurrently with Publish.
func (s *Subscription) Cancel() {
	s.bus.mu.Lock()
	delete(s.bus.subs, s)
	s.bus.mu.Unlock()
	s.closeCh()
}

func (s *Subscription) closeCh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
}

// offer enqueues ev without ever blocking, shedding the oldest buffered
// events when full. The lagged marker announcing a gap is enqueued at
// the gap itself, so a consumer that drains after the burst still sees
// it even if nothing is published again. It reports whether ev itself
// was delivered and how many real events were newly dropped. Serialized
// with closeCh by s.mu, so Publish can never send on a closed channel.
func (s *Subscription) offer(ev Event) (delivered bool, dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, 0
	}
	// Fast path: no unannounced gap and room in the buffer.
	if s.pendingLag == 0 {
		select {
		case s.ch <- ev:
			s.deliveredTo++
			return true, 0
		default:
		}
	}
	// Overflow (or an unannounced gap from a pathologically small
	// buffer): shed oldest entries until there is room for a lagged
	// marker plus the event. A shed marker folds its count into the new
	// one instead of counting as a lost event — its drops were already
	// tallied when they happened.
	lag := s.pendingLag
	for len(s.ch) > 0 && len(s.ch) > cap(s.ch)-2 {
		select {
		case old := <-s.ch:
			if old.Type == TypeLagged {
				if n, ok := old.Data["dropped"].(uint64); ok {
					lag += n
				}
			} else {
				lag++
				dropped++
			}
		default:
			// Consumer drained it first; room exists now.
		}
	}
	if lag > 0 {
		select {
		case s.ch <- Event{Type: TypeLagged, Time: ev.Time, Data: map[string]any{"dropped": lag}}:
			lag = 0
		default:
		}
	}
	select {
	case s.ch <- ev:
		s.deliveredTo++
		delivered = true
	default:
		lag++
		dropped++
	}
	s.pendingLag = lag
	s.droppedTot += uint64(dropped)
	return delivered, dropped
}
