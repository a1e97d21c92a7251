package obs

import (
	"sync"
	"sync/atomic"
)

// Bus fans events out to any number of subscribers. Emit delivers each
// event itself, on the emitting goroutine: it stamps the event's Seq and
// hands it to every subscriber under the bus lock, so when Emit returns
// every subscriber has the event. A channel subscriber gets a try-send with
// drop-oldest overflow — a slow subscriber loses its own oldest events and
// never slows an emitter or a sibling subscriber. A callback subscriber is
// called in place and never drops.
//
// The hot-path contract lives in Emit: on a nil bus, or with no subscriber
// attached, it is one atomic load; it never waits on a subscriber.
type Bus struct {
	mu     sync.Mutex
	subs   []*Subscriber
	closed bool
	// seq is the delivery sequence, stamped under mu.
	seq uint64

	// nsubs gates the emit fast path; it counts open subscribers.
	nsubs atomic.Int32
}

// NewBus builds a bus. It starts no goroutine.
func NewBus() *Bus { return &Bus{} }

// Emit publishes one event to every subscriber. A nil bus or a bus with no
// subscriber returns at once; otherwise Emit takes the bus lock, stamps Seq
// and delivers. It never allocates and never waits on a subscriber.
func (b *Bus) Emit(ev Event) {
	if b == nil || b.nsubs.Load() == 0 {
		return
	}
	b.publish(ev)
}

// publish is Emit's watched path, kept out of line so the gate inlines at
// every emit site.
func (b *Bus) publish(ev Event) {
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	for _, s := range b.subs {
		s.deliver(ev)
	}
	b.mu.Unlock()
}

// Subscribe attaches a subscriber with a delivery buffer of the given
// capacity (default 256 when buf <= 0). The subscriber must be Closed when
// done — an abandoned subscriber keeps the emit gate open.
func (b *Bus) Subscribe(buf int) *Subscriber {
	if buf <= 0 {
		buf = 256
	}
	return b.attach(&Subscriber{bus: b, ch: make(chan Event, buf), quit: make(chan struct{})})
}

// SubscribeFunc attaches a callback subscriber: Emit calls fn for every
// event instead of buffering into a channel, so a callback subscriber never
// drops — the right shape for folding consumers (the Aggregator). fn runs
// on the emitting goroutine under the bus lock: it must be fast, must never
// block, must never call back into the bus, and must synchronize any state
// it shares with readers. C() on a callback subscriber returns nil (select
// against Done for termination); Close detaches it like any subscriber.
func (b *Bus) SubscribeFunc(fn func(Event)) *Subscriber {
	return b.attach(&Subscriber{bus: b, fn: fn, quit: make(chan struct{})})
}

func (b *Bus) attach(s *Subscriber) *Subscriber {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		s.closeQuit() // stillborn: Done is already closed, C never delivers
		return s
	}
	b.subs = append(b.subs, s)
	b.nsubs.Add(1)
	return s
}

// Subscribers reports the number of open subscribers (the emit gate).
func (b *Bus) Subscribers() int { return int(b.nsubs.Load()) }

// Close detaches every subscriber and closes its Done channel. Idempotent.
// Emits after Close are discarded by the gate (the subscriber count drops
// to zero).
func (b *Bus) Close() {
	b.mu.Lock()
	b.closed = true
	b.nsubs.Store(0)
	subs := b.subs
	b.subs = nil
	b.mu.Unlock()
	for _, s := range subs {
		s.closeQuit()
	}
}

// unsubscribe removes s and closes the emit gate when it was the last
// subscriber.
func (b *Bus) unsubscribe(s *Subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, cur := range b.subs {
		if cur == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			b.nsubs.Add(-1)
			return
		}
	}
}

// Subscriber receives the event stream, either over a bounded channel
// (Subscribe) or through a synchronous callback (SubscribeFunc).
type Subscriber struct {
	bus   *Bus
	ch    chan Event  // channel subscriber: bounded, drop-oldest
	fn    func(Event) // callback subscriber: called by Emit, never drops
	quit  chan struct{}
	once  sync.Once
	drops atomic.Uint64
}

// C is the event stream. It is never closed — select against Done for
// termination. Nil for a callback subscriber.
func (s *Subscriber) C() <-chan Event { return s.ch }

// Done is closed when the subscriber or its bus closes.
func (s *Subscriber) Done() <-chan struct{} { return s.quit }

// Dropped reports how many events this subscriber lost to drop-oldest
// delivery (its channel was full when an event arrived). Always 0 for a
// callback subscriber.
func (s *Subscriber) Dropped() uint64 { return s.drops.Load() }

// Close detaches the subscriber from the bus. Idempotent; pending events
// already in the channel remain readable.
func (s *Subscriber) Close() {
	s.bus.unsubscribe(s)
	s.closeQuit()
}

func (s *Subscriber) closeQuit() {
	s.once.Do(func() { close(s.quit) })
}

// deliver hands one event to the subscriber without ever waiting on it: a
// callback subscriber folds it synchronously; a channel subscriber gets a
// try-send, and on a full buffer the oldest event is evicted and the send
// tried once more. Emit calls deliver under the bus lock, so there is one
// sender at a time and the eviction can only race the subscriber's own
// receive — in the worst case the receive wins and the retry finds room.
func (s *Subscriber) deliver(ev Event) {
	if s.fn != nil {
		s.fn(ev)
		return
	}
	select {
	case s.ch <- ev:
		return
	default:
	}
	select {
	case <-s.ch:
		s.drops.Add(1)
	default:
	}
	select {
	case s.ch <- ev:
	default:
		s.drops.Add(1)
	}
}
