package obs

import (
	"sync"
	"testing"
	"time"
)

// recv drains sub until n events arrive or the deadline passes.
func recv(t *testing.T, sub *Subscriber, n int, d time.Duration) []Event {
	t.Helper()
	var got []Event
	deadline := time.After(d)
	for len(got) < n {
		select {
		case ev := <-sub.C():
			got = append(got, ev)
		case <-deadline:
			t.Fatalf("timeout: received %d/%d events", len(got), n)
		}
	}
	return got
}

func TestBusFanOut(t *testing.T) {
	b := NewBus()
	defer b.Close()
	s1 := b.Subscribe(64)
	defer s1.Close()
	s2 := b.Subscribe(64)
	defer s2.Close()
	p := b.Producer(64)
	for i := 0; i < 10; i++ {
		p.Emit(Event{Kind: KindSampleDone, Count: int64(i)})
	}
	for _, sub := range []*Subscriber{s1, s2} {
		got := recv(t, sub, 10, 2*time.Second)
		for i, ev := range got {
			if ev.Count != int64(i) {
				t.Fatalf("event %d: Count = %d", i, ev.Count)
			}
			if ev.Seq == 0 {
				t.Fatalf("event %d: Seq not stamped", i)
			}
		}
	}
}

func TestBusEmitUnsubscribedIsNoOp(t *testing.T) {
	b := NewBus()
	defer b.Close()
	p := b.Producer(64)
	for i := 0; i < 1000; i++ {
		p.Emit(Event{Count: int64(i)})
	}
	// Nothing ringed: a subscriber attached afterwards sees nothing.
	sub := b.Subscribe(64)
	defer sub.Close()
	select {
	case ev := <-sub.C():
		t.Fatalf("gated emit leaked through: %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
	if p.Dropped() != 0 {
		t.Fatalf("gated emits counted as drops: %d", p.Dropped())
	}
}

// TestEmitNeverAllocates pins Producer.Emit's "never allocates" contract on
// both sides of the subscriber gate: the one-atomic-load fast path, and the
// ring push plus ping (and the pump's fan-out) once a subscriber is attached.
func TestEmitNeverAllocates(t *testing.T) {
	b := NewBus()
	defer b.Close()
	p := b.Producer(64)
	emit := func() { p.Emit(Event{Kind: KindSampleDone, Count: 1}) }
	if n := testing.AllocsPerRun(1000, emit); n != 0 {
		t.Errorf("Emit with no subscriber: %v allocs, want 0", n)
	}
	sub := b.Subscribe(64)
	defer sub.Close()
	if n := testing.AllocsPerRun(1000, emit); n != 0 {
		t.Errorf("Emit with one subscriber: %v allocs, want 0", n)
	}
}

func TestNilProducerEmit(t *testing.T) {
	var p *Producer
	p.Emit(Event{Kind: KindLatency}) // must not panic
	if p.Dropped() != 0 {
		t.Fatal("nil producer reports drops")
	}
}

func TestBusSlowSubscriberDropsOldest(t *testing.T) {
	b := NewBus()
	defer b.Close()
	slow := b.Subscribe(4) // tiny buffer, never read until the end
	defer slow.Close()
	fast := b.Subscribe(1024)
	defer fast.Close()
	p := b.Producer(1024)
	const n = 512
	for i := 0; i < n; i++ {
		p.Emit(Event{Kind: KindSampleDone, Count: int64(i)})
	}
	// The fast subscriber sees everything: the slow one never blocked fan-out.
	got := recv(t, fast, n, 5*time.Second)
	for i, ev := range got {
		if ev.Count != int64(i) {
			t.Fatalf("fast subscriber event %d: Count = %d", i, ev.Count)
		}
	}
	// The slow subscriber holds only its newest events; the rest are counted.
	if slow.Dropped() == 0 {
		t.Fatal("slow subscriber reports zero drops")
	}
	var kept []Event
	for {
		select {
		case ev := <-slow.C():
			kept = append(kept, ev)
			continue
		default:
		}
		break
	}
	if len(kept) == 0 || len(kept) > 4 {
		t.Fatalf("slow subscriber kept %d events, want 1..4", len(kept))
	}
	if last := kept[len(kept)-1].Count; last != n-1 {
		t.Fatalf("slow subscriber's newest event is %d, want %d (drop-oldest)", last, n-1)
	}
}

func TestBusCloseDeliversRingedEvents(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(64)
	p := b.Producer(64)
	for i := 0; i < 5; i++ {
		p.Emit(Event{Count: int64(i)})
	}
	b.Close()
	b.Close() // idempotent
	select {
	case <-sub.Done():
	default:
		t.Fatal("subscriber Done not closed after bus Close")
	}
	var got int
	for {
		select {
		case <-sub.C():
			got++
			continue
		default:
		}
		break
	}
	if got != 5 {
		t.Fatalf("final sweep delivered %d/5 events", got)
	}
	// Emits after Close are discarded by the gate.
	p.Emit(Event{Count: 99})
	if b.Subscribers() != 0 {
		t.Fatalf("Subscribers() = %d after Close", b.Subscribers())
	}
}

func TestSubscribeAfterClose(t *testing.T) {
	b := NewBus()
	b.Close()
	sub := b.Subscribe(8)
	select {
	case <-sub.Done():
	default:
		t.Fatal("subscriber on closed bus is not stillborn")
	}
	sub.Close() // must not panic or hang
}

func TestSubscriberCloseGatesProducers(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub := b.Subscribe(8)
	if b.Subscribers() != 1 {
		t.Fatalf("Subscribers() = %d, want 1", b.Subscribers())
	}
	sub.Close()
	sub.Close() // idempotent
	if b.Subscribers() != 0 {
		t.Fatalf("Subscribers() = %d after subscriber Close, want 0", b.Subscribers())
	}
	select {
	case <-sub.Done():
	default:
		t.Fatal("Done not closed by subscriber Close")
	}
}

// TestBusConcurrentProducers drives several producers and subscribers at once
// under the race detector.
func TestBusConcurrentProducers(t *testing.T) {
	b := NewBus()
	defer b.Close()
	subs := []*Subscriber{b.Subscribe(8192), b.Subscribe(8192)}
	const producers, per = 4, 2000
	var wg sync.WaitGroup
	for pi := 0; pi < producers; pi++ {
		p := b.Producer(256)
		wg.Add(1)
		go func(stage int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.Emit(Event{Kind: KindQueueDepth, Stage: stage, Count: int64(i)})
			}
		}(pi)
	}
	wg.Wait()
	for _, sub := range subs {
		var got uint64
	drain:
		for {
			select {
			case <-sub.C():
				got++
			case <-time.After(200 * time.Millisecond):
				break drain
			}
		}
		// Delivered + dropped (either at the ring or at the subscriber)
		// accounts for every emit.
		var ringDrops uint64
		b.mu.Lock()
		for _, p := range b.prods {
			ringDrops += p.r.dropped()
		}
		b.mu.Unlock()
		if total := got + sub.Dropped() + ringDrops; total < producers*per {
			t.Fatalf("accounted %d events (got %d, sub-drop %d, ring-drop %d), want >= %d",
				total, got, sub.Dropped(), ringDrops, producers*per)
		}
		sub.Close()
	}
}

// TestSweepProportionalInterleave pins the starved-pump delivery order:
// when one sweep flushes a backlog far larger than a subscriber's buffer,
// drop-oldest keeps only the batch tail, so the sweep must spread each
// ring's events uniformly across the batch. A low-rate ring (here 32
// events buried under 1024 from eight high-rate rings) must still land
// its newest events in the retained tail — one-per-ring round-robin
// exhausts the small ring in the earliest passes and loses all of it.
func TestSweepProportionalInterleave(t *testing.T) {
	b := NewBus()
	defer b.Close()
	sub := b.Subscribe(64)
	defer sub.Close()
	slow := b.Producer(64)
	fast := make([]*Producer, 8)
	for i := range fast {
		fast[i] = b.Producer(256)
	}
	// Fill the rings directly (no ping) so the pump stays asleep and the
	// whole backlog is flushed by one deterministic sweep call below.
	for i := 0; i < 32; i++ {
		slow.r.push(Event{Kind: KindSampleDone, Count: int64(i + 1)})
	}
	for _, p := range fast {
		for i := 0; i < 128; i++ {
			p.r.push(Event{Kind: KindStageBusy, Count: int64(i)})
		}
	}
	b.sweep()

	var tail []Event
drain:
	for {
		select {
		case ev := <-sub.C():
			tail = append(tail, ev)
		default:
			break drain
		}
	}
	if len(tail) != 64 {
		t.Fatalf("retained tail = %d events, want full buffer 64", len(tail))
	}
	var lastSlow int64 = -1
	for _, ev := range tail {
		if ev.Kind == KindSampleDone && ev.Count > lastSlow {
			lastSlow = ev.Count
		}
	}
	if lastSlow < 0 {
		t.Fatalf("no low-rate events in retained tail: sweep is not time-fair")
	}
	// The tail covers the last ~6% of the batch; the slow ring's surviving
	// events must be its newest, not an arbitrary slice.
	if lastSlow < 30 {
		t.Fatalf("newest surviving low-rate event has Count=%d, want >= 30", lastSlow)
	}
}

// TestSubscribeFuncNeverDrops pins the callback-subscriber contract: the
// pump folds every delivered event into the callback, even when a sibling
// channel subscriber's bounded buffer is evicting most of the same batch —
// the property the Aggregator's latest-value counters depend on.
func TestSubscribeFuncNeverDrops(t *testing.T) {
	b := NewBus()
	defer b.Close()
	var mu sync.Mutex
	var folded int
	var lastDone int64 = -1
	cb := b.SubscribeFunc(func(ev Event) {
		mu.Lock()
		folded++
		if ev.Kind == KindSampleDone {
			lastDone = ev.Count
		}
		mu.Unlock()
	})
	defer cb.Close()
	if cb.C() != nil {
		t.Fatalf("callback subscriber must have a nil channel")
	}
	ch := b.Subscribe(64)
	defer ch.Close()
	p := b.Producer(4096)
	// Fill the ring directly (no ping) so one deterministic sweep flushes
	// a batch far larger than the channel subscriber's buffer.
	for i := 0; i < 2000; i++ {
		p.r.push(Event{Kind: KindStageBusy, Count: int64(i)})
	}
	p.r.push(Event{Kind: KindSampleDone, Count: 2000})
	b.sweep()

	mu.Lock()
	defer mu.Unlock()
	if folded != 2001 {
		t.Fatalf("callback folded %d events, want all 2001", folded)
	}
	if lastDone != 2000 {
		t.Fatalf("callback saw last sample_done Count=%d, want 2000", lastDone)
	}
	if cb.Dropped() != 0 {
		t.Fatalf("callback subscriber reports %d drops, want 0", cb.Dropped())
	}
	if ch.Dropped() == 0 {
		t.Fatalf("channel subscriber should have dropped under the same batch")
	}
}
