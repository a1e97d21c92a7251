package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// buffered drains whatever sub's channel already holds. Emit delivers
// before it returns, so there is nothing to wait for.
func buffered(sub *Subscriber) []Event {
	var got []Event
	for {
		select {
		case ev := <-sub.C():
			got = append(got, ev)
		default:
			return got
		}
	}
}

func TestBusFanOut(t *testing.T) {
	b := NewBus()
	defer b.Close()
	s1 := b.Subscribe(64)
	defer s1.Close()
	s2 := b.Subscribe(64)
	defer s2.Close()
	for i := 0; i < 10; i++ {
		b.Emit(Event{Kind: KindSampleDone, Count: int64(i)})
	}
	for _, sub := range []*Subscriber{s1, s2} {
		got := buffered(sub)
		if len(got) != 10 {
			t.Fatalf("received %d/10 events", len(got))
		}
		for i, ev := range got {
			if ev.Count != int64(i) {
				t.Fatalf("event %d: Count = %d", i, ev.Count)
			}
			if ev.Seq != uint64(i+1) {
				t.Fatalf("event %d: Seq = %d, want %d", i, ev.Seq, i+1)
			}
		}
	}
}

func TestBusEmitUnsubscribedIsNoOp(t *testing.T) {
	b := NewBus()
	defer b.Close()
	for i := 0; i < 1000; i++ {
		b.Emit(Event{Count: int64(i)})
	}
	// Nothing kept: a subscriber attached afterwards sees nothing, and the
	// gated emits did not advance the delivery sequence.
	sub := b.Subscribe(64)
	defer sub.Close()
	if got := buffered(sub); len(got) != 0 {
		t.Fatalf("gated emit leaked through: %+v", got[0])
	}
	b.Emit(Event{Count: 1})
	if got := buffered(sub); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("first watched emit = %+v, want one event with Seq 1", got)
	}
}

// TestEmitNeverAllocates pins Emit's "never allocates" contract on both
// sides of the subscriber gate: the one-atomic-load fast path, and the
// locked delivery once a subscriber is attached.
func TestEmitNeverAllocates(t *testing.T) {
	b := NewBus()
	defer b.Close()
	emit := func() { b.Emit(Event{Kind: KindSampleDone, Count: 1}) }
	if n := testing.AllocsPerRun(1000, emit); n != 0 {
		t.Errorf("Emit with no subscriber: %v allocs, want 0", n)
	}
	sub := b.Subscribe(64)
	defer sub.Close()
	if n := testing.AllocsPerRun(1000, emit); n != 0 {
		t.Errorf("Emit with one subscriber: %v allocs, want 0", n)
	}
}

func TestNilBusEmit(t *testing.T) {
	var b *Bus
	b.Emit(Event{Kind: KindLatency}) // must not panic
}

func TestBusSlowSubscriberDropsOldest(t *testing.T) {
	b := NewBus()
	defer b.Close()
	slow := b.Subscribe(4) // tiny buffer, never read until the end
	defer slow.Close()
	fast := b.Subscribe(1024)
	defer fast.Close()
	const n = 512
	for i := 0; i < n; i++ {
		b.Emit(Event{Kind: KindSampleDone, Count: int64(i)})
	}
	// The fast subscriber sees everything: the slow one never blocked fan-out.
	got := buffered(fast)
	if len(got) != n {
		t.Fatalf("fast subscriber received %d/%d events", len(got), n)
	}
	for i, ev := range got {
		if ev.Count != int64(i) {
			t.Fatalf("fast subscriber event %d: Count = %d", i, ev.Count)
		}
	}
	// The slow subscriber holds only its newest events; the rest are counted.
	kept := buffered(slow)
	if len(kept) != 4 || slow.Dropped() != n-4 {
		t.Fatalf("slow subscriber kept %d and dropped %d, want 4 and %d", len(kept), slow.Dropped(), n-4)
	}
	if last := kept[len(kept)-1].Count; last != n-1 {
		t.Fatalf("slow subscriber's newest event is %d, want %d (drop-oldest)", last, n-1)
	}
}

// TestBusCloseDeliversRingedEvents: events emitted before Close stay
// readable from a channel subscriber after Close ends it.
func TestBusCloseDeliversRingedEvents(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(64)
	for i := 0; i < 5; i++ {
		b.Emit(Event{Count: int64(i)})
	}
	b.Close()
	b.Close() // idempotent
	select {
	case <-sub.Done():
	default:
		t.Fatal("subscriber Done not closed after bus Close")
	}
	if got := len(buffered(sub)); got != 5 {
		t.Fatalf("%d/5 events readable after Close", got)
	}
	// Emits after Close are discarded by the gate.
	b.Emit(Event{Count: 99})
	if got := len(buffered(sub)); got != 0 {
		t.Fatalf("%d events delivered after Close", got)
	}
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

// TestBusConcurrentProducers drives several emitting goroutines at once
// under the race detector: a callback subscriber folds every event exactly
// once, and a channel subscriber sees a strictly increasing Seq and accounts
// for every event as received or dropped.
func TestBusConcurrentProducers(t *testing.T) {
	b := NewBus()
	defer b.Close()
	const producers, per = 4, 2000
	var folded atomic.Int64
	cb := b.SubscribeFunc(func(Event) { folded.Add(1) })
	defer cb.Close()
	sub := b.Subscribe(256)
	defer sub.Close()

	var got uint64
	var lastSeq uint64
	read := make(chan error, 1)
	go func() {
		for {
			select {
			case ev := <-sub.C():
				if ev.Seq <= lastSeq {
					read <- fmt.Errorf("Seq %d after %d", ev.Seq, lastSeq)
					return
				}
				lastSeq = ev.Seq
				got++
			case <-sub.Done():
				read <- nil
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for pi := 0; pi < producers; pi++ {
		wg.Add(1)
		go func(stage int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Emit(Event{Kind: KindQueueDepth, Stage: stage, Count: int64(i)})
			}
		}(pi)
	}
	wg.Wait()
	if n := folded.Load(); n != producers*per {
		t.Fatalf("callback folded %d events, want %d", n, producers*per)
	}
	sub.Close()
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	for _, ev := range buffered(sub) {
		if ev.Seq <= lastSeq {
			t.Fatalf("Seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		got++
	}
	if total := got + sub.Dropped(); total != producers*per {
		t.Fatalf("accounted %d events (got %d, dropped %d), want %d",
			total, got, sub.Dropped(), producers*per)
	}
}

// TestSubscribeFuncNeverDrops pins the callback-subscriber contract: every
// event folds into the callback, even when a sibling channel subscriber's
// bounded buffer is evicting most of the same stream — the property the
// Aggregator's latest-value counters depend on.
func TestSubscribeFuncNeverDrops(t *testing.T) {
	b := NewBus()
	defer b.Close()
	var folded int
	var lastDone int64 = -1
	cb := b.SubscribeFunc(func(ev Event) {
		folded++
		if ev.Kind == KindSampleDone {
			lastDone = ev.Count
		}
	})
	defer cb.Close()
	if cb.C() != nil {
		t.Fatalf("callback subscriber must have a nil channel")
	}
	ch := b.Subscribe(64)
	defer ch.Close()
	for i := 0; i < 2000; i++ {
		b.Emit(Event{Kind: KindStageBusy, Count: int64(i)})
	}
	b.Emit(Event{Kind: KindSampleDone, Count: 2000})

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
		t.Fatalf("channel subscriber should have dropped under the same stream")
	}
}
