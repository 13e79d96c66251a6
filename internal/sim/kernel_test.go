package sim

import (
	"strings"
	"testing"
)

// oneShard builds the serial configuration of the kernel: one shard,
// one origin, and a one-tick lookahead, so every window holds a single
// tick and Run/Drain step through time exactly as an unsharded event
// loop would. Tests run it with one worker.
func oneShard() *Shards { return NewShards(1, 1, 1) }

func TestRunOrdersEventsByTime(t *testing.T) {
	k := oneShard()
	var got []int
	k.At(0, 30, 0, func() { got = append(got, 3) })
	k.At(0, 10, 0, func() { got = append(got, 1) })
	k.At(0, 20, 0, func() { got = append(got, 2) })
	k.Run(1, 100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if k.Now(0) != 100 {
		t.Fatalf("Now = %d, want 100 (run advances to until)", k.Now(0))
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := oneShard()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(0, 5, 0, func() { got = append(got, i) })
	}
	k.Run(1, 10)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	k := oneShard()
	var at Time
	k.At(0, 10, 0, func() {
		k.After(0, 5, 0, func() { at = k.Now(0) })
	})
	k.Run(1, 100)
	if at != 15 {
		t.Fatalf("After fired at %d, want 15", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := oneShard()
	k.At(0, 10, 0, func() {})
	k.Run(1, 50)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.At(0, 3, 0, func() {})
}

func TestRunStopsAtUntil(t *testing.T) {
	k := oneShard()
	ran := false
	k.At(0, 100, 0, func() { ran = true })
	n := k.Run(1, 50)
	if ran || n != 0 {
		t.Fatal("event beyond until must not run")
	}
	if k.Now(0) != 50 {
		t.Fatalf("Now = %d, want 50", k.Now(0))
	}
	k.Run(1, 100)
	if !ran {
		t.Fatal("event should run on later Run")
	}
}

func TestDrainBackstop(t *testing.T) {
	k := oneShard()
	// Self-perpetuating event chain never empties the queue. With a
	// one-tick lookahead each window runs exactly one event, so the
	// window-granular backstop stops at exactly maxEvents.
	var loop func()
	loop = func() { k.After(0, 1, 0, loop) }
	k.At(0, 0, 0, loop)
	if k.Drain(1, 100) {
		t.Fatal("Drain should report non-quiescence for a live-lock")
	}
	if k.Executed() != 100 {
		t.Fatalf("Executed = %d, want 100", k.Executed())
	}
}

func TestDrainQuiesces(t *testing.T) {
	k := oneShard()
	for i := 0; i < 5; i++ {
		k.At(0, Time(i), 0, func() {})
	}
	if !k.Drain(1, 1000) {
		t.Fatal("Drain should reach quiescence")
	}
	if k.Pending() != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestEventsCascade(t *testing.T) {
	// Events scheduled during Run at times <= until still run.
	k := oneShard()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 10 {
			k.After(0, 1, 0, rec)
		}
	}
	k.At(0, 0, 0, rec)
	k.Run(1, 100)
	if depth != 10 {
		t.Fatalf("cascade depth = %d, want 10", depth)
	}
}

func TestReserveGrowsCapacityAndKeepsOrder(t *testing.T) {
	k := oneShard()
	if err := k.Reserve(0, 1024); err != nil {
		t.Fatal(err)
	}
	var got []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		k.At(0, at, 0, func() { got = append(got, at) })
	}
	if err := k.Reserve(0, 8); err != nil { // shrinking request is a no-op
		t.Fatal(err)
	}
	k.Run(1, 100)
	want := []Time{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order after Reserve: got %v want %v", got, want)
		}
	}
}

func TestPastPanicMessageHasOrigin(t *testing.T) {
	k := NewShards(1, 1, 8)
	k.At(0, 50, 3, func() {})
	k.Run(1, 100)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, "origin cell 3") {
			t.Errorf("panic message should name the origin cell, got %q", msg)
		}
	}()
	k.At(0, 10, 3, func() {})
}

// TestHeapStressOrdering drives the 4-ary heap through a large
// interleaved push/pop pattern and checks global time order.
func TestHeapStressOrdering(t *testing.T) {
	k := oneShard()
	rng := NewRand(42)
	const n = 5000
	var fired []Time
	var schedule func(depth int)
	schedule = func(depth int) {
		at := k.Now(0) + Time(1+rng.Intn(50))
		k.At(0, at, 0, func() {
			fired = append(fired, k.Now(0))
			if depth < 3 {
				schedule(depth + 1)
			}
		})
	}
	for i := 0; i < n; i++ {
		schedule(0)
	}
	k.Run(1, 1_000_000)
	if len(fired) < n {
		t.Fatalf("only %d events fired", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("event %d fired at %d after time %d", i, fired[i], fired[i-1])
		}
	}
}

func TestHeapFIFOWithinSameTick(t *testing.T) {
	k := oneShard()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(0, 7, 0, func() { got = append(got, i) })
	}
	k.Run(1, 10)
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated at %d: %v...", i, got[:i+1])
		}
	}
}

func TestAtIsAllocationFree(t *testing.T) {
	k := oneShard()
	if err := k.Reserve(0, 2048); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		next := k.Now(0) + 1
		k.At(0, next, 0, func() {})
		k.Run(1, next)
	})
	// One alloc per run is the closure itself; the queue and the
	// one-worker window loop must add none.
	if allocs > 1 {
		t.Errorf("At+Run allocates %.1f objects per event, want <= 1", allocs)
	}
}
