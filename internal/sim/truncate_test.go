package sim

import "testing"

// TestShardsDrainUntilDiscardPending: DrainUntil executes exactly the
// events at or before the cutoff and parks every clock there; with a
// post-cutoff cross-shard event sitting in a mailbox, DiscardPending
// must drop queued heap events and boxed route events alike.
func TestShardsDrainUntilDiscardPending(t *testing.T) {
	k := NewShards(2, 10, 2)
	var ran []Time
	k.At(0, 5, 0, func() {
		ran = append(ran, k.Now(0))
		// Due after the cutoff: lands in the 0→1 mailbox and must be
		// discarded, not executed.
		k.Cross(0, 1, 60, 0, func() { t.Error("post-cutoff cross event executed") })
	})
	k.At(1, 20, 1, func() { ran = append(ran, k.Now(1)) })
	k.At(1, 45, 1, func() { t.Error("post-cutoff event executed") })
	if !k.DrainUntil(1, 30, 1_000) {
		t.Fatal("DrainUntil hit the backstop")
	}
	if len(ran) != 2 || ran[0] != 5 || ran[1] != 20 {
		t.Fatalf("executed %v, want [5 20]", ran)
	}
	for s := 0; s < k.NumShards(); s++ {
		if k.Now(s) != 30 {
			t.Fatalf("shard %d clock = %d, want 30 (parked at cutoff)", s, k.Now(s))
		}
	}
	if n := k.DiscardPending(); n != 2 {
		t.Fatalf("DiscardPending = %d, want 2 (one heap event, one boxed)", n)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after discard, want 0", k.Pending())
	}
}

// TestShardsDrainUntilBackstop: the maxEvents backstop (checked per
// window) reports false with due events still queued.
func TestShardsDrainUntilBackstop(t *testing.T) {
	k := oneShard()
	for i := Time(1); i <= 5; i++ {
		k.At(0, i, 0, func() {})
	}
	if k.DrainUntil(1, 5, 2) {
		t.Fatal("DrainUntil should report false on the backstop")
	}
	if k.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", k.Pending())
	}
}

// TestShardsDrainUntilMatchesDrainPrefix: the events DrainUntil
// executes are exactly the prefix (by canonical order) of what a full
// Drain executes — truncation must not reorder or skip pre-cutoff work.
func TestShardsDrainUntilMatchesDrainPrefix(t *testing.T) {
	build := func() (*Shards, *[]Time) {
		k := NewShards(2, 5, 4)
		var log []Time
		for _, spec := range []struct {
			s   int
			at  Time
			org int32
		}{{0, 2, 0}, {0, 9, 1}, {1, 4, 2}, {1, 9, 3}, {0, 17, 0}, {1, 23, 2}} {
			spec := spec
			k.At(spec.s, spec.at, spec.org, func() { log = append(log, spec.at) })
		}
		return k, &log
	}
	kFull, fullLog := build()
	if !kFull.Drain(1, 1_000) {
		t.Fatal("full drain did not quiesce")
	}
	kTrunc, truncLog := build()
	if !kTrunc.DrainUntil(1, 9, 1_000) {
		t.Fatal("DrainUntil hit the backstop")
	}
	want := (*fullLog)[:len(*truncLog)]
	for i, at := range *truncLog {
		if want[i] != at {
			t.Fatalf("truncated execution diverged at %d: got %v, want prefix of %v", i, *truncLog, *fullLog)
		}
	}
	if len(*truncLog) != 4 {
		t.Fatalf("executed %d events up to cutoff 9, want 4", len(*truncLog))
	}
}
