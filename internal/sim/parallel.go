// Package sim is a deterministic discrete-event simulation kernel —
// virtual time, a sharded event queue ordered by a canonical key, and
// seeded random-number streams.
//
// All protocol benchmarks run on this kernel so results are exactly
// reproducible from a seed; the live goroutine runtime in
// internal/transport exists to exercise the same station code under real
// concurrency.
package sim

// Conservative parallel DES kernel. The grid is sharded into contiguous
// tiles (hexgrid.Partition); each shard owns a private 4-ary event heap
// and advances in lockstep windows of width equal to the lookahead (the
// one-way message latency T). Within a window [W, W+T) shards execute
// independently: an event at time t can only affect another shard via a
// message delivered at >= t+T >= W+T, i.e. in a later window. Cross-shard
// sends land in per-(src,dst) mailboxes that are merged into the
// destination heaps at the window barrier.
//
// Determinism contract: events are totally ordered by the canonical key
// (at, origin, counter) where origin is the cell whose handler scheduled
// the event (for message deliveries, the *sender*) and counter is a
// per-origin monotone count assigned at scheduling time. All of a cell's
// events execute in the cell's owning shard, every event is present in
// that heap before its due time (cross-shard events are merged at the
// barrier preceding their window), and the key is computed shard-locally
// — so per-cell trajectories are byte-identical at any shard count and
// any worker count. The mailbox merge order (ascending source shard)
// does not affect execution order because the heap re-orders by key;
// it is fixed anyway so heap layouts, and therefore any tie-breaking
// bug, would reproduce exactly.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"unsafe"
)

// Time is virtual time in abstract ticks. The paper's unit is T, the
// one-way message latency; drivers conventionally use 1 tick = 1
// microsecond-ish granularity and express T in ticks.
type Time int64

// pevent is one scheduled callback. The (org, cnt) pair is assigned by
// the origin cell's own shard, keeping key assignment race-free.
type pevent struct {
	at  Time
	org int32  // origin cell id: the cell whose handler scheduled this
	cnt uint64 // per-origin monotone counter; with org, breaks at-ties
	fn  func()
}

// outRoute buffers cross-shard events from one shard to one destination
// shard until the next window barrier.
type outRoute struct {
	dst int32
	box []pevent
}

// pshard is one shard's private state: clock, heap, and outboxes.
type pshard struct {
	now      Time
	executed uint64
	events   []pevent
	// routes holds this shard's cross-shard mailboxes, sorted by
	// destination shard and created lazily on first use. With
	// contiguous ID-range tiles a shard only ever talks to its few
	// partition neighbors (hexgrid.Partition.NeighborShards), so this
	// stays O(neighbor shards) — a dense [][]pevent outbox would be
	// O(shards) per shard and dominate memory at the shard counts a
	// 10^6-cell grid wants. Only this shard's worker appends; only the
	// coordinator (between windows) drains.
	routes []outRoute
	// pad avoids false sharing between adjacent shards' hot fields
	// when workers advance them concurrently.
	_ [64]byte
}

// findRoute returns the mailbox for destination dst, or nil when the
// shard has never sent to dst. Read-only: safe for concurrent use from
// flush workers as long as no route is being created.
func (s *pshard) findRoute(dst int32) *outRoute {
	lo, hi := 0, len(s.routes)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.routes[mid].dst < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.routes) && s.routes[lo].dst == dst {
		return &s.routes[lo]
	}
	return nil
}

// route returns the mailbox for destination dst, creating it in sorted
// position on first use.
func (s *pshard) route(dst int32) *outRoute {
	lo, hi := 0, len(s.routes)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.routes[mid].dst < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.routes) && s.routes[lo].dst == dst {
		return &s.routes[lo]
	}
	s.routes = append(s.routes, outRoute{})
	copy(s.routes[lo+1:], s.routes[lo:])
	s.routes[lo] = outRoute{dst: dst}
	return &s.routes[lo]
}

// Shards is the sharded kernel. The zero value is not usable; call
// NewShards. Scheduling methods (At, Cross, After) must be called either
// before Run/Drain or from an event callback executing on the owning
// shard — they are not safe to call concurrently for the same origin.
type Shards struct {
	lookahead Time
	shards    []pshard
	// cnt[org] is the per-origin event counter. A cell's events are
	// scheduled only by its owning shard's worker (or pre-run), so
	// slots are never written concurrently.
	cnt     []uint64
	barrier func()
	windows uint64
	// reservedBytes accumulates the capacity pinned by Reserve and
	// ReserveOutbox, checked against reserveBudget so an absurd hint
	// (from a miscomputed workload estimate) fails fast with an error
	// instead of silently attempting a huge allocation.
	reservedBytes uint64
	reserveBudget uint64
	// inbound[dst] lists the source shards (ascending) that have
	// materialized a mailbox to dst; routeCount[src] is len(routes) at
	// the last inbound build. Together they let flush distribute the
	// barrier merge across workers by destination — each dst heap is
	// touched by exactly one goroutine, and pushing in ascending-src,
	// then append, order reproduces the serial merge's heap layout
	// byte-for-byte. Rebuilt lazily when any shard grows a new route.
	inbound    [][]int32
	routeCount []int
}

// DefaultReserveBudget caps the cumulative event capacity (in bytes) a
// kernel's Reserve/ReserveOutbox calls may pin unless overridden with
// SetReserveBudget. Generous enough for a 10^6-cell run (tens of
// millions of in-flight events), small enough to catch estimates that
// are off by orders of magnitude before they OOM the host.
const DefaultReserveBudget = 8 << 30

const peventSize = uint64(unsafe.Sizeof(pevent{}))

// NewShards builds a kernel with n shards, a lookahead window of T
// ticks (the minimum cross-shard scheduling delay), and numOrigins
// distinct origin ids (one per cell).
func NewShards(n int, lookahead Time, numOrigins int) *Shards {
	if n < 1 {
		panic(fmt.Sprintf("sim: NewShards with %d shards", n))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("sim: NewShards with lookahead %d < 1", lookahead))
	}
	if numOrigins < 1 {
		panic(fmt.Sprintf("sim: NewShards with %d origins", numOrigins))
	}
	return &Shards{
		lookahead:     lookahead,
		shards:        make([]pshard, n),
		cnt:           make([]uint64, numOrigins),
		reserveBudget: DefaultReserveBudget,
	}
}

// SetReserveBudget caps the cumulative bytes of event capacity that
// Reserve and ReserveOutbox may pin; bytes <= 0 restores the default.
func (k *Shards) SetReserveBudget(bytes int64) {
	if bytes <= 0 {
		k.reserveBudget = DefaultReserveBudget
		return
	}
	k.reserveBudget = uint64(bytes)
}

// chargeReserve accounts for growing a buffer from oldCap to n events,
// returning a descriptive error when the hint is absurd: negative, or
// pushing cumulative reserved capacity past the budget.
func (k *Shards) chargeReserve(what string, n, oldCap int) error {
	if n < 0 {
		return fmt.Errorf("sim: %s reserve of %d events is negative", what, n)
	}
	grow := uint64(n-oldCap) * peventSize
	if k.reservedBytes+grow > k.reserveBudget {
		return fmt.Errorf("sim: %s reserve of %d events (%d MiB) exceeds memory budget (%d MiB reserved of %d MiB); check the workload estimate or raise SetReserveBudget",
			what, n, grow>>20, k.reservedBytes>>20, k.reserveBudget>>20)
	}
	k.reservedBytes += grow
	return nil
}

// NumShards returns the shard count.
func (k *Shards) NumShards() int { return len(k.shards) }

// Lookahead returns the window width T.
func (k *Shards) Lookahead() Time { return k.lookahead }

// Now returns shard s's current virtual time. Within a window different
// shards' clocks may differ by up to T-1 ticks; at every barrier all
// clocks are inside the same window.
func (k *Shards) Now(s int) Time { return k.shards[s].now }

// Executed returns the total number of events executed across shards.
func (k *Shards) Executed() uint64 {
	var n uint64
	for i := range k.shards {
		n += k.shards[i].executed
	}
	return n
}

// Windows returns the number of lockstep windows advanced so far.
func (k *Shards) Windows() uint64 { return k.windows }

// Pending returns the total number of queued events, including
// unflushed mailbox entries.
func (k *Shards) Pending() int {
	n := 0
	for i := range k.shards {
		n += len(k.shards[i].events)
		for _, rt := range k.shards[i].routes {
			n += len(rt.box)
		}
	}
	return n
}

// Routes returns the number of cross-shard mailboxes shard s has
// materialized — O(neighbor shards) for partition-derived workloads,
// never O(total shards). Exposed so tests and benches can assert the
// sparse-routing property.
func (k *Shards) Routes(s int) int { return len(k.shards[s].routes) }

// Reserve grows shard s's heap capacity to hold at least n events
// without reallocating. Drivers that can estimate the number of
// concurrently scheduled events (e.g. expected in-flight calls plus one
// arrival per cell) call it once up front to avoid growth copies
// mid-run.
// Absurd hints — negative, or blowing the kernel's reserve budget —
// return a descriptive error and leave the heap untouched.
func (k *Shards) Reserve(s, n int) error {
	sh := &k.shards[s]
	if n < 0 {
		return k.chargeReserve("heap", n, 0)
	}
	if n <= cap(sh.events) {
		return nil
	}
	if err := k.chargeReserve("heap", n, cap(sh.events)); err != nil {
		return err
	}
	grown := make([]pevent, len(sh.events), n)
	copy(grown, sh.events)
	sh.events = grown
	return nil
}

// ReserveOutbox pre-sizes the src->dst mailbox so halo traffic does not
// grow-copy mid-window, materializing the route if needed. Absurd hints
// are rejected like Reserve's.
func (k *Shards) ReserveOutbox(src, dst, n int) error {
	if n < 0 || uint64(n)*peventSize > k.reserveBudget {
		return k.chargeReserve("outbox", n, 0)
	}
	rt := k.shards[src].route(int32(dst))
	if n <= cap(rt.box) {
		return nil
	}
	if err := k.chargeReserve("outbox", n, cap(rt.box)); err != nil {
		return err
	}
	grown := make([]pevent, len(rt.box), n)
	copy(grown, rt.box)
	rt.box = grown
	return nil
}

// SetBarrier installs fn to run on the coordinator goroutine at every
// window barrier, after all shards have finished the window and before
// mailboxes are merged. All shard state is quiescent during the call —
// drivers use it for consistent-cut invariant checks.
func (k *Shards) SetBarrier(fn func()) { k.barrier = fn }

// At schedules fn at absolute time at on shard s with the given origin
// cell. Scheduling in the past panics: that is always a protocol-logic
// bug worth failing loudly on.
func (k *Shards) At(s int, at Time, origin int32, fn func()) {
	sh := &k.shards[s]
	if at < sh.now {
		panic(fmt.Sprintf("sim: shard %d scheduling event at %d before now %d (origin cell %d)", s, at, sh.now, origin))
	}
	k.cnt[origin]++
	sh.push(pevent{at: at, org: origin, cnt: k.cnt[origin], fn: fn})
}

// After schedules fn delay ticks from shard s's current time.
func (k *Shards) After(s int, delay Time, origin int32, fn func()) {
	k.At(s, k.shards[s].now+delay, origin, fn)
}

// Cross schedules fn at absolute time at on shard dst, called from an
// event executing on shard src. The event must respect the lookahead:
// at >= src.now + T. Violations panic — they would let a shard see an
// event scheduled inside its current window, breaking the conservative
// synchronization argument.
func (k *Shards) Cross(src, dst int, at Time, origin int32, fn func()) {
	if src == dst {
		k.At(src, at, origin, fn)
		return
	}
	sh := &k.shards[src]
	if at < sh.now+k.lookahead {
		panic(fmt.Sprintf("sim: cross-shard event %d->%d at %d violates lookahead (now %d + T %d)", src, dst, at, sh.now, k.lookahead))
	}
	k.cnt[origin]++
	rt := sh.route(int32(dst))
	rt.box = append(rt.box, pevent{at: at, org: origin, cnt: k.cnt[origin], fn: fn})
}

// less orders shard events by the canonical (at, origin, counter) key.
func (s *pshard) less(i, j int) bool {
	a, b := &s.events[i], &s.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.org != b.org {
		return a.org < b.org
	}
	return a.cnt < b.cnt
}

// push appends ev and restores the heap by sifting it up.
func (s *pshard) push(ev pevent) {
	s.events = append(s.events, ev)
	i := len(s.events) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(i, parent) {
			break
		}
		s.events[i], s.events[parent] = s.events[parent], s.events[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (s *pshard) pop() pevent {
	h := s.events
	root := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = pevent{} // drop the fn reference so the closure can be collected
	s.events = h[:last]
	s.siftDown(0)
	return root
}

// siftDown restores the heap below index i.
func (s *pshard) siftDown(i int) {
	h := s.events
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s.less(c, min) {
				min = c
			}
		}
		if !s.less(min, i) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// runWindow executes shard s's events with at < horizon.
func (s *pshard) runWindow(horizon Time) {
	for len(s.events) > 0 && s.events[0].at < horizon {
		ev := s.pop()
		s.now = ev.at
		s.executed++
		ev.fn()
	}
}

// parallelFlushThreshold is the minimum number of boxed cross-shard
// events per barrier before flush fans the merge out to workers. Below
// it the goroutine handoff costs more than the pushes; counting is
// O(materialized routes), which sparse routing keeps tiny.
const parallelFlushThreshold = 4096

// flush merges every mailbox into its destination heap. Runs at the
// window barrier; the per-destination merge order (ascending src, then
// append order) is fixed regardless of the path taken, so heap layouts
// — and therefore trajectories — are identical at any worker count.
// Under borrow pressure at large shard counts the merge is a measurable
// slice of the barrier, so when enough events are boxed it runs
// destination-parallel: each dst heap is owned by exactly one worker.
func (k *Shards) flush(workers int) {
	total := 0
	for si := range k.shards {
		for ri := range k.shards[si].routes {
			total += len(k.shards[si].routes[ri].box)
		}
	}
	if total == 0 {
		return
	}
	if workers <= 1 || len(k.shards) < 2 || total < parallelFlushThreshold {
		k.flushSerial()
		return
	}
	k.flushParallel(workers)
}

// flushSerial is the coordinator-only merge path.
func (k *Shards) flushSerial() {
	for si := range k.shards {
		src := &k.shards[si]
		for ri := range src.routes {
			rt := &src.routes[ri]
			if len(rt.box) == 0 {
				continue
			}
			dst := &k.shards[rt.dst]
			for _, ev := range rt.box {
				dst.push(ev)
			}
			for i := range rt.box {
				rt.box[i] = pevent{}
			}
			rt.box = rt.box[:0]
		}
	}
}

// flushParallel distributes the merge by destination shard. Routes are
// created only by Cross/ReserveOutbox, never during flush, so the
// inbound index is stable for the whole call and only needs rebuilding
// when some shard materialized a new route since the last build.
func (k *Shards) flushParallel(workers int) {
	if k.inbound == nil {
		k.inbound = make([][]int32, len(k.shards))
		k.routeCount = make([]int, len(k.shards))
	}
	stale := false
	for si := range k.shards {
		if len(k.shards[si].routes) != k.routeCount[si] {
			stale = true
			break
		}
	}
	if stale {
		for d := range k.inbound {
			k.inbound[d] = k.inbound[d][:0]
		}
		for si := range k.shards {
			k.routeCount[si] = len(k.shards[si].routes)
			for ri := range k.shards[si].routes {
				d := k.shards[si].routes[ri].dst
				k.inbound[d] = append(k.inbound[d], int32(si))
			}
		}
	}
	n := len(k.shards)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for d := w; d < n; d += workers {
				srcs := k.inbound[d]
				if len(srcs) == 0 {
					continue
				}
				dst := &k.shards[d]
				for _, si := range srcs {
					rt := k.shards[si].findRoute(int32(d))
					if rt == nil || len(rt.box) == 0 {
						continue
					}
					for _, ev := range rt.box {
						dst.push(ev)
					}
					for i := range rt.box {
						rt.box[i] = pevent{}
					}
					rt.box = rt.box[:0]
				}
			}
		}(w)
	}
	wg.Wait()
}

// minDue returns the earliest queued event time across all shards, or
// (0, false) when every heap is empty. Mailboxes are flushed first by
// the caller, so heaps are authoritative.
func (k *Shards) minDue() (Time, bool) {
	lo, ok := Time(0), false
	for i := range k.shards {
		sh := &k.shards[i]
		if len(sh.events) == 0 {
			continue
		}
		if !ok || sh.events[0].at < lo {
			lo, ok = sh.events[0].at, true
		}
	}
	return lo, ok
}

// runWindowAll executes one window on all shards using the given worker
// count. Shard i is handled by worker i%workers — a static assignment,
// so which goroutine runs a shard never depends on timing. workers<=1
// runs inline with zero synchronization.
func (k *Shards) runWindowAll(workers int, horizon Time) {
	n := len(k.shards)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range k.shards {
			k.shards[i].runWindow(horizon)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				k.shards[i].runWindow(horizon)
			}
		}(w)
	}
	wg.Wait()
}

// Run advances all shards in lockstep windows until every queued event
// later than until would remain, then sets all clocks to until (when
// behind). workers <= 0 means runtime.NumCPU(). It returns the number
// of events executed by this call.
func (k *Shards) Run(workers int, until Time) uint64 {
	return k.run(workers, until, math.MaxUint64)
}

// Drain runs windows until no events remain or maxEvents callbacks have
// run (checked at window granularity), whichever is first. It reports
// whether the queues emptied. When they did, every clock is parked at
// the latest time any shard reached — the time of the last event — the
// way Run parks them at until, so the post-drain clock (and anything
// scheduled relative to it) is the same at every shard count. On the
// backstop path the clocks stay where the windows left them.
func (k *Shards) Drain(workers int, maxEvents uint64) bool {
	k.run(workers, math.MaxInt64, maxEvents)
	if k.Pending() != 0 {
		return false
	}
	last := k.shards[0].now
	for i := range k.shards {
		last = max(last, k.shards[i].now)
	}
	for i := range k.shards {
		k.shards[i].now = last
	}
	return true
}

func (k *Shards) run(workers int, until Time, maxEvents uint64) uint64 {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	start := k.Executed()
	for k.Executed()-start < maxEvents {
		k.flush(workers)
		wlow, ok := k.minDue()
		if !ok || wlow > until {
			break
		}
		// The window is [wlow, wlow+T); horizon is exclusive. Events at
		// exactly `until` must still run, hence
		// the +1 cap, overflow-guarded for until = MaxInt64.
		horizon := wlow + k.lookahead
		if horizon < wlow {
			horizon = math.MaxInt64
		}
		if until < math.MaxInt64 && horizon > until+1 {
			horizon = until + 1
		}
		k.runWindowAll(workers, horizon)
		k.windows++
		if k.barrier != nil {
			k.barrier()
		}
	}
	if until < math.MaxInt64 {
		for i := range k.shards {
			if k.shards[i].now < until {
				k.shards[i].now = until
			}
		}
	}
	return k.Executed() - start
}

// DrainUntil advances windows until every remaining event is later than
// cutoff, executing events exactly as Run(workers, cutoff) would —
// window boundaries and barrier calls before the cutoff are identical
// to a full Drain's, so pre-cutoff trajectories (and anything sampled
// at barriers) are unperturbed. Post-cutoff events stay queued in their
// heaps and mailboxes for DiscardPending. maxEvents is a runaway-loop
// backstop checked at window granularity; DrainUntil reports whether
// every event due at or before cutoff actually ran (false only when
// the backstop tripped mid-drain).
func (k *Shards) DrainUntil(workers int, cutoff Time, maxEvents uint64) bool {
	k.run(workers, cutoff, maxEvents)
	// At normal loop exit the mailboxes have all been flushed (flush
	// precedes the minDue break) and the earliest heap entry is past
	// cutoff. Only the maxEvents path can leave due work behind, so
	// verify directly: heap tops, plus unflushed boxes on that path.
	for i := range k.shards {
		sh := &k.shards[i]
		if len(sh.events) > 0 && sh.events[0].at <= cutoff {
			return false
		}
		for j := range sh.routes {
			for _, ev := range sh.routes[j].box {
				if ev.at <= cutoff {
					return false
				}
			}
		}
	}
	return true
}

// DiscardPending drops every queued event — shard heaps and cross-shard
// mailboxes — without executing it and returns how many were dropped.
// Entries are zeroed so captured closures become collectable. Shard
// clocks are unchanged. Coordinator-context only (not during a window).
func (k *Shards) DiscardPending() int {
	n := 0
	for i := range k.shards {
		sh := &k.shards[i]
		n += len(sh.events)
		for j := range sh.events {
			sh.events[j] = pevent{}
		}
		sh.events = sh.events[:0]
		for j := range sh.routes {
			r := &sh.routes[j]
			n += len(r.box)
			for x := range r.box {
				r.box[x] = pevent{}
			}
			r.box = r.box[:0]
		}
	}
	return n
}
