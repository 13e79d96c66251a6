package transport

import (
	"sync"
	"time"

	"repro/internal/message"
)

// delaySched is the single-goroutine delay scheduler behind Live's
// latency modeling: a timer wheel in the loose sense — one 4-ary
// min-heap of (due, seq) entries drained by one goroutine — replacing
// the old design of one sleeping pipeline goroutine per ordered
// (from, to) cell pair, which on a 7×7 reuse-2 grid meant O(cells²)
// goroutines doing nothing but time.Sleep.
//
// FIFO argument: every message carries the same fixed delay, so due
// times are non-decreasing in schedule order, and schedule order is the
// lock-acquisition order of s.mu (due is stamped under the lock from
// the monotonic clock). Ties on due are broken by seq, also assigned
// under the lock. Hence heap order == schedule order, which preserves
// per-link (indeed global) Send-call FIFO. Unlike the per-link
// pipelines, the wheel does not serialize a link's messages one Delay
// apart: each message is due Delay after its send, so back-to-back
// sends overlap in flight exactly as they would on a real network.
type delaySched struct {
	l *Live

	mu      sync.Mutex
	heap    []delayed
	seq     uint64
	stopped bool

	// wake nudges the scheduler goroutine when a new earliest entry
	// arrives (capacity 1; a pending nudge is never worth stacking).
	wake chan struct{}
}

// delayed is one message waiting out the modeled link latency.
type delayed struct {
	due time.Time
	seq uint64
	m   message.Message
}

func newDelaySched(l *Live) *delaySched {
	return &delaySched{l: l, wake: make(chan struct{}, 1)}
}

// schedule stamps m's due time and enqueues it; it reports false when
// the scheduler has already drained (transport stopped), in which case
// the caller owns the drop accounting.
func (s *delaySched) schedule(m message.Message) bool {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	s.seq++
	newMin := s.push(delayed{due: time.Now().Add(s.l.delay), seq: s.seq, m: m})
	s.mu.Unlock()
	if newMin {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return true
}

// loop is the scheduler goroutine: deliver everything due, sleep until
// the next deadline (or a wake nudge), repeat. Exactly one per Live.
func (s *delaySched) loop(done <-chan struct{}) {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		next, pending := s.runDue()
		var waitCh <-chan time.Time
		if pending {
			timer.Reset(next)
			waitCh = timer.C
		}
		select {
		case <-done:
			s.drain()
			return
		case <-waitCh: // nil (blocks) when the heap is empty
			continue
		case <-s.wake:
		}
		// Woke early: quiesce the timer before the next Reset.
		if pending && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// runDue delivers every entry whose due time has passed and returns the
// wait until the next one (pending == false when the heap is empty).
func (s *delaySched) runDue() (time.Duration, bool) {
	for {
		s.mu.Lock()
		if len(s.heap) == 0 {
			s.mu.Unlock()
			return 0, false
		}
		if d := time.Until(s.heap[0].due); d > 0 {
			s.mu.Unlock()
			return d, true
		}
		e := s.pop()
		s.mu.Unlock()
		s.l.deliver(e.m)
		s.l.doneWork(false)
	}
}

// drain marks the scheduler stopped and discards everything queued,
// keeping the transport's in-flight accounting balanced.
func (s *delaySched) drain() {
	s.mu.Lock()
	s.stopped = true
	heap := s.heap
	s.heap = nil
	s.mu.Unlock()
	for range heap {
		s.l.doneWork(true)
	}
}

// push appends e and sifts it up (4-ary heap, same layout as the
// sim kernel's shard queues); it reports whether e became the new
// minimum, i.e. the scheduler's wake-up deadline moved earlier.
func (s *delaySched) push(e delayed) bool {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(i, parent) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
	return i == 0
}

// pop removes and returns the minimum entry (caller holds s.mu).
func (s *delaySched) pop() delayed {
	h := s.heap
	root := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = delayed{}
	s.heap = h[:last]
	s.siftDown(0)
	return root
}

func (s *delaySched) less(i, j int) bool {
	a, b := &s.heap[i], &s.heap[j]
	if !a.due.Equal(b.due) {
		return a.due.Before(b.due)
	}
	return a.seq < b.seq
}

func (s *delaySched) siftDown(i int) {
	h := s.heap
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
