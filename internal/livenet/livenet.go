// Package livenet runs an allocation scheme on the live concurrent
// runtime: one goroutine per mobile service station, wall-clock delays,
// real parallelism. It exists to validate the protocol under true
// concurrency (race detector, nondeterministic interleavings) and to
// power interactive demos; the measured experiments use the
// deterministic simulation driver (internal/driver) instead.
//
// One station host runs the hosted cells' allocators on transport.Live
// mailboxes and owns the request lifecycle; a fabric underneath carries
// the control messages between stations. There are two fabrics:
//
//   - Network (New) hosts every cell of the grid in one process and
//     delivers messages through the mailboxes themselves;
//   - Node (NewNode, tcp.go) hosts a subset of the cells and reaches
//     the rest over TCP connections to the peer nodes hosting them,
//     exchanging the binary wire format of internal/message. Nothing
//     in the protocol depends on shared memory: the same allocator code
//     runs unchanged over sockets.
//
// The signaling plane may optionally be degraded with a fault model
// (Options.Fault): drops, duplicates, reordering and jitter are injected
// below a sequence-numbered ack/retransmit layer that restores the
// reliable-FIFO contract the protocol assumes. A per-request deadline
// (Options.RequestTimeout) converts any request stuck behind a dead link
// into a counted denial instead of a hung WaitSettled.
package livenet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Options configure a live runtime on either fabric.
type Options struct {
	// LatencyTicks is the T value reported to allocators (the adaptive
	// predictor works in ticks; one tick is mapped to TickDuration).
	LatencyTicks sim.Time
	// TickDuration maps virtual ticks to wall time for Env.Now and
	// Env.After (default 100µs per tick).
	TickDuration time.Duration
	// Seed drives per-cell randomness.
	Seed uint64

	// Fault, when non-nil, injects drops/duplicates/reordering/jitter
	// into the signaling plane (on a Node: its outgoing traffic, local
	// and remote alike). A Reliable layer is stacked above it
	// automatically so the protocol still sees reliable-FIFO links.
	// Every node of a cluster should carry the same reliability
	// setting: sequence numbers stamped on one node are consumed by its
	// peers' Reliable layers.
	Fault *transport.FaultConfig
	// Reliable tunes the ack/retransmit layer. Nil means defaults when
	// Fault is set, and no reliability layer at all when the transport
	// is already reliable (Fault nil too).
	Reliable *transport.ReliableConfig
	// RequestTimeout, when positive, bounds each request's wall-clock
	// lifetime: a request not granted or denied in time completes as a
	// counted deadline denial (see DeadlineDenials). A grant that
	// arrives after its deadline is released back automatically and
	// counted as adca_late_grants_total.
	RequestTimeout time.Duration

	// Obs, when non-nil, registers runtime- and transport-level metrics
	// as scrape-time collectors over the host's (thread-safe) counters.
	// Several nodes of one process may share a registry: same-named
	// collectors sum at collection time, yielding cluster-wide totals.
	// Do not share it with the simulation driver, which registers some
	// of the same families as plain counters; mixing the two shapes in
	// one registry panics by design.
	Obs *obs.Registry
	// Journal, when non-nil, receives request lifecycle records
	// (request/result/deadline_deny), timestamped in ticks.
	Journal *obs.Journal
}

// Result mirrors driver.Result for the live runtime.
type Result struct {
	Cell    hexgrid.CellID
	Granted bool
	Ch      chanset.Channel
}

// pendingReq tracks one in-flight request.
type pendingReq struct {
	cell  hexgrid.CellID
	cb    func(Result)
	timer *time.Timer // nil when no RequestTimeout is configured
}

// host runs the stations of the hosted cells and owns everything both
// fabrics share: the transport stack, the request lifecycle, the
// counters, the committed-outcome checker and the metrics.
type host struct {
	grid   *hexgrid.Grid
	opts   Options
	mail   *transport.Live     // hosted cells' mailboxes: owns the station goroutines
	net    transport.Transport // top of the stack: what stations talk to
	rel    *transport.Reliable // non-nil when a reliability layer is stacked
	allocs []alloc.Allocator   // by cell; nil for cells hosted elsewhere
	start  time.Time

	mu              sync.Mutex
	nextID          alloc.RequestID
	pending         map[alloc.RequestID]*pendingReq
	expired         map[alloc.RequestID]bool // deadline fired, outcome pending
	outstanding     int
	grants          uint64
	denies          uint64
	deadlineDenials uint64
	lateGrants      uint64
	abandoned       uint64
	badReleases     uint64
	holding         []chanset.Set // committed holdings per hosted cell (checker)
	violation       error
}

// init validates opts, stacks the fault and reliability layers over
// bottom, attaches one allocator per hosted cell, starts mail's station
// goroutines and runs every allocator's Start on its own station. On
// error nothing has been started.
func (h *host) init(grid *hexgrid.Grid, assign *chanset.Assignment, factory alloc.Factory,
	cells []hexgrid.CellID, mail *transport.Live, bottom transport.Transport, opts Options) error {
	if opts.Fault != nil {
		if err := opts.Fault.Validate(); err != nil {
			return fmt.Errorf("livenet: %w", err)
		}
	}
	if opts.Reliable != nil {
		if err := opts.Reliable.Validate(); err != nil {
			return fmt.Errorf("livenet: %w", err)
		}
	}
	if opts.TickDuration <= 0 {
		opts.TickDuration = 100 * time.Microsecond
	}
	if opts.LatencyTicks <= 0 {
		opts.LatencyTicks = 10
	}
	h.grid, h.opts, h.mail, h.net = grid, opts, mail, bottom
	h.allocs = make([]alloc.Allocator, grid.NumCells())
	h.holding = make([]chanset.Set, grid.NumCells())
	h.pending = make(map[alloc.RequestID]*pendingReq)
	h.expired = make(map[alloc.RequestID]bool)
	h.start = time.Now()
	if opts.Fault != nil {
		h.net = transport.NewFaulty(h.net, *opts.Fault)
	}
	if opts.Fault != nil || opts.Reliable != nil {
		var rcfg transport.ReliableConfig
		if opts.Reliable != nil {
			rcfg = *opts.Reliable
		}
		h.rel = transport.NewReliable(h.net, rcfg)
		// A message that exhausts its retransmit budget means a dead
		// link; count it — the deadline watchdog converts the affected
		// requests into denials.
		h.rel.OnAbandon = func(message.Message) {
			h.mu.Lock()
			h.abandoned++
			h.mu.Unlock()
		}
		h.net = h.rel
	}
	for _, cell := range cells {
		a := factory.New(cell)
		h.allocs[cell] = a
		h.holding[cell] = chanset.NewSet(assign.NumChannels)
		h.net.Attach(cell, a) // through the stack: reliability wraps the handler
	}
	h.register(opts.Obs)
	mail.Start()
	// Start must run on each station's goroutine so allocator state is
	// never touched cross-thread.
	var wg sync.WaitGroup
	for _, cell := range cells {
		a := h.allocs[cell]
		env := &liveEnv{h: h, cell: cell, rand: sim.Substream(opts.Seed, uint64(cell)+1)}
		wg.Add(1)
		mail.Do(cell, func() {
			a.Start(env)
			wg.Done()
		})
	}
	wg.Wait()
	return nil
}

// register binds the host's counters into r as scrape-time collectors.
func (h *host) register(r *obs.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("adca_requests_granted_total",
		"Channel requests completed with a grant.",
		func() float64 { return float64(h.Grants()) })
	r.CounterFunc("adca_requests_denied_total",
		"Channel requests completed with a denial (deadline denials included).",
		func() float64 { return float64(h.Denies()) })
	r.CounterFunc("adca_deadline_denials_total",
		"Requests denied by the RequestTimeout watchdog rather than the protocol.",
		func() float64 { return float64(h.DeadlineDenials()) })
	r.CounterFunc("adca_late_grants_total",
		"Grants that arrived after their deadline and were released back.",
		func() float64 {
			h.mu.Lock()
			defer h.mu.Unlock()
			return float64(h.lateGrants)
		})
	r.CounterFunc("adca_abandoned_messages_total",
		"Messages whose retransmit budget was exhausted (dead link).",
		func() float64 { return float64(h.Abandoned()) })
	r.GaugeFunc("adca_requests_outstanding",
		"Channel requests currently in flight.",
		func() float64 { return float64(h.Outstanding()) })
	transport.RegisterObs(r, h.net.Stats)
}

// Network is the in-process fabric: every cell of the grid is hosted
// here, and messages travel between stations through their mailboxes.
type Network struct {
	host
}

// New wires an in-process network over every cell of grid and starts
// its station goroutines; delay is the modeled one-way message latency
// in wall time. It returns an error for an invalid fault or reliability
// configuration. Callers must Close the network.
func New(grid *hexgrid.Grid, assign *chanset.Assignment, factory alloc.Factory, delay time.Duration, opts Options) (*Network, error) {
	cells := make([]hexgrid.CellID, grid.NumCells())
	for i := range cells {
		cells[i] = hexgrid.CellID(i)
	}
	mail := transport.NewLive(delay, 0)
	n := &Network{}
	if err := n.init(grid, assign, factory, cells, mail, mail, opts); err != nil {
		return nil, err
	}
	return n, nil
}

// Close terminates the station goroutines. The reliability layer is
// closed first so its retransmit timers stop firing into a dead
// transport. Safe to call more than once.
func (h *host) Close() {
	if h.rel != nil {
		h.rel.Close()
	}
	h.mail.Stop()
	h.opts.Journal.Flush()
}

// nowTicks maps wall time since start onto virtual ticks (the journal's
// time base, matching Env.Now).
func (h *host) nowTicks() int64 {
	return int64(time.Since(h.start) / h.opts.TickDuration)
}

// hosts reports whether cell's station runs on this host.
func (h *host) hosts(cell hexgrid.CellID) bool {
	return uint(cell) < uint(len(h.allocs)) && h.allocs[cell] != nil
}

// Grid returns the cell layout.
func (h *host) Grid() *hexgrid.Grid { return h.grid }

// Request submits a channel request at a hosted cell; cb (may be nil)
// is invoked when the request completes — on the station's goroutine
// for a normal grant/denial, on a timer goroutine for a deadline
// denial. Requesting a cell hosted elsewhere panics.
func (h *host) Request(cell hexgrid.CellID, cb func(Result)) {
	if !h.hosts(cell) {
		panic(fmt.Sprintf("livenet: cell %d not hosted here", cell))
	}
	a := h.allocs[cell]
	h.mu.Lock()
	h.nextID++
	id := h.nextID
	p := &pendingReq{cell: cell, cb: cb}
	h.pending[id] = p
	h.outstanding++
	if h.opts.RequestTimeout > 0 {
		p.timer = time.AfterFunc(h.opts.RequestTimeout, func() { h.expire(id) })
	}
	h.mu.Unlock()
	if j := h.opts.Journal; j != nil {
		j.Emit(h.nowTicks(), "request", int(cell), obs.FI("req", int64(id)))
	}
	h.mail.Do(cell, func() { a.Request(id) })
}

// expire fires when a request overstays RequestTimeout: it completes as
// a counted denial so the caller (and WaitSettled) never hang on a
// wedged link. The protocol may still conclude later; a late grant is
// released back in complete.
func (h *host) expire(id alloc.RequestID) {
	h.mu.Lock()
	p := h.pending[id]
	if p == nil {
		h.mu.Unlock()
		return // completed normally just before the timer fired
	}
	delete(h.pending, id)
	h.expired[id] = true
	h.outstanding--
	h.denies++
	h.deadlineDenials++
	h.mu.Unlock()
	if j := h.opts.Journal; j != nil {
		j.Emit(h.nowTicks(), "deadline_deny", int(p.cell), obs.FI("req", int64(id)))
	}
	if p.cb != nil {
		p.cb(Result{Cell: p.cell, Granted: false, Ch: chanset.NoChannel})
	}
}

// complete records a finished request and runs its callback. It runs on
// the granting cell's station goroutine (via env.Granted / env.Denied).
func (h *host) complete(cell hexgrid.CellID, id alloc.RequestID, granted bool, ch chanset.Channel) {
	h.mu.Lock()
	p := h.pending[id]
	if p == nil {
		// The deadline watchdog already completed this request as a
		// denial. A late grant must hand its channel back — we are on
		// the station's goroutine, so the release is a direct call.
		wasExpired := h.expired[id]
		delete(h.expired, id)
		if wasExpired && granted {
			h.lateGrants++
			h.mu.Unlock()
			h.release(cell, ch)
			return
		}
		h.mu.Unlock()
		return
	}
	if p.timer != nil {
		p.timer.Stop()
	}
	delete(h.pending, id)
	h.outstanding--
	if granted {
		h.grants++
		h.holding[cell].Add(ch)
		// Committed-outcome interference check (Theorem 1 over the
		// host's book of record).
		if h.violation == nil {
			for _, j := range h.grid.Interference(cell) {
				if h.holding[j].Contains(ch) {
					h.violation = fmt.Errorf("livenet: cells %d and %d both hold channel %d", cell, j, ch)
					break
				}
			}
		}
	} else {
		h.denies++
	}
	h.mu.Unlock()
	if j := h.opts.Journal; j != nil {
		g := int64(0)
		if granted {
			g = 1
		}
		j.Emit(h.nowTicks(), "result", int(cell),
			obs.FI("req", int64(id)), obs.FI("granted", g), obs.FI("ch", int64(ch)))
	}
	if p.cb != nil {
		p.cb(Result{Cell: cell, Granted: granted, Ch: ch})
	}
}

// Release returns a channel at a hosted cell. A release the allocator
// rejects (channel not held) is counted, not fatal: on the live runtime
// one misbehaving caller must not take down the signaling plane.
func (h *host) Release(cell hexgrid.CellID, ch chanset.Channel) {
	h.mu.Lock()
	h.holding[cell].Remove(ch)
	h.mu.Unlock()
	h.mail.Do(cell, func() { h.release(cell, ch) })
}

// release hands ch back to cell's allocator; it runs on the station's
// goroutine.
func (h *host) release(cell hexgrid.CellID, ch chanset.Channel) {
	if err := h.allocs[cell].Release(ch); err != nil {
		h.mu.Lock()
		h.badReleases++
		h.mu.Unlock()
	}
}

// InUse snapshots a hosted cell's channels (read on its station
// goroutine).
func (h *host) InUse(cell hexgrid.CellID) chanset.Set {
	done := make(chan chanset.Set, 1)
	h.mail.Do(cell, func() { done <- h.allocs[cell].InUse() })
	return <-done
}

// Outstanding returns the in-flight request count.
func (h *host) Outstanding() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.outstanding
}

// Grants reports requests completed with a grant.
func (h *host) Grants() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.grants
}

// Denies reports requests completed with a denial (deadline denials
// included).
func (h *host) Denies() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.denies
}

// DeadlineDenials reports requests denied by the RequestTimeout
// watchdog rather than by the protocol.
func (h *host) DeadlineDenials() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.deadlineDenials
}

// Abandoned reports messages whose retransmit budget was exhausted
// (zero without a reliability layer).
func (h *host) Abandoned() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.abandoned
}

// BadReleases reports Release calls the allocator rejected.
func (h *host) BadReleases() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.badReleases
}

// Stats returns transport traffic so far, measured at the top of the
// stack (fault-injection and reliability counters included).
func (h *host) Stats() transport.Stats { return h.net.Stats() }

// Violation returns the first co-channel interference detected among
// the hosted cells' committed outcomes, or nil.
func (h *host) Violation() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.violation
}

// WaitSettled blocks until no requests are outstanding and the whole
// transport stack is idle, or the timeout elapses; reports whether it
// settled. On a Node this is node-local quiescence: messages already on
// the wire between nodes, and the peers' own work, are invisible to it.
func (h *host) WaitSettled(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if h.Outstanding() == 0 && h.idle() {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return false
}

// idle reports quiescence of the transport stack's top layer.
func (h *host) idle() bool {
	if i, ok := h.net.(transport.Idler); ok {
		return i.Idle()
	}
	return true
}

// liveEnv implements alloc.Env on the live runtime. All methods are
// invoked from the owning station's goroutine.
type liveEnv struct {
	h    *host
	cell hexgrid.CellID
	rand *sim.Rand
}

func (e *liveEnv) ID() hexgrid.CellID          { return e.cell }
func (e *liveEnv) Neighbors() []hexgrid.CellID { return e.h.grid.Interference(e.cell) }
func (e *liveEnv) Latency() sim.Time           { return e.h.opts.LatencyTicks }
func (e *liveEnv) Rand() *sim.Rand             { return e.rand }

func (e *liveEnv) Now() sim.Time {
	return sim.Time(time.Since(e.h.start) / e.h.opts.TickDuration)
}

func (e *liveEnv) Send(m message.Message) {
	if m.From != e.cell {
		m.From = e.cell
	}
	e.h.net.Send(m)
}

func (e *liveEnv) After(d sim.Time, fn func()) {
	wall := time.Duration(d) * e.h.opts.TickDuration
	time.AfterFunc(wall, func() { e.h.mail.Do(e.cell, fn) })
}

func (e *liveEnv) Began(alloc.RequestID) {}

func (e *liveEnv) Granted(id alloc.RequestID, ch chanset.Channel) {
	e.h.complete(e.cell, id, true, ch)
}

func (e *liveEnv) Denied(id alloc.RequestID) {
	e.h.complete(e.cell, id, false, chanset.NoChannel)
}

// Moved implements alloc.Env. Channel repacking needs runtime-side
// release redirection, which the live runtime does not provide — build
// repacking scenarios on the simulation driver.
func (e *liveEnv) Moved(from, to chanset.Channel) {
	panic("livenet: channel repacking is not supported on the live runtime")
}
