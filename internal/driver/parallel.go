// Package driver wires a scenario together: the hexagonal grid, the
// primary-channel plan, one allocator per cell, the deterministic
// sharded event kernel (sim.Shards), the Theorem-1 interference checker
// and the Theorem-2 progress watchdog, plus the latency/traffic
// accounting every experiment reports.
//
// The driver exposes a programmatic request/release API; workload
// generation on top of it lives in internal/traffic. Serial runs are
// the one-shard case: Shards: 1 with its default single worker.
//
// Cells are partitioned into contiguous tiles (hexgrid.Partition); each
// shard owns the driver state of its cells, and the only cross-shard
// interaction is message delivery, which the kernel's lookahead windows
// make safe.
//
// Determinism: a run's trajectory — every stat, the trace, and the
// final channel sets — is a function of (scenario, seed) only; neither
// the shard count nor the worker count changes results. Request IDs are
// derived per cell (id = count*N + cell + 1), so issuing them needs no
// cross-shard coordination; they are correlation tokens only — the
// protocol never puts them in messages. See DESIGN.md §9.5 for the
// argument.
//
// Two behaviours depend on the shard count:
//   - Theorem-1 checking runs per grant on one shard, and at every
//     window barrier (a consistent cut) otherwise: reading a remote
//     cell's channel set mid-window would race its shard.
//   - The Journal needs one shard: JSONL emission order across shards
//     is scheduling-dependent, which would silently break the
//     byte-identical-artifacts contract.
package driver

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// ParallelOptions configure a simulation.
type ParallelOptions struct {
	// Latency is the one-way message delay T in ticks (default 10). It
	// is also the kernel's lookahead window width.
	Latency sim.Time
	// Jitter adds a uniform extra delay in [0, Jitter] per message,
	// drawn from a per-sender-cell substream (unjittered runs need no
	// stream at all).
	Jitter sim.Time
	// Seed drives all randomness (per-cell substreams are derived).
	Seed uint64
	// Check verifies Theorem 1 and panics on violation — a violation is
	// never a recoverable condition, it falsifies the protocol. With one
	// shard the granting cell is checked on every grant, inside the
	// granting event; with more, the whole grid is checked at every
	// window barrier.
	Check bool
	// TraceSize, if positive, keeps a per-shard ring of the most recent
	// lifecycle events; Trace() merges them in canonical order.
	TraceSize int
	// Wire routes every message through the binary codec (encode on
	// send, decode on delivery), validating serialization against live
	// traffic and accounting wire bytes in Stats.Messages.Bytes.
	Wire bool
	// Obs, when non-nil, binds driver-level instruments into the
	// registry: request outcomes, the outstanding-request gauge, the
	// acquisition-delay histogram and the transport message counter.
	// All are atomic, so shard workers may increment them concurrently.
	// Protocol-core instruments are bound separately via
	// registry.Config.Obs.
	Obs *obs.Registry
	// Journal, when non-nil, receives request lifecycle records
	// (request/result/release) in addition to whatever the protocol
	// core emits through registry.Config.Obs. It requires Shards == 1.
	Journal *obs.Journal
	// Shards is the number of tiles (default min(16, cells)). Results
	// are shard-count-invariant; it decides where Check runs and
	// whether a Journal is allowed.
	Shards int
	// Workers is the number of goroutines advancing shards (default
	// NumCPU, capped at Shards). Never affects results.
	Workers int
}

func (o *ParallelOptions) applyDefaults(cells int) {
	if o.Latency == 0 {
		o.Latency = 10
	}
	if o.Shards == 0 {
		o.Shards = 16
		if cells < o.Shards {
			o.Shards = cells
		}
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Workers > o.Shards {
		o.Workers = o.Shards
	}
}

// delayBuckets sizes the acquisition-delay histogram behind
// Stats.DelayP95: 64 buckets of T/2 each.
const delayBuckets = 64

// Result describes a completed channel request.
type Result struct {
	ID      alloc.RequestID
	Cell    hexgrid.CellID
	Granted bool
	Ch      chanset.Channel
	// Submitted/Began/Done are the request lifecycle times: submission,
	// start of protocol work (after station queueing), completion.
	Submitted, Began, Done sim.Time
}

// AcquisitionDelay is the protocol time (Began → Done) in ticks.
func (r Result) AcquisitionDelay() sim.Time { return r.Done - r.Began }

// TotalDelay includes station queueing (Submitted → Done).
func (r Result) TotalDelay() sim.Time { return r.Done - r.Submitted }

// Stats is the aggregate outcome of a run.
type Stats struct {
	// Grants and Denies count completed requests.
	Grants, Denies uint64
	// Messages is the transport traffic.
	Messages transport.Stats
	// AcqDelay is the acquisition (protocol) delay distribution of
	// granted requests, in ticks.
	AcqDelay metrics.Welford
	// TotalDelay includes station queueing.
	TotalDelay metrics.Welford
	// QueueDelay is the station queueing component alone.
	QueueDelay metrics.Welford
	// DelayP95 is the 95th-percentile acquisition delay in ticks.
	DelayP95 float64
	// Counters aggregates the per-scheme protocol counters.
	Counters alloc.Counters
	// CellGrants/CellDenies are per-cell tallies (fairness analyses).
	CellGrants, CellDenies []uint64
}

// BlockingProbability is Denies / (Grants + Denies).
func (st Stats) BlockingProbability() float64 {
	total := st.Grants + st.Denies
	if total == 0 {
		return 0
	}
	return float64(st.Denies) / float64(total)
}

// MessagesPerRequest is total messages / completed requests.
func (st Stats) MessagesPerRequest() float64 {
	total := st.Grants + st.Denies
	if total == 0 {
		return 0
	}
	return float64(st.Messages.Total) / float64(total)
}

// simObs is the driver's bound instrument set. The zero value is fully
// disabled: every instrument is nil (allocation-free no-op) and journal
// is nil. Journal emissions must stay behind `if journal != nil` so the
// disabled path never builds variadic field slices.
type simObs struct {
	messages    *obs.Counter
	granted     *obs.Counter
	denied      *obs.Counter
	outstanding *obs.Gauge
	acquire     *obs.Histogram
	journal     *obs.Journal
}

func (o *simObs) bind(r *obs.Registry, j *obs.Journal, latency sim.Time) {
	o.journal = j
	if r == nil {
		return
	}
	o.messages = r.Counter("adca_transport_messages_total",
		"Protocol messages handed to the transport.")
	o.granted = r.Counter("adca_requests_granted_total",
		"Channel requests completed with a grant.")
	o.denied = r.Counter("adca_requests_denied_total",
		"Channel requests completed with a denial.")
	o.outstanding = r.Gauge("adca_requests_outstanding",
		"Channel requests currently in flight.")
	t := float64(latency)
	o.acquire = r.Histogram("adca_acquire_ticks",
		"Acquisition (protocol) delay of granted requests, in ticks.",
		[]float64{t / 2, t, 2 * t, 4 * t, 8 * t, 16 * t, 32 * t, 64 * t})
}

type pendingReq struct {
	cell      hexgrid.CellID
	submitted sim.Time
	began     sim.Time
	cb        func(Result)
}

// parShard is one shard's private driver state. Only the shard's worker
// (or the coordinator between windows) touches it.
type parShard struct {
	pending map[alloc.RequestID]*pendingReq
	// reqFree recycles pendingReq nodes: request bookkeeping is the
	// driver's hottest allocation, and completed nodes are reusable the
	// moment their completion callback returns.
	reqFree []*pendingReq
	// moved[cell][old] queues repacking moves (Env.Moved) so a caller
	// releasing the channel it was granted reaches a channel its cell
	// actually holds. A queue (not a single alias): the same channel id
	// can be granted, moved, and re-granted repeatedly, leaving several
	// outstanding forwards. Calls are fungible tokens — any consistent
	// matching of releases to held channels preserves system state.
	moved map[hexgrid.CellID]map[chanset.Channel][]chanset.Channel
	dog   trace.Watchdog
	ring  *trace.Ring
	msgs  transport.Stats
	// delayHist accumulates this shard's acquisition delays; Stats()
	// merges the buckets (integer counts, order-insensitive).
	delayHist *metrics.Histogram
	grants    uint64
	denies    uint64
	releases  uint64
	lastAt    map[parLink]sim.Time // per-link FIFO clamp under jitter
	wireBuf   []byte
	_         [64]byte
}

type parLink struct {
	from, to hexgrid.CellID
}

// cellStat packs one cell's accumulators into a single record so the
// per-cell state is one slab allocation and one cache line group per
// cell instead of six parallel arrays — at 10^6 cells the layout (not
// the byte count alone) dominates merge and grant-path locality. Grants
// and denies are uint32: 4 billion completions per cell is far beyond
// any run length, and the width keeps the record at 144 bytes.
type cellStat struct {
	acqDelay   metrics.Welford
	totalDelay metrics.Welford
	queueDelay metrics.Welford
	reqCount   uint64
	grants     uint32
	denies     uint32
}

// Parallel is one wired scenario.
type Parallel struct {
	grid    *hexgrid.Grid
	assign  *chanset.Assignment
	kernel  *sim.Shards
	part    *hexgrid.Partition
	allocs  []alloc.Allocator
	opts    ParallelOptions
	checker *trace.InterferenceChecker
	shards  []parShard

	// Per-cell accumulators, written only by the owning shard's worker.
	cells []cellStat
	// envs is the per-cell allocator environment slab; cell i's env is
	// &envs[i], with its RNG stream embedded by value.
	envs []pcellEnv

	// teardown is set for the span of ForceQuiesce (coordinator
	// context, kernel parked — never read concurrently): protocol
	// messages the forced releases would send are suppressed (not
	// scheduled, not counted) — nothing can be delivered after the
	// cutoff, and a warm giant grid would otherwise manufacture tens of
	// millions of doomed events just to discard them.
	teardown bool

	obs simObs
}

// NewParallel wires a simulation. The factory builds one allocator per
// cell.
func NewParallel(grid *hexgrid.Grid, assign *chanset.Assignment, factory alloc.Factory, opts ParallelOptions) (*Parallel, error) {
	cells := grid.NumCells()
	opts.applyDefaults(cells)
	if opts.Latency < 1 {
		return nil, fmt.Errorf("driver: parallel kernel needs latency >= 1, got %d", opts.Latency)
	}
	if opts.Journal != nil && opts.Shards != 1 {
		return nil, fmt.Errorf("driver: a journal needs a single shard (its record order would depend on worker scheduling), got Shards = %d", opts.Shards)
	}
	part, err := grid.Partition(opts.Shards)
	if err != nil {
		return nil, err
	}
	p := &Parallel{
		grid:   grid,
		assign: assign,
		kernel: sim.NewShards(opts.Shards, opts.Latency, cells),
		part:   part,
		opts:   opts,
		shards: make([]parShard, opts.Shards),
		cells:  make([]cellStat, cells),
		envs:   make([]pcellEnv, cells),
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.pending = make(map[alloc.RequestID]*pendingReq)
		sh.delayHist = metrics.NewHistogram(float64(opts.Latency)/2, delayBuckets)
		if opts.TraceSize > 0 {
			sh.ring = trace.NewRing(opts.TraceSize)
		}
		if opts.Jitter > 0 {
			sh.lastAt = make(map[parLink]sim.Time)
		}
	}
	p.obs.bind(opts.Obs, opts.Journal, opts.Latency)
	p.allocs = make([]alloc.Allocator, cells)
	for i := range p.allocs {
		cell := hexgrid.CellID(i)
		a := factory.New(cell)
		p.allocs[i] = a
		env := &p.envs[i]
		*env = pcellEnv{
			p:     p,
			shard: part.ShardOf(cell),
			cell:  cell,
			rand:  sim.SubstreamValue(opts.Seed, uint64(i)+1),
		}
		if opts.Jitter > 0 {
			env.jitter = sim.Substream(opts.Seed, 0x6a170000+uint64(i))
		}
		a.Start(env)
	}
	p.checker = trace.NewInterferenceChecker(grid, func(id hexgrid.CellID) chanset.Set {
		return p.allocs[id].InUse()
	})
	if opts.Check && opts.Shards > 1 {
		// Per-grant checks (pcellEnv.Granted) would read remote cells'
		// sets mid-window; check the consistent cut at each barrier.
		p.kernel.SetBarrier(func() {
			if err := p.checker.CheckAll(); err != nil {
				panic(err)
			}
		})
	}
	return p, nil
}

// Kernel exposes the sharded event kernel.
func (p *Parallel) Kernel() *sim.Shards { return p.kernel }

// Grid returns the scenario grid.
func (p *Parallel) Grid() *hexgrid.Grid { return p.grid }

// Assignment returns the primary-channel plan.
func (p *Parallel) Assignment() *chanset.Assignment { return p.assign }

// Partition returns the shard partition.
func (p *Parallel) Partition() *hexgrid.Partition { return p.part }

// Latency returns the one-way latency T.
func (p *Parallel) Latency() sim.Time { return p.opts.Latency }

// NumShards returns the shard count.
func (p *Parallel) NumShards() int { return p.opts.Shards }

// Workers returns the configured worker count.
func (p *Parallel) Workers() int { return p.opts.Workers }

// Allocator returns the allocator of the given cell (for inspection;
// only safe while the kernel is parked).
func (p *Parallel) Allocator(cell hexgrid.CellID) alloc.Allocator { return p.allocs[cell] }

// Now returns cell's shard-local virtual time.
func (p *Parallel) Now(cell hexgrid.CellID) sim.Time {
	return p.kernel.Now(p.part.ShardOf(cell))
}

// At schedules fn at absolute time at in cell's shard, with the cell as
// the event's origin. Callable before Run or from an event already
// executing in that shard (workload generators are built this way).
func (p *Parallel) At(cell hexgrid.CellID, at sim.Time, fn func()) {
	p.kernel.At(p.part.ShardOf(cell), at, int32(cell), fn)
}

// After schedules fn delay ticks from cell's shard-local now.
func (p *Parallel) After(cell hexgrid.CellID, delay sim.Time, fn func()) {
	p.kernel.After(p.part.ShardOf(cell), delay, int32(cell), fn)
}

// Relay schedules fn one message latency from from's shard-local now,
// executing in to's shard with from as the event origin — the driver
// primitive for workload flows that hop between cells (handoff
// signalling). The fixed one-latency delay is exactly the kernel's
// lookahead bound, so a relay is always a legal cross-shard event; it
// applies even when both cells share a shard, keeping the schedule
// independent of the partition. Must be called from an event executing
// in from's shard (or before the run starts).
func (p *Parallel) Relay(from, to hexgrid.CellID, fn func()) {
	src := p.part.ShardOf(from)
	p.kernel.Cross(src, p.part.ShardOf(to), p.kernel.Now(src)+p.opts.Latency, int32(from), fn)
}

// ReserveShard pre-sizes shard s's event heap (Erlang estimate from the
// workload). Absurd hints are rejected with a descriptive error (see
// sim.Shards.Reserve).
func (p *Parallel) ReserveShard(s, n int) error { return p.kernel.Reserve(s, n) }

// ReserveOutbox pre-sizes the src->dst mailbox, materializing the
// route. Absurd hints are rejected like ReserveShard's.
func (p *Parallel) ReserveOutbox(src, dst, n int) error { return p.kernel.ReserveOutbox(src, dst, n) }

// Request submits a channel request at cell; cb (optional) runs on
// completion, on the cell's shard. Must be called before Run/Drain or
// from an event executing in the cell's own shard. IDs are unique
// across cells but per-cell derived, not globally sequential.
func (p *Parallel) Request(cell hexgrid.CellID, cb func(Result)) alloc.RequestID {
	si := p.part.ShardOf(cell)
	sh := &p.shards[si]
	id := alloc.RequestID(int64(p.cells[cell].reqCount)*int64(p.grid.NumCells()) + int64(cell) + 1)
	p.cells[cell].reqCount++
	now := p.kernel.Now(si)
	sh.pending[id] = sh.newPending(cell, now, cb)
	sh.dog.Submitted(now)
	p.obs.outstanding.Add(1)
	if p.obs.journal != nil {
		p.obs.journal.Emit(int64(now), "request", int(cell), obs.FI("req", int64(id)))
	}
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvRequest, Cell: cell, Ch: chanset.NoChannel, Info: int64(id)})
	p.allocs[cell].Request(id)
	return id
}

// Release returns channel ch at cell to the pool. If repacking moved
// the call granted ch onto another channel, the release is forwarded:
// when ch is not currently held, the oldest outstanding move from ch is
// consumed instead. (A held ch is always releasable directly — calls
// are fungible; see parShard.moved.) Same shard-context rule as
// Request.
func (p *Parallel) Release(cell hexgrid.CellID, ch chanset.Channel) {
	si := p.part.ShardOf(cell)
	sh := &p.shards[si]
	if m := sh.moved[cell]; m != nil && !p.allocs[cell].InUse().Contains(ch) {
		if q := m[ch]; len(q) > 0 {
			target := q[0]
			if len(q) == 1 {
				delete(m, ch)
			} else {
				m[ch] = q[1:]
			}
			ch = target
		}
	}
	now := p.kernel.Now(si)
	if p.obs.journal != nil {
		p.obs.journal.Emit(int64(now), "release", int(cell), obs.FI("ch", int64(ch)))
	}
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvRelease, Cell: cell, Ch: ch})
	if err := p.allocs[cell].Release(ch); err != nil {
		// In the deterministic sim an unheld release is a driver bug,
		// not an environmental fault — fail loudly.
		panic(err)
	}
	sh.releases++
}

// ActiveCalls returns the number of channels currently held across the
// grid (grants minus releases). Only safe while the kernel is parked —
// before Run, at a window barrier, or after Run/Drain returns — since
// shard workers update the counters mid-window. The scale bench samples
// it at barriers to report measured occupancy.
func (p *Parallel) ActiveCalls() uint64 {
	var n uint64
	for i := range p.shards {
		sh := &p.shards[i]
		n += sh.grants - sh.releases
	}
	return n
}

// Run advances all shards in lockstep windows to until.
func (p *Parallel) Run(until sim.Time) { p.kernel.Run(p.opts.Workers, until) }

// Drain runs to quiescence with a backstop; it reports whether every
// queue emptied.
func (p *Parallel) Drain(maxEvents uint64) bool {
	return p.kernel.Drain(p.opts.Workers, maxEvents)
}

// DrainUntil executes every event at or before cutoff — window
// boundaries and barrier samples before the cutoff are exactly those of
// a full Drain — and parks every shard clock there, leaving later
// events queued for ForceQuiesce. It reports whether all due events ran
// (false only on the maxEvents backstop).
func (p *Parallel) DrainUntil(cutoff sim.Time, maxEvents uint64) bool {
	return p.kernel.DrainUntil(p.opts.Workers, cutoff, maxEvents)
}

// ForceQuiesce terminates a truncated run at the current clock with a
// canonical sweep: discard queued events, force-release every held
// channel in ascending (cell, in-use-set) order through the normal
// Release path (protocol sends suppressed — teardown — since nothing
// can be delivered before the cutoff), discard what the releases did
// queue, then cancel in-flight requests in ascending id order per shard
// (no callback, no grant/deny count).
// Coordinator-context only: call it after DrainUntil returns, never
// mid-window. All shard clocks are equal then, so the forced releases
// trace at one uniform cutoff time and the merged trace is the same at
// every shard count. It returns how many channels were force-released
// and how many requests were cancelled.
func (p *Parallel) ForceQuiesce() (released, cancelled int) {
	p.teardown = true
	defer func() { p.teardown = false }()
	p.kernel.DiscardPending()
	for cell := range p.allocs {
		for {
			use := p.allocs[cell].InUse()
			if use.Empty() {
				break
			}
			p.Release(hexgrid.CellID(cell), use.First())
			released++
		}
	}
	p.kernel.DiscardPending()
	for i := range p.shards {
		sh := &p.shards[i]
		if n := len(sh.pending); n > 0 {
			ids := make([]alloc.RequestID, 0, n)
			for id := range sh.pending {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			for _, id := range ids {
				pr := sh.pending[id]
				delete(sh.pending, id)
				sh.dog.Cancelled()
				p.obs.outstanding.Add(-1)
				sh.recycle(pr)
				cancelled++
			}
		}
		clear(sh.moved)
	}
	return released, cancelled
}

// ShardOutstanding returns the per-shard in-flight request counts, in
// shard order — drain diagnostics for the traffic layer's error paths.
func (p *Parallel) ShardOutstanding() []int {
	out := make([]int, len(p.shards))
	for i := range p.shards {
		out[i] = p.shards[i].dog.Outstanding()
	}
	return out
}

// CheckInvariant verifies Theorem 1 across the whole grid now. Only
// safe while the kernel is parked.
func (p *Parallel) CheckInvariant() error { return p.checker.CheckAll() }

// Outstanding returns the number of in-flight requests.
func (p *Parallel) Outstanding() int {
	n := 0
	for i := range p.shards {
		n += p.shards[i].dog.Outstanding()
	}
	return n
}

// Stalled reports whether any shard has requests outstanding for more
// than window ticks without progress.
func (p *Parallel) Stalled(window sim.Time) bool {
	for i := range p.shards {
		if p.shards[i].dog.Stalled(p.kernel.Now(i), window) {
			return true
		}
	}
	return false
}

// Trace returns the retained lifecycle events merged across shards in
// canonical (At, Cell) order. A cell's events live in exactly one
// shard's ring, so ordering each shard's events and streaming them
// through a k-way merge yields exactly what a global stable sort over
// the concatenation would: (At, Cell) ties never span shards, and each
// cell's own order is preserved. The merge works per shard instead of
// gathering everything into one slice first and re-sorting it — at
// giant-grid scale the gather-all sort was the driver's largest
// post-run transient.
func (p *Parallel) Trace() []trace.Event {
	lists := make([][]trace.Event, 0, len(p.shards))
	total := 0
	for i := range p.shards {
		if p.shards[i].ring == nil {
			continue
		}
		evs := p.shards[i].ring.Events()
		if len(evs) == 0 {
			continue
		}
		// Ring order is execution order: non-decreasing At within the
		// shard, but same-tick events may interleave cells (the heap
		// orders ties by origin, the trace by acted-on cell). A stable
		// per-shard sort fixes the tie order without touching the rest.
		sort.SliceStable(evs, func(a, b int) bool {
			if evs[a].At != evs[b].At {
				return evs[a].At < evs[b].At
			}
			return evs[a].Cell < evs[b].Cell
		})
		lists = append(lists, evs)
		total += len(evs)
	}
	if len(lists) == 0 {
		return nil
	}
	out := make([]trace.Event, 0, total)
	for len(lists) > 0 {
		min := 0
		for i := 1; i < len(lists); i++ {
			a, b := &lists[i][0], &lists[min][0]
			if a.At < b.At || (a.At == b.At && a.Cell < b.Cell) {
				min = i
			}
		}
		out = append(out, lists[min][0])
		if lists[min] = lists[min][1:]; len(lists[min]) == 0 {
			lists = append(lists[:min], lists[min+1:]...)
		}
	}
	return out
}

// Stats snapshots the aggregates, merging shard- and cell-local state
// in canonical order (ascending shard, ascending cell) so the result is
// bit-identical regardless of how the run was scheduled.
func (p *Parallel) Stats() Stats {
	st := Stats{
		CellGrants: make([]uint64, len(p.cells)),
		CellDenies: make([]uint64, len(p.cells)),
	}
	merged := metrics.NewHistogram(float64(p.opts.Latency)/2, delayBuckets)
	for i := range p.shards {
		sh := &p.shards[i]
		st.Grants += sh.grants
		st.Denies += sh.denies
		st.Messages.Add(sh.msgs)
		merged.Merge(sh.delayHist)
	}
	st.DelayP95 = merged.Quantile(0.95)
	// One streaming pass over the packed per-cell records, in ascending
	// cell order: Welford merges are float-order-sensitive, so this
	// fixed order is part of the bit-identical-trajectory contract.
	for c := range p.cells {
		cs := &p.cells[c]
		st.CellGrants[c] = uint64(cs.grants)
		st.CellDenies[c] = uint64(cs.denies)
		st.AcqDelay.Merge(cs.acqDelay)
		st.TotalDelay.Merge(cs.totalDelay)
		st.QueueDelay.Merge(cs.queueDelay)
	}
	for _, a := range p.allocs {
		if cp, ok := a.(alloc.CounterProvider); ok {
			st.Counters.Add(cp.ProtocolCounters())
		}
	}
	return st
}

// ModeOccupancy returns the fraction of cells in each mode. Only safe
// while the kernel is parked.
func (p *Parallel) ModeOccupancy() [4]float64 {
	var counts [4]int
	for _, a := range p.allocs {
		m := a.Mode()
		if m >= 0 && m < 4 {
			counts[m]++
		}
	}
	var out [4]float64
	n := float64(len(p.allocs))
	for i, c := range counts {
		out[i] = float64(c) / n
	}
	return out
}

func (sh *parShard) newPending(cell hexgrid.CellID, now sim.Time, cb func(Result)) *pendingReq {
	if n := len(sh.reqFree); n > 0 {
		q := sh.reqFree[n-1]
		sh.reqFree = sh.reqFree[:n-1]
		*q = pendingReq{cell: cell, submitted: now, began: now, cb: cb}
		return q
	}
	return &pendingReq{cell: cell, submitted: now, began: now, cb: cb}
}

func (sh *parShard) recycle(q *pendingReq) {
	q.cb = nil
	sh.reqFree = append(sh.reqFree, q)
}

func (sh *parShard) traceEvent(e trace.Event) {
	if sh.ring != nil {
		sh.ring.Add(e)
	}
}

// pcellEnv implements alloc.Env for one cell on the sharded kernel.
// Instances live in Parallel.envs, one slab for the whole grid, with
// the cell's RNG stream embedded by value (the jitter stream stays a
// pointer: it exists only for jittered scenarios).
type pcellEnv struct {
	p      *Parallel
	shard  int
	cell   hexgrid.CellID
	rand   sim.Rand
	jitter *sim.Rand
}

func (e *pcellEnv) ID() hexgrid.CellID          { return e.cell }
func (e *pcellEnv) Neighbors() []hexgrid.CellID { return e.p.grid.Interference(e.cell) }
func (e *pcellEnv) Now() sim.Time               { return e.p.kernel.Now(e.shard) }
func (e *pcellEnv) Latency() sim.Time           { return e.p.opts.Latency }
func (e *pcellEnv) Rand() *sim.Rand             { return &e.rand }

// Send delivers m after the latency (plus jitter). Deliveries carry the
// *sender* as the event origin: the canonical key is then assigned
// entirely within the sending shard, which is what makes cross-shard
// ordering deterministic.
func (e *pcellEnv) Send(m message.Message) {
	if e.p.teardown {
		return
	}
	if m.From != e.cell {
		m.From = e.cell
	}
	p := e.p
	sh := &p.shards[e.shard]
	p.obs.messages.Inc()
	sh.msgs.Count(m)
	if p.opts.Wire {
		sh.wireBuf = message.Encode(sh.wireBuf[:0], m)
		sh.msgs.Bytes += uint64(len(sh.wireBuf))
		decoded, n, err := message.Decode(sh.wireBuf)
		if err != nil || n != len(sh.wireBuf) {
			panic(fmt.Sprintf("driver: codec round trip failed for %v: %v", m, err))
		}
		m = decoded
	}
	at := p.kernel.Now(e.shard) + p.opts.Latency
	if p.opts.Jitter > 0 {
		at += sim.Time(e.jitter.Intn(int(p.opts.Jitter) + 1))
		key := parLink{m.From, m.To}
		if last := sh.lastAt[key]; at < last {
			at = last
		}
		sh.lastAt[key] = at
	}
	dst := p.part.ShardOf(m.To)
	h := p.allocs[m.To]
	msg := m
	p.kernel.Cross(e.shard, dst, at, int32(e.cell), func() { h.Handle(msg) })
}

func (e *pcellEnv) After(d sim.Time, fn func()) {
	e.p.kernel.After(e.shard, d, int32(e.cell), fn)
}

func (e *pcellEnv) Began(id alloc.RequestID) {
	sh := &e.p.shards[e.shard]
	if q, ok := sh.pending[id]; ok {
		q.began = e.p.kernel.Now(e.shard)
	}
}

func (e *pcellEnv) Moved(from, to chanset.Channel) {
	sh := &e.p.shards[e.shard]
	if sh.moved == nil {
		sh.moved = make(map[hexgrid.CellID]map[chanset.Channel][]chanset.Channel)
	}
	m := sh.moved[e.cell]
	if m == nil {
		m = make(map[chanset.Channel][]chanset.Channel)
		sh.moved[e.cell] = m
	}
	m[from] = append(m[from], to)
}

func (e *pcellEnv) Granted(id alloc.RequestID, ch chanset.Channel) {
	p := e.p
	sh := &p.shards[e.shard]
	q, ok := sh.pending[id]
	if !ok {
		panic(fmt.Sprintf("driver: grant for unknown request %d at cell %d", id, e.cell))
	}
	delete(sh.pending, id)
	now := p.kernel.Now(e.shard)
	sh.dog.Completed(now)
	sh.grants++
	cs := &p.cells[e.cell]
	cs.grants++
	cs.acqDelay.Observe(float64(now - q.began))
	cs.totalDelay.Observe(float64(now - q.submitted))
	cs.queueDelay.Observe(float64(q.began - q.submitted))
	sh.delayHist.Observe(float64(now - q.began))
	p.obs.granted.Inc()
	p.obs.outstanding.Add(-1)
	p.obs.acquire.Observe(float64(now - q.began))
	if p.obs.journal != nil {
		p.obs.journal.Emit(int64(now), "result", int(e.cell),
			obs.FI("req", int64(id)), obs.FI("granted", 1),
			obs.FI("ch", int64(ch)), obs.FI("ticks", int64(now-q.began)))
	}
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvGrant, Cell: e.cell, Ch: ch, Info: int64(id)})
	if p.opts.Check && p.opts.Shards == 1 {
		if err := p.checker.CheckCell(e.cell); err != nil {
			panic(err)
		}
	}
	if q.cb != nil {
		q.cb(Result{
			ID: id, Cell: e.cell, Granted: true, Ch: ch,
			Submitted: q.submitted, Began: q.began, Done: now,
		})
	}
	sh.recycle(q)
}

func (e *pcellEnv) Denied(id alloc.RequestID) {
	p := e.p
	sh := &p.shards[e.shard]
	q, ok := sh.pending[id]
	if !ok {
		panic(fmt.Sprintf("driver: denial for unknown request %d at cell %d", id, e.cell))
	}
	delete(sh.pending, id)
	now := p.kernel.Now(e.shard)
	sh.dog.Completed(now)
	sh.denies++
	p.cells[e.cell].denies++
	p.obs.denied.Inc()
	p.obs.outstanding.Add(-1)
	if p.obs.journal != nil {
		p.obs.journal.Emit(int64(now), "result", int(e.cell),
			obs.FI("req", int64(id)), obs.FI("granted", 0),
			obs.FI("ticks", int64(now-q.began)))
	}
	sh.traceEvent(trace.Event{At: now, Kind: trace.EvDeny, Cell: e.cell, Ch: chanset.NoChannel, Info: int64(id)})
	if q.cb != nil {
		q.cb(Result{
			ID: id, Cell: e.cell, Granted: false, Ch: chanset.NoChannel,
			Submitted: q.submitted, Began: q.began, Done: now,
		})
	}
	sh.recycle(q)
}
