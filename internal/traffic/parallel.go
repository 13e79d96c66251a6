package traffic

import (
	"fmt"
	"strings"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

// RunParallel drives the workload over the driver to completion
// (arrivals stop at Duration, held calls drain afterwards) and returns
// the stats. Every random stream the workload consumes is per cell —
// arrivals/holding (Substream(seed, arrivalLabel+cell)) and mobility
// (Substream(seed, mobilityLabel+cell)) — so each stream is consumed
// entirely inside its cell's shard and the generated schedule is
// identical at any shard or worker count.
//
// Mobility runs sharded: a call leg draws its dwell time and neighbor
// pick from the *current* cell's mobility substream when the leg is
// granted, and the handoff itself is a relayed event (driver.Relay)
// that reaches the target cell one message latency after the crossing —
// exactly the kernel's lookahead bound, so the hop is always a legal
// cross-shard event. Handoff tallies are per shard and merged in shard
// order, like Offered/Blocked.
func RunParallel(p *driver.Parallel, spec Spec) (Stats, error) {
	r, err := PrimeParallel(p, spec)
	if err != nil {
		return Stats{}, err
	}
	return r.Finish()
}

// PrimedParallel is a seeded-but-not-yet-run parallel workload: kernel
// reserves are placed, warm-start occupancy (Spec.WarmStart) is
// submitted and every cell's first candidate arrival is scheduled, but
// no simulation time has passed. Finish runs it to completion.
type PrimedParallel struct {
	p *driver.Parallel
	g *generator
}

// PrimeParallel validates spec and seeds the workload over p without
// running it. The split from RunParallel exists so the scale bench can
// time the O(cells) warm-start seeding separately from the simulation
// it replaces; RunParallel is PrimeParallel + Finish.
func PrimeParallel(p *driver.Parallel, spec Spec) (*PrimedParallel, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	n := p.Grid().NumCells()
	st := Stats{
		PerCellOffered: make([]uint64, n),
		PerCellBlocked: make([]uint64, n),
	}
	part := p.Partition()
	// Per-shard heap capacity hints from the Erlang estimate: one
	// candidate arrival per cell plus ~one release per held call, held
	// calls ≈ offered Erlangs, 1.25x headroom (2x pinned double the
	// steady state for nothing at giant-grid scale).
	// Mailboxes are reserved only toward the shards the partition's halo
	// can actually reach — O(neighbor shards) per shard, where the old
	// all-destinations loop was O(shards²) slices in total and dominated
	// startup memory at the shard counts a 10^6-cell grid wants.
	for si := 0; si < part.NumShards(); si++ {
		t := part.Tile(si)
		var rate float64
		for c := t.Lo; c < t.Hi; c++ {
			if r := spec.Profile.MaxRate(c); r > 0 {
				rate += r
			}
		}
		if err := p.ReserveShard(si, t.Cells()+64+int(1.25*rate*spec.MeanHold)); err != nil {
			return nil, err
		}
		if h := len(t.Halo); h > 0 {
			for _, di := range part.NeighborShards(si) {
				if err := p.ReserveOutbox(si, int(di), 4*h); err != nil {
					return nil, err
				}
			}
		}
	}
	g := &generator{
		p:       p,
		spec:    spec,
		stats:   &st,
		tallies: make([]ptally, part.NumShards()),
		mob:     mobilityStreams(spec, n),
	}
	for i := 0; i < n; i++ {
		cell := hexgrid.CellID(i)
		rng := sim.Substream(spec.Seed, arrivalLabel+uint64(i))
		if spec.WarmStart {
			g.warmStart(cell, rng)
		}
		g.scheduleArrival(cell, rng)
	}
	return &PrimedParallel{p: p, g: g}, nil
}

// Finish drains the primed workload to completion (arrivals stop at
// Duration, held calls drain afterwards) and merges the per-shard
// tallies — in shard order, so the result is deterministic.
func (r *PrimedParallel) Finish() (Stats, error) {
	p, g := r.p, r.g
	st := g.stats
	if g.spec.DrainHorizon > 0 {
		// Truncated drain: run to the cutoff (window boundaries and
		// barrier samples before it are exactly the full drain's), then
		// force the rest quiescent with the driver's canonical sweep
		// (ascending cell, then ascending request id), so the truncated
		// trajectory stays bit-identical across worker and shard counts.
		cutoff := g.spec.Duration + g.spec.DrainHorizon
		if !p.DrainUntil(cutoff, 2_000_000_000) {
			return *st, fmt.Errorf("traffic: truncated drain hit its event backstop before cutoff %d: %d events pending, %d requests outstanding (per shard: %s), sim time %d",
				cutoff, p.Kernel().Pending(), p.Outstanding(), shardOutstandingSummary(p.ShardOutstanding()), p.Kernel().Now(0))
		}
		p.ForceQuiesce()
		if p.Outstanding() != 0 {
			return *st, fmt.Errorf("traffic: %d requests still outstanding after forced quiesce (per shard: %s), sim time %d",
				p.Outstanding(), shardOutstandingSummary(p.ShardOutstanding()), p.Kernel().Now(0))
		}
	} else {
		if !p.Drain(2_000_000_000) {
			return *st, fmt.Errorf("traffic: simulation did not quiesce: %d events pending, %d requests outstanding (per shard: %s), sim time %d",
				p.Kernel().Pending(), p.Outstanding(), shardOutstandingSummary(p.ShardOutstanding()), p.Kernel().Now(0))
		}
		if p.Outstanding() != 0 {
			return *st, fmt.Errorf("traffic: %d requests still outstanding after drain (per shard: %s), sim time %d (no events pending)",
				p.Outstanding(), shardOutstandingSummary(p.ShardOutstanding()), p.Kernel().Now(0))
		}
	}
	for i := range g.tallies {
		t := &g.tallies[i]
		st.Offered += t.offered
		st.Blocked += t.blocked
		st.HandoffAttempts += t.hoAttempts
		st.HandoffDrops += t.hoDrops
	}
	return *st, nil
}

// shardOutstandingSummary renders per-shard outstanding-request counts
// for drain diagnostics: only shards with in-flight requests, capped so
// a giant-grid shard count cannot flood the error message.
func shardOutstandingSummary(per []int) string {
	const cap = 8
	var b strings.Builder
	listed, nonzero := 0, 0
	for si, n := range per {
		if n == 0 {
			continue
		}
		nonzero++
		if listed < cap {
			if listed > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "shard%d:%d", si, n)
			listed++
		}
	}
	if nonzero == 0 {
		return "none"
	}
	if nonzero > listed {
		fmt.Fprintf(&b, " +%d more shards", nonzero-listed)
	}
	return b.String()
}

// ptally is one shard's scalar counters, merged in shard order at the
// end: counters are written from shard workers, so the global Stats
// fields cannot be touched mid-run. Padded to keep adjacent shards off
// one cache line.
type ptally struct {
	offered, blocked    uint64
	hoAttempts, hoDrops uint64
	_                   [32]byte
}

type generator struct {
	p       *driver.Parallel
	spec    Spec
	stats   *Stats
	tallies []ptally
	// mob[cell] is the cell's mobility substream (nil slice without
	// mobility): dwell and neighbor draws for a leg are taken from the
	// stream of the cell the leg runs in, consumed only by that cell's
	// owning shard.
	mob []*sim.Rand
}

// tally returns the counters of cell's shard. Only the owning shard's
// worker increments them, so no synchronization is needed.
func (g *generator) tally(cell hexgrid.CellID) *ptally {
	return &g.tallies[g.p.Partition().ShardOf(cell)]
}

// warmStart submits cell's stationary in-progress calls before tick 0:
// K ~ Poisson(rate(cell, 0) × MeanHold), each with a residual
// Exp(MeanHold) hold, drawn from the cell's arrival substream ahead of
// any arrival-gap draw. Pre-run requests are legal on driver.Parallel
// and run the allocator of the cell's own shard synchronously; seeds a
// saturated neighborhood cannot grant immediately resolve through the
// borrow protocol during the run (the protocol's messages are
// latency-delayed cross events, always within the kernel's lookahead
// bound); denied seeds simply never existed. Grant order is fixed by
// the kernel's canonical (time, origin, counter) order, so seeding is
// bit-identical across shard and worker counts. Neither outcome touches
// the Offered/Blocked tallies — seeded calls model traffic admitted
// before the run began.
func (g *generator) warmStart(cell hexgrid.CellID, rng *sim.Rand) {
	k := rng.Poisson(g.spec.Profile.Rate(cell, 0) * g.spec.MeanHold)
	for i := 0; i < k; i++ {
		remaining := rng.ExpTicks(g.spec.MeanHold)
		g.p.Request(cell, func(r driver.Result) {
			if r.Granted {
				g.continueCall(r.Cell, r.Ch, remaining)
			}
		})
	}
}

// scheduleArrival plants the next candidate arrival for cell using
// thinning (non-homogeneous Poisson sampling).
func (g *generator) scheduleArrival(cell hexgrid.CellID, rng *sim.Rand) {
	maxRate := g.spec.Profile.MaxRate(cell)
	if maxRate <= 0 {
		return
	}
	gap := rng.ExpTicks(1 / maxRate)
	at := g.p.Now(cell) + gap
	if at > g.spec.Duration {
		return
	}
	g.p.At(cell, at, func() {
		// Thinning: accept the candidate with probability rate/maxRate.
		if rng.Float64()*maxRate <= g.spec.Profile.Rate(cell, g.p.Now(cell)) {
			g.newCall(cell, rng)
		}
		g.scheduleArrival(cell, rng)
	})
}

// newCall submits a channel request and, when granted, starts the call
// lifecycle. PerCell slots are only ever written by the owning shard,
// so they need no tally indirection.
func (g *generator) newCall(cell hexgrid.CellID, rng *sim.Rand) {
	now := g.p.Now(cell)
	measured := now >= g.spec.Warmup
	if measured {
		t := g.tally(cell)
		t.offered++
		g.stats.PerCellOffered[cell]++
	}
	remaining := rng.ExpTicks(g.spec.MeanHold)
	g.p.Request(cell, func(r driver.Result) {
		if !r.Granted {
			if measured && g.spec.countsDenial(g.p.Now(cell)) {
				g.tally(cell).blocked++
				g.stats.PerCellBlocked[cell]++
			}
			return
		}
		g.continueCall(r.Cell, r.Ch, remaining)
	})
}

// continueCall runs one leg of a call in one cell: either the call ends
// here (release) or it departs toward a neighbor first. Dwell time and
// the neighbor pick are drawn from the current cell's mobility
// substream at leg start; the grant callback runs in the cell's shard,
// so the draws are shard-local by construction.
func (g *generator) continueCall(cell hexgrid.CellID, ch chanset.Channel, remaining sim.Time) {
	if g.spec.HandoffRate > 0 {
		mob := g.mob[cell]
		handoffIn := mob.ExpTicks(1 / g.spec.HandoffRate)
		if handoffIn < remaining {
			if adj := g.p.Grid().Adjacent(cell); len(adj) > 0 {
				next := adj[mob.Intn(len(adj))]
				left := remaining - handoffIn
				g.p.After(cell, handoffIn, func() { g.depart(cell, ch, next, left) })
				return
			}
		}
	}
	g.p.After(cell, remaining, func() { g.p.Release(cell, ch) })
}

// depart executes a cell-boundary crossing, make-before-break with
// explicit signalling delay: the crossing is counted in the old cell's
// shard at crossing time, the handoff request is relayed to the target
// cell one latency later (a legal cross-shard event by the lookahead
// bound), and the old channel is released back home one latency after
// the target's decision. Drops are counted in the target cell's shard
// at decision time. Handoffs are counted by event time (crossing resp.
// decision vs Warmup), matching how Offered and Blocked treat warmup.
func (g *generator) depart(cell hexgrid.CellID, ch chanset.Channel, next hexgrid.CellID, left sim.Time) {
	if g.spec.countsHandoff(g.p.Now(cell)) {
		g.tally(cell).hoAttempts++
	}
	g.p.Relay(cell, next, func() {
		g.p.Request(next, func(r driver.Result) {
			g.p.Relay(next, cell, func() { g.p.Release(cell, ch) })
			if !r.Granted {
				if g.spec.countsHandoff(g.p.Now(next)) {
					g.tally(next).hoDrops++
				}
				return
			}
			g.continueCall(r.Cell, r.Ch, left)
		})
	})
}
