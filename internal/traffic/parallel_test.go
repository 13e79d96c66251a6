package traffic_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// parFixture returns a builder for the default 7x7 adaptive scenario
// at the given shard and worker counts.
func parFixture(t *testing.T) func(shards, workers int) *driver.Parallel {
	t.Helper()
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	return func(shards, workers int) *driver.Parallel {
		p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{Latency: 10, Seed: 101, Shards: shards, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// TestRunParallelMatchesSerialArrivals checks that a sharded run offers
// exactly the same call schedule as the serial run (one shard, one
// worker): arrival streams are per-cell RNG substreams, so
// PerCellOffered must match cell for cell, and with the canonical
// (time, origin, counter) event order the blocking outcome matches too.
func TestRunParallelMatchesSerialArrivals(t *testing.T) {
	newPar := parFixture(t)
	spec := traffic.Spec{
		Profile:  traffic.Uniform{PerCell: 7.0 / 3000},
		MeanHold: 3000,
		Duration: 20_000,
		Warmup:   2_000,
		Seed:     101,
	}
	serial, err := traffic.RunParallel(newPar(1, 1), spec)
	if err != nil {
		t.Fatal(err)
	}
	par, err := traffic.RunParallel(newPar(7, 2), spec)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Offered == 0 {
		t.Fatal("serial run offered no calls")
	}
	if par.Offered != serial.Offered {
		t.Errorf("offered calls: parallel %d, serial %d", par.Offered, serial.Offered)
	}
	if !reflect.DeepEqual(par.PerCellOffered, serial.PerCellOffered) {
		t.Error("per-cell offered schedules diverged between serial and parallel generators")
	}
	if !reflect.DeepEqual(par, serial) {
		t.Errorf("workload stats diverged:\n par    %+v\n serial %+v", par, serial)
	}
}

// mobileSpec is the shared 7x7 mobility workload: ~6.5 Erlang per cell,
// ~3 handoffs per call, enough traffic that blocking and handoff drops
// both occur within a window short enough for the 20-combination
// determinism matrix to stay fast under -race.
func mobileSpec() traffic.Spec {
	return traffic.Spec{
		Profile:     traffic.Uniform{PerCell: 6.5 / 3000},
		MeanHold:    3000,
		HandoffRate: 0.001,
		Duration:    10_000,
		Warmup:      2_000,
		Seed:        3,
	}
}

// mobileOutcome captures everything the determinism contract pins for a
// mobility run: the driver aggregates, the workload stats (both handoff
// counters included), the merged lifecycle trace, and the final per-cell
// channel-use sets.
type mobileOutcome struct {
	stats   driver.Stats
	traffic traffic.Stats
	trace   []trace.Event
	use     []chanset.Set
}

func runMobileParallel(t *testing.T, g *hexgrid.Grid, assign *chanset.Assignment, shards, workers int) mobileOutcome {
	t.Helper()
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	// TraceSize must hold the whole run even when one shard owns every
	// cell (shards=1): rings that evict would make the merged trace
	// depend on the partition. 2^16 slots comfortably covers the ~20k
	// lifecycle events this workload produces, per ring, cheaply.
	p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
		Latency: 10, Seed: 3, Shards: shards, Workers: workers, TraceSize: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := traffic.RunParallel(p, mobileSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	use := make([]chanset.Set, g.NumCells())
	for c := range use {
		use[c] = p.Allocator(hexgrid.CellID(c)).InUse()
	}
	return mobileOutcome{stats: p.Stats(), traffic: ts, trace: p.Trace(), use: use}
}

// TestRunParallelMobilityDeterminism is the acceptance gate for sharded
// mobility: stats, traces and channel-use sets must be bit-identical
// across worker counts 1/2/4/NumCPU and shard counts 1/2/7/16/49.
// Mobility randomness is per-cell (drawn in the owning shard) and the
// handoff relay takes exactly one lookahead window, so neither the
// partition nor the scheduling of workers can perturb the trajectory.
func TestRunParallelMobilityDeterminism(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	base := runMobileParallel(t, g, assign, 7, 1)
	if base.traffic.HandoffAttempts == 0 || base.traffic.HandoffDrops == 0 {
		t.Fatalf("workload too tame to exercise handoffs: %+v", base.traffic)
	}
	workers := []int{1, 2, 4, runtime.NumCPU()}
	shards := []int{1, 2, 7, 16, 49}
	for _, sh := range shards {
		for _, wk := range workers {
			if sh == 7 && wk == 1 {
				continue // the baseline itself
			}
			got := runMobileParallel(t, g, assign, sh, wk)
			if !reflect.DeepEqual(got.traffic, base.traffic) {
				t.Errorf("shards=%d workers=%d traffic stats diverged:\n got %+v\nwant %+v", sh, wk, got.traffic, base.traffic)
			}
			if !reflect.DeepEqual(got.stats, base.stats) {
				t.Errorf("shards=%d workers=%d driver stats diverged", sh, wk)
			}
			if !reflect.DeepEqual(got.trace, base.trace) {
				t.Errorf("shards=%d workers=%d traces diverged (%d vs %d events)", sh, wk, len(got.trace), len(base.trace))
			}
			if !reflect.DeepEqual(got.use, base.use) {
				t.Errorf("shards=%d workers=%d channel-use sets diverged", sh, wk)
			}
		}
	}
}

// TestRunParallelMobilityMatchesSerial drives scenarios/mobility.json's
// workload shape through the serial configuration (one shard, one
// worker) and through 7 and 16 shards, and requires the same
// trajectory: equal telephony stats (both handoff counters), equal
// driver stats (the per-cell Welford merge runs in ascending cell order
// at every shard count, so even the float aggregates match bit for bit)
// and equal final channel-use sets.
func TestRunParallelMobilityMatchesSerial(t *testing.T) {
	sc, err := scenario.Load("../../scenarios/mobility.json")
	if err != nil {
		t.Fatal(err)
	}
	g := hexgrid.MustNew(hexgrid.Config{
		Shape: hexgrid.Rect, Width: sc.Grid.Width, Height: sc.Grid.Height,
		ReuseDistance: sc.Grid.ReuseDistance, Wrap: sc.Grid.Wrap,
	})
	assign := chanset.MustAssign(g, sc.Channels)
	lat := sim.Time(sc.LatencyTicks)
	wl := sc.Workload
	spec := traffic.Spec{
		Profile:     traffic.Uniform{PerCell: wl.ErlangPerCell / wl.MeanHoldTicks},
		MeanHold:    wl.MeanHoldTicks,
		HandoffRate: wl.HandoffRate,
		Duration:    sim.Time(wl.DurationTicks),
		Warmup:      sim.Time(wl.WarmupTicks),
		Seed:        sc.Seed,
	}
	factory, err := registry.Build(sc.Scheme, g, assign, registry.Config{Latency: lat})
	if err != nil {
		t.Fatal(err)
	}
	run := func(shards, workers int) (*driver.Parallel, traffic.Stats) {
		p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
			Latency: lat, Seed: sc.Seed, Shards: shards, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts, err := traffic.RunParallel(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		return p, ts
	}
	s, serialTS := run(1, 1)
	serialST := s.Stats()
	for _, shards := range []int{7, 16} {
		p, parTS := run(shards, 0)
		if !reflect.DeepEqual(parTS, serialTS) {
			t.Errorf("shards=%d traffic stats diverged from serial:\n par    %+v\n serial %+v", shards, parTS, serialTS)
		}
		if !reflect.DeepEqual(p.Stats(), serialST) {
			t.Errorf("shards=%d driver stats diverged from serial", shards)
		}
		for c := 0; c < g.NumCells(); c++ {
			su := s.Allocator(hexgrid.CellID(c)).InUse()
			pu := p.Allocator(hexgrid.CellID(c)).InUse()
			if !reflect.DeepEqual(su, pu) {
				t.Errorf("shards=%d cell %d channel-use set diverged from serial", shards, c)
				break
			}
		}
	}
}

// TestRunParallelRejectsNegativeHandoff: on a sharded run a negative
// rate is a spec bug, not "mobility off".
func TestRunParallelRejectsNegativeHandoff(t *testing.T) {
	newPar := parFixture(t)
	_, err := traffic.RunParallel(newPar(7, 2), traffic.Spec{
		Profile:     traffic.Uniform{PerCell: 0.001},
		MeanHold:    3000,
		Duration:    1000,
		HandoffRate: -0.0001,
		Seed:        1,
	})
	if err == nil || !strings.Contains(err.Error(), "HandoffRate") {
		t.Fatalf("want descriptive HandoffRate error, got %v", err)
	}
}

// TestRunParallelValidatesSpec: a sharded run rejects an empty spec.
func TestRunParallelValidatesSpec(t *testing.T) {
	newPar := parFixture(t)
	if _, err := traffic.RunParallel(newPar(7, 2), traffic.Spec{}); err == nil {
		t.Fatal("RunParallel accepted an empty spec")
	}
}
