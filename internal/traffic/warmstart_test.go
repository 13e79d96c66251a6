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
	"repro/internal/traffic"
)

// warmSpec is the shared warm-start workload: 9 Erlang per cell —
// right at the 10-primary capacity of the 7x7 reuse-2 grid — with a
// 14-Erlang hot zone so seeded cells overflow their primaries and the
// pre-run seeds resolve through the borrow protocol, plus mobility so
// warm calls also exercise the handoff path.
func warmSpec(g *hexgrid.Grid) traffic.Spec {
	return traffic.Spec{
		Profile:     traffic.NewHotspot(g, g.InteriorCell(), 1, 9.0/3000, 14.0/3000),
		MeanHold:    3000,
		HandoffRate: 0.0005,
		Duration:    4_000,
		Warmup:      500,
		Seed:        7,
		WarmStart:   true,
	}
}

func runWarmParallel(t *testing.T, g *hexgrid.Grid, assign *chanset.Assignment, shards, workers int) mobileOutcome {
	t.Helper()
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
		Latency: 10, Seed: 7, Shards: shards, Workers: workers, TraceSize: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := traffic.RunParallel(p, warmSpec(g))
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

// TestRunParallelWarmStartDeterminism is the acceptance gate for
// warm-start seeding on the sharded kernel: the seeded trajectory —
// driver stats, workload stats, merged trace and final channel-use
// sets — must be bit-identical across worker counts 1/2/4/NumCPU and
// shard counts 1/2/7/16. Seeding draws come from per-cell substreams in
// cell order and pre-run grant resolution follows the kernel's
// canonical (time, origin, counter) order, so neither the partition nor
// worker scheduling can perturb it.
func TestRunParallelWarmStartDeterminism(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	base := runWarmParallel(t, g, assign, 7, 1)
	if base.stats.Counters.UpdateAttempts == 0 && base.stats.Counters.GrantsSearch == 0 {
		t.Fatalf("warm-started workload never borrowed — too tame to gate: %+v", base.stats.Counters)
	}
	workers := []int{1, 2, 4, runtime.NumCPU()}
	shards := []int{1, 2, 7, 16}
	for _, sh := range shards {
		for _, wk := range workers {
			if sh == 7 && wk == 1 {
				continue // the baseline itself
			}
			got := runWarmParallel(t, g, assign, sh, wk)
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

// TestRunParallelWarmStartMatchesSerial pins the serial configuration
// (one shard, one worker) to the same warm-started trajectory as 7 and
// 16 shards: equal telephony stats, equal driver stats and equal final
// channel-use sets.
func TestRunParallelWarmStartMatchesSerial(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	serial := runWarmParallel(t, g, assign, 1, 1)
	for _, shards := range []int{7, 16} {
		par := runWarmParallel(t, g, assign, shards, 0)
		if !reflect.DeepEqual(par.traffic, serial.traffic) {
			t.Errorf("shards=%d traffic stats diverged from serial:\n par    %+v\n serial %+v", shards, par.traffic, serial.traffic)
		}
		if !reflect.DeepEqual(par.stats, serial.stats) {
			t.Errorf("shards=%d driver stats diverged from serial", shards)
		}
		if !reflect.DeepEqual(par.use, serial.use) {
			t.Errorf("shards=%d channel-use sets diverged from serial", shards)
		}
	}
}

// TestRunParallelWarmStartOccupancy checks that seeding alone — no
// simulated ticks — puts the grid at its stationary occupancy: after
// PrimeParallel the clock is still 0 and ActiveCalls is within Poisson
// noise of offered-load × cells, capped by the cells' primary
// allocations.
func TestRunParallelWarmStartOccupancy(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
		Latency: 10, Seed: 7, Shards: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := warmSpec(g)
	run, err := traffic.PrimeParallel(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if now := p.Now(0); now != 0 {
		t.Fatalf("priming advanced the clock to %d", now)
	}
	active := p.ActiveCalls()
	var capacity uint64
	for c := 0; c < g.NumCells(); c++ {
		capacity += uint64(assign.Primary[hexgrid.CellID(c)].Len())
	}
	// 49 cells at ~9 Erlang → ~441 expected; only primaries grant
	// synchronously pre-run (σ ≈ 21, hot-cell overflow defers to the
	// borrow protocol), so demand a clear majority of capacity.
	if active < capacity*6/10 || active > capacity {
		t.Fatalf("warm-start active calls = %d, want within [%d, %d]", active, capacity*6/10, capacity)
	}
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	if p.ActiveCalls() != 0 {
		t.Fatalf("%d calls still active after drain", p.ActiveCalls())
	}
}

// TestRunParallelRejectsBadWarmup pins the validation: a negative
// warmup and a warmup that outlives the arrival window are spec bugs,
// not measurement choices.
func TestRunParallelRejectsBadWarmup(t *testing.T) {
	newPar := parFixture(t)
	neg := traffic.Spec{
		Profile: traffic.Uniform{PerCell: 0.001}, MeanHold: 3000,
		Duration: 1000, Warmup: -1, Seed: 1,
	}
	late := traffic.Spec{
		Profile: traffic.Uniform{PerCell: 0.001}, MeanHold: 3000,
		Duration: 1000, Warmup: 1000, Seed: 1,
	}
	for name, spec := range map[string]traffic.Spec{"negative": neg, "late": late} {
		if _, err := traffic.RunParallel(newPar(7, 2), spec); err == nil || !strings.Contains(err.Error(), "Warmup") {
			t.Errorf("%s warmup: want descriptive Warmup error, got %v", name, err)
		}
	}
}
