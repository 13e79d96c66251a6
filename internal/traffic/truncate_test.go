package traffic_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// truncGrid is the truncation suite's grid: 10x10 wrapped reuse-2, big
// enough that the 64-shard point of the invariance matrix is a legal
// partition (shards must not exceed cells).
func truncGrid(t *testing.T) (*hexgrid.Grid, *chanset.Assignment) {
	t.Helper()
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 10, Height: 10, ReuseDistance: 2, Wrap: true})
	return g, chanset.MustAssign(g, 70)
}

// truncSpec is the shared truncation workload: warm-start at capacity
// with a hot zone (so seeded residual holds outlive any short horizon
// and must be force-released) plus mobility (so the windowed handoff
// tallies are exercised). horizon is the DrainHorizon under test.
func truncSpec(g *hexgrid.Grid, horizon sim.Time) traffic.Spec {
	return traffic.Spec{
		Profile:      traffic.NewHotspot(g, g.InteriorCell(), 1, 9.0/3000, 14.0/3000),
		MeanHold:     3000,
		HandoffRate:  0.0005,
		Duration:     4_000,
		Warmup:       500,
		Seed:         7,
		WarmStart:    true,
		DrainHorizon: horizon,
	}
}

// hugeHorizon is a cutoff far past natural quiescence (~tens of
// MeanHolds): the run drains fully before reaching it, so nothing is
// discarded or force-released, yet the tallies use the same
// Warmup..Duration window as any other truncated run — the reference an
// actually-truncating run must match bit for bit.
const hugeHorizon = 400_000

// shortHorizon genuinely truncates: most of the ~3000-tick residual
// holds outlive Duration + 2000, while every request submitted inside
// the window still resolves well within it (protocol slack is a few
// latencies).
const shortHorizon = 2_000

func runTruncParallel(t *testing.T, g *hexgrid.Grid, assign *chanset.Assignment, spec traffic.Spec, shards, workers int) (mobileOutcome, *driver.Parallel) {
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
	ts, err := traffic.RunParallel(p, spec)
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
	return mobileOutcome{stats: p.Stats(), traffic: ts, trace: p.Trace(), use: use}, p
}

// measuredTrace filters a trace to the Warmup..Duration measurement
// window — the part a truncated run must reproduce exactly.
func measuredTrace(evs []trace.Event, spec traffic.Spec) []trace.Event {
	out := make([]trace.Event, 0, len(evs))
	for _, e := range evs {
		if e.At >= spec.Warmup && e.At <= spec.Duration {
			out = append(out, e)
		}
	}
	return out
}

// TestRunParallelTruncatedMatchesFullDrain is the truncation equality
// gate: a genuinely-truncating run (short horizon, most residual holds
// force-released at the cutoff) must produce the identical workload
// stats and the identical measurement-window trace as a run whose
// horizon lies past natural quiescence (nothing truncated) — serially
// (one shard, one worker) and at 7 shards. Mobility and warm-start are
// both on, covering the windowed handoff tallies and the
// seeded-residual force-release path. Equality across shard and worker
// counts is TestRunParallelTruncatedDeterminism's job.
func TestRunParallelTruncatedMatchesFullDrain(t *testing.T) {
	g, assign := truncGrid(t)
	short, full := truncSpec(g, shortHorizon), truncSpec(g, hugeHorizon)

	serShort, simShort := runTruncParallel(t, g, assign, short, 1, 1)
	serFull, _ := runTruncParallel(t, g, assign, full, 1, 1)
	if serShort.traffic.Offered == 0 || serShort.traffic.HandoffAttempts == 0 {
		t.Fatalf("workload too tame: %+v", serShort.traffic)
	}
	if !reflect.DeepEqual(serShort.traffic, serFull.traffic) {
		t.Errorf("serial truncated traffic stats diverged from untruncated:\n trunc %+v\n full  %+v", serShort.traffic, serFull.traffic)
	}
	if !reflect.DeepEqual(measuredTrace(serShort.trace, short), measuredTrace(serFull.trace, full)) {
		t.Error("serial measurement-window traces diverged between truncated and untruncated runs")
	}
	for c, u := range serShort.use {
		if !u.Empty() {
			t.Fatalf("serial truncated run left cell %d holding channels: %v", c, u)
		}
	}
	if simShort.Outstanding() != 0 {
		t.Errorf("serial truncated run left %d requests outstanding", simShort.Outstanding())
	}

	// The offered schedule and the measurement-window trace are also
	// invariant against the legacy full drain (DrainHorizon = 0).
	// Blocked and the handoff counters differ by design there: the
	// legacy tally window never closes, so it includes post-Duration
	// deferral denials and drain-era crossings.
	serLegacy, _ := runTruncParallel(t, g, assign, truncSpec(g, 0), 1, 1)
	if serShort.traffic.Offered != serLegacy.traffic.Offered ||
		!reflect.DeepEqual(serShort.traffic.PerCellOffered, serLegacy.traffic.PerCellOffered) {
		t.Errorf("truncated offered schedule diverged from legacy full drain:\n trunc  %+v\n legacy %+v", serShort.traffic, serLegacy.traffic)
	}
	if !reflect.DeepEqual(measuredTrace(serShort.trace, short), measuredTrace(serLegacy.trace, short)) {
		t.Error("serial measurement-window trace diverged from legacy full drain")
	}

	parShort, pShort := runTruncParallel(t, g, assign, short, 7, 2)
	parFull, _ := runTruncParallel(t, g, assign, full, 7, 2)
	if !reflect.DeepEqual(parShort.traffic, parFull.traffic) {
		t.Errorf("parallel truncated traffic stats diverged from untruncated:\n trunc %+v\n full  %+v", parShort.traffic, parFull.traffic)
	}
	if !reflect.DeepEqual(measuredTrace(parShort.trace, short), measuredTrace(parFull.trace, full)) {
		t.Error("parallel measurement-window traces diverged between truncated and untruncated runs")
	}
	if pShort.ActiveCalls() != 0 {
		t.Errorf("parallel truncated run left %d active calls", pShort.ActiveCalls())
	}
	if pShort.Outstanding() != 0 {
		t.Errorf("parallel truncated run left %d requests outstanding", pShort.Outstanding())
	}

}

// TestRunParallelTruncatedForcedReleaseAtCutoff pins the mechanism the
// equality test relies on: with warm-start residuals outliving the
// short horizon, the truncated trace must contain forced EvRelease
// events at exactly the cutoff tick — and none later — serially and at
// 7 shards.
func TestRunParallelTruncatedForcedReleaseAtCutoff(t *testing.T) {
	g, assign := truncGrid(t)
	spec := truncSpec(g, shortHorizon)
	cutoff := spec.Duration + spec.DrainHorizon

	check := func(driverName string, evs []trace.Event) {
		forced := 0
		for _, e := range evs {
			if e.At > cutoff {
				t.Errorf("%s: trace event after cutoff %d: %+v", driverName, cutoff, e)
			}
			if e.At == cutoff && e.Kind == trace.EvRelease {
				forced++
			}
		}
		if forced == 0 {
			t.Errorf("%s: no forced releases at cutoff %d — workload did not truncate", driverName, cutoff)
		}
	}
	ser, _ := runTruncParallel(t, g, assign, spec, 1, 1)
	check("serial", ser.trace)
	par, _ := runTruncParallel(t, g, assign, spec, 7, 2)
	check("parallel", par.trace)
}

// TestRunParallelTruncatedDeterminism is the truncated counterpart of
// the mobility/warm-start matrices: the truncated trajectory — driver
// stats, workload stats, merged trace (forced releases included) and
// final use sets — must be bit-identical across worker counts {1,2,4}
// and shard counts {1,7,16,64}. The forced sweep is canonical
// (ascending cell, then ascending request id) and runs after every
// shard clock has been parked at the cutoff, so the partition cannot
// perturb it.
func TestRunParallelTruncatedDeterminism(t *testing.T) {
	g, assign := truncGrid(t)
	spec := truncSpec(g, shortHorizon)
	base, _ := runTruncParallel(t, g, assign, spec, 7, 1)
	if base.traffic.HandoffAttempts == 0 {
		t.Fatalf("workload too tame to exercise handoffs: %+v", base.traffic)
	}
	for _, sh := range []int{1, 7, 16, 64} {
		for _, wk := range []int{1, 2, 4} {
			if sh == 7 && wk == 1 {
				continue // the baseline itself
			}
			got, _ := runTruncParallel(t, g, assign, spec, sh, wk)
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

// TestRunParallelRejectsNegativeDrainHorizon pins the validation: a
// negative horizon is a spec bug, with a descriptive error naming the
// field.
func TestRunParallelRejectsNegativeDrainHorizon(t *testing.T) {
	newPar := parFixture(t)
	spec := traffic.Spec{
		Profile: traffic.Uniform{PerCell: 0.001}, MeanHold: 3000,
		Duration: 1000, Seed: 1, DrainHorizon: -1,
	}
	if _, err := traffic.RunParallel(newPar(7, 2), spec); err == nil || !strings.Contains(err.Error(), "DrainHorizon") {
		t.Errorf("want descriptive DrainHorizon error, got %v", err)
	}
}
