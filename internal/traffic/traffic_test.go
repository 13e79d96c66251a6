package traffic

import (
	"math"
	"strings"
	"testing"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/registry"
	"repro/internal/sim"
)

// buildSim wires scheme on the default 7x7 lattice on one shard, with
// Theorem 1 checked on every grant.
func buildSim(t *testing.T, scheme string, channels int, seed uint64) *driver.Parallel {
	t.Helper()
	g, err := hexgrid.New(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := chanset.Assign(g, channels)
	if err != nil {
		t.Fatal(err)
	}
	f, err := registry.Build(scheme, g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := driver.NewParallel(g, assign, f, driver.ParallelOptions{Latency: 10, Seed: seed, Check: true, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestUniformProfile(t *testing.T) {
	u := Uniform{PerCell: 0.5}
	if u.Rate(3, 100) != 0.5 || u.MaxRate(3) != 0.5 {
		t.Fatal("uniform profile broken")
	}
}

func TestHotspotProfileWindows(t *testing.T) {
	h := Hotspot{Base: 0.1, Hot: 2, Cells: map[hexgrid.CellID]bool{5: true}, Start: 100, End: 200}
	if h.Rate(5, 50) != 0.1 {
		t.Error("before start must be base")
	}
	if h.Rate(5, 150) != 2 {
		t.Error("inside window must be hot")
	}
	if h.Rate(5, 200) != 0.1 {
		t.Error("after end must be base")
	}
	if h.Rate(6, 150) != 0.1 {
		t.Error("cold cell must be base")
	}
	if h.MaxRate(5) != 2 || h.MaxRate(6) != 0.1 {
		t.Error("MaxRate wrong")
	}
	forever := Hotspot{Base: 0.1, Hot: 2, Cells: map[hexgrid.CellID]bool{5: true}}
	if forever.Rate(5, 1e9) != 2 {
		t.Error("zero End means forever")
	}
}

func TestNewHotspotRadius(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	center := g.InteriorCell()
	h := NewHotspot(g, center, 1, 0.1, 1)
	if len(h.Cells) != 7 {
		t.Fatalf("radius-1 hotspot should cover 7 cells, got %d", len(h.Cells))
	}
	h0 := NewHotspot(g, center, 0, 0.1, 1)
	if len(h0.Cells) != 1 {
		t.Fatalf("radius-0 hotspot should cover 1 cell, got %d", len(h0.Cells))
	}
}

func TestRampProfile(t *testing.T) {
	r := Ramp{From: 0, To: 10, Start: 100, End: 200}
	if r.Rate(0, 0) != 0 || r.Rate(0, 100) != 0 {
		t.Error("before ramp")
	}
	if got := r.Rate(0, 150); math.Abs(got-5) > 1e-9 {
		t.Errorf("midpoint = %v", got)
	}
	if r.Rate(0, 500) != 10 {
		t.Error("after ramp")
	}
	if r.MaxRate(0) != 10 {
		t.Error("MaxRate")
	}
	down := Ramp{From: 8, To: 2, Start: 0, End: 10}
	if down.MaxRate(0) != 8 {
		t.Error("down-ramp MaxRate")
	}
}

func TestMovingHotspot(t *testing.T) {
	m := MovingHotspot{Base: 0.1, Hot: 3, Path: []hexgrid.CellID{1, 2, 3}, Dwell: 100}
	if m.Rate(1, 50) != 3 || m.Rate(2, 50) != 0.1 {
		t.Error("first dwell")
	}
	if m.Rate(2, 150) != 3 || m.Rate(1, 150) != 0.1 {
		t.Error("second dwell")
	}
	if m.Rate(1, 350) != 3 {
		t.Error("wraps around path")
	}
	if m.MaxRate(2) != 3 || m.MaxRate(9) != 0.1 {
		t.Error("MaxRate")
	}
	empty := MovingHotspot{Base: 0.1, Hot: 3}
	if empty.Rate(1, 0) != 0.1 {
		t.Error("empty path is all base")
	}
}

func TestScheduleProfile(t *testing.T) {
	s := Schedule{
		Base: Uniform{PerCell: 0.1},
		Episodes: []Episode{
			{Cells: map[hexgrid.CellID]bool{3: true}, Rate: 2, Start: 100, End: 200},
			{Cells: map[hexgrid.CellID]bool{3: true, 4: true}, Rate: 1, Start: 150, End: 300},
		},
	}
	if s.Rate(3, 50) != 0.1 {
		t.Error("before any episode must be base")
	}
	if s.Rate(3, 150) != 2 {
		t.Error("overlapping episodes compose by max")
	}
	if s.Rate(3, 199) != 2 || s.Rate(3, 200) != 1 {
		t.Error("episode End is exclusive")
	}
	if s.Rate(4, 150) != 1 || s.Rate(4, 100) != 0.1 {
		t.Error("second episode window")
	}
	if s.Rate(5, 150) != 0.1 {
		t.Error("uncovered cell must be base")
	}
	if s.MaxRate(3) != 2 || s.MaxRate(4) != 1 || s.MaxRate(5) != 0.1 {
		t.Error("MaxRate must bound the hottest covering episode")
	}
	weak := Schedule{
		Base:     Uniform{PerCell: 5},
		Episodes: []Episode{{Cells: map[hexgrid.CellID]bool{3: true}, Rate: 1, Start: 0, End: 100}},
	}
	if weak.Rate(3, 50) != 5 || weak.MaxRate(3) != 5 {
		t.Error("an episode colder than the base must not lower the rate")
	}
}

func TestDiurnalProfile(t *testing.T) {
	d := Diurnal{Base: Uniform{PerCell: 1}, Swing: 0.5, Period: 400}
	if got := d.Rate(0, 0); math.Abs(got-1) > 1e-9 {
		t.Errorf("cycle start must be the base rate, got %v", got)
	}
	if got := d.Rate(0, 100); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("quarter period must be the peak 1+Swing, got %v", got)
	}
	if got := d.Rate(0, 300); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("three-quarter period must be the trough 1-Swing, got %v", got)
	}
	if got := d.MaxRate(0); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("MaxRate must be base*(1+Swing), got %v", got)
	}
	flat := Diurnal{Base: Uniform{PerCell: 1}}
	if flat.Rate(0, 100) != 1 || flat.MaxRate(0) != 1 {
		t.Error("zero swing must be the identity")
	}
}

func TestBuildProfile(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	center := g.InteriorCell()
	p, err := BuildProfile(g, ProfileSpec{
		BaseRate: 0.001,
		Hotspot:  &HotspotSpec{Center: center, Radius: 0, Rate: 0.01},
		Phases:   []PhaseSpec{{Center: 0, Radius: 0, Rate: 0.02, Start: 100, End: 200}},
		Diurnal:  &DiurnalSpec{Swing: 0.5, Period: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	// At the diurnal peak (t=100, quarter period) the phase cell runs at
	// 0.02*(1.5), the hotspot at 0.01*(1.5), everyone else at 0.001*(1.5).
	if got := p.Rate(0, 100); math.Abs(got-0.03) > 1e-9 {
		t.Errorf("phase cell at diurnal peak = %v, want 0.03", got)
	}
	if got := p.Rate(center, 100); math.Abs(got-0.015) > 1e-9 {
		t.Errorf("hotspot cell at diurnal peak = %v, want 0.015", got)
	}
	if got := p.Rate(1, 0); math.Abs(got-0.001) > 1e-9 {
		t.Errorf("cold cell at cycle start = %v, want base", got)
	}
	if got := p.MaxRate(0); math.Abs(got-0.03) > 1e-9 {
		t.Errorf("MaxRate(phase cell) = %v, want 0.03", got)
	}

	bad := []ProfileSpec{
		{BaseRate: -1},
		{BaseRate: 0.001, Hotspot: &HotspotSpec{Center: hexgrid.CellID(g.NumCells()), Rate: 0.01}},
		{BaseRate: 0.001, Hotspot: &HotspotSpec{Center: 0, Radius: -1, Rate: 0.01}},
		{BaseRate: 0.001, Hotspot: &HotspotSpec{Center: 0, Rate: -0.01}},
		{BaseRate: 0.001, Phases: []PhaseSpec{{Center: 0, Rate: 0.01, Start: 200, End: 200}}},
		{BaseRate: 0.001, Phases: []PhaseSpec{{Center: 0, Rate: 0.01, Start: -5, End: 100}}},
		{BaseRate: 0.001, Diurnal: &DiurnalSpec{Swing: 1.5, Period: 400}},
		{BaseRate: 0.001, Diurnal: &DiurnalSpec{Swing: 0.5, Period: 0}},
	}
	for i, spec := range bad {
		if _, err := BuildProfile(g, spec); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	s := buildSim(t, "fixed", 35, 1)
	if _, err := RunParallel(s, Spec{}); err == nil {
		t.Fatal("empty spec must be rejected")
	}
}

func TestRunRejectsNegativeHandoffRate(t *testing.T) {
	s := buildSim(t, "fixed", 35, 1)
	_, err := RunParallel(s, Spec{
		Profile:     Uniform{PerCell: 0.001},
		MeanHold:    1000,
		Duration:    1000,
		HandoffRate: -0.001,
	})
	if err == nil || !strings.Contains(err.Error(), "HandoffRate") {
		t.Fatalf("want descriptive HandoffRate error, got %v", err)
	}
}

func TestRunUniformLowLoadFewBlocks(t *testing.T) {
	s := buildSim(t, "adaptive", 70, 2)
	// Offered load per cell: rate * hold = 0.0002 * 5000 = 1 Erlang
	// against ~10 primaries — negligible blocking.
	st, err := RunParallel(s, Spec{
		Profile:  Uniform{PerCell: 0.0002},
		MeanHold: 5000,
		Duration: 200_000,
		Warmup:   20_000,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Offered < 500 {
		t.Fatalf("offered only %d calls — generator too slow", st.Offered)
	}
	if bp := st.BlockingProbability(); bp > 0.01 {
		t.Fatalf("low-load blocking %v too high", bp)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestRunHighLoadBlocksFixed(t *testing.T) {
	s := buildSim(t, "fixed", 35, 3)
	// ~4 Erlang per cell against 5 primaries → visible Erlang-B blocking.
	st, err := RunParallel(s, Spec{
		Profile:  Uniform{PerCell: 0.001},
		MeanHold: 4000,
		Duration: 150_000,
		Warmup:   15_000,
		Seed:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bp := st.BlockingProbability(); bp < 0.05 {
		t.Fatalf("expected visible blocking at 4 Erlang over 5 channels, got %v", bp)
	}
}

func TestArrivalRateMatchesProfile(t *testing.T) {
	s := buildSim(t, "fixed", 35, 4)
	const rate, duration = 0.001, 300_000.0
	st, err := RunParallel(s, Spec{
		Profile:  Uniform{PerCell: rate},
		MeanHold: 100, // short calls: blocking-free counting
		Duration: sim.Time(duration),
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := rate * duration * 49 // 49 cells
	got := float64(st.Offered)
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("offered %v, want ~%v", got, want)
	}
}

func TestHotspotConcentratesLoad(t *testing.T) {
	s := buildSim(t, "adaptive", 70, 5)
	center := s.Grid().InteriorCell()
	st, err := RunParallel(s, Spec{
		Profile:  NewHotspot(s.Grid(), center, 0, 0.00005, 0.002),
		MeanHold: 3000,
		Duration: 150_000,
		Seed:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	hot := st.PerCellOffered[center]
	var rest, cold uint64
	for i, o := range st.PerCellOffered {
		if hexgrid.CellID(i) != center {
			rest += o
			cold++
		}
	}
	avgCold := float64(rest) / float64(cold)
	if float64(hot) < 10*avgCold {
		t.Fatalf("hotspot cell offered %d, cold average %v — not concentrated", hot, avgCold)
	}
}

// TestHandoffsCountedByEventTime pins the warmup semantics of the
// handoff counters: like Offered and Blocked, crossings and drops are
// gated on the time of the event itself, not on when the call was
// admitted. Every call here is born before Warmup (the profile ramps to
// zero before warmup ends), yet their post-warmup crossings must be
// counted — the old per-call `measured` flag froze the decision at
// birth and reported zero.
func TestHandoffsCountedByEventTime(t *testing.T) {
	s := buildSim(t, "adaptive", 70, 12)
	st, err := RunParallel(s, Spec{
		// Arrivals stop at 10_000, before warmup ends at 12_000.
		Profile:     Ramp{From: 0.0005, To: 0, Start: 10_000, End: 10_001},
		MeanHold:    30_000, // calls outlive the warmup boundary
		HandoffRate: 0.0005, // a crossing every ~2000 ticks
		Duration:    60_000,
		Warmup:      12_000,
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Offered != 0 {
		t.Fatalf("every arrival predates warmup, yet Offered = %d", st.Offered)
	}
	if st.HandoffAttempts == 0 {
		t.Fatal("post-warmup crossings of pre-warmup calls were not counted")
	}
}

func TestHandoffsHappenAndAreCounted(t *testing.T) {
	s := buildSim(t, "adaptive", 70, 6)
	st, err := RunParallel(s, Spec{
		Profile:     Uniform{PerCell: 0.0002},
		MeanHold:    5000,
		HandoffRate: 0.0005, // expect ~2.5 handoffs per call
		Duration:    100_000,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.HandoffAttempts == 0 {
		t.Fatal("no handoffs generated")
	}
	if st.HandoffAttempts < st.Offered {
		t.Fatalf("expected > 1 handoff per call on average: %d attempts for %d calls",
			st.HandoffAttempts, st.Offered)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestGrantRatiosAndWarmup(t *testing.T) {
	st := Stats{
		Offered: 10, Blocked: 5,
		PerCellOffered: []uint64{10, 0, 4},
		PerCellBlocked: []uint64{5, 0, 1},
	}
	r := st.GrantRatios()
	if r[0] != 0.5 || r[1] != 1 || r[2] != 0.75 {
		t.Fatalf("ratios = %v", r)
	}
	if st.BlockingProbability() != 0.5 {
		t.Fatal("blocking probability")
	}
	if (Stats{}).BlockingProbability() != 0 || (Stats{}).HandoffDropProbability() != 0 {
		t.Fatal("empty stats must not divide by zero")
	}
}
