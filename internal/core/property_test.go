package core_test

// Property-based scenario exploration: testing/quick draws random
// topologies, spectrum sizes, loads and seeds; safety (Theorem 1,
// checked on every grant by the driver) and liveness (every request
// completes, all channels return after release) must hold for all of
// them. This is the randomized counterpart of the hand-written
// interleaving tests.

import (
	"testing"
	"testing/quick"

	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

func TestRandomScenarioProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property exploration skipped in -short")
	}
	f := func(seed uint64, gridSel, chanSel, loadSel uint8) bool {
		grids := []hexgrid.Config{
			{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true},
			{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 1, Wrap: true},
			{Shape: hexgrid.Hexagon, Radius: 2, ReuseDistance: 2},
			{Shape: hexgrid.Hexagon, Radius: 3, ReuseDistance: 3},
			{Shape: hexgrid.Rect, Width: 6, Height: 9, ReuseDistance: 2},
		}
		gcfg := grids[int(gridSel)%len(grids)]
		// Spectrum from scarce to plentiful (at least ~2 per color).
		channels := []int{21, 28, 42, 70}[int(chanSel)%4]
		if gcfg.ReuseDistance == 3 {
			channels += 13 // cluster size 13 needs more channels
		}
		// Load from trickle to overload.
		meanGap := []float64{120, 40, 15}[int(loadSel)%3]

		g, err := hexgrid.New(gcfg)
		if err != nil {
			t.Logf("grid: %v", err)
			return false
		}
		s := newSim(t, gcfg, channels, driver.ParallelOptions{Seed: seed}, nil)
		rng := sim.NewRand(seed ^ 0xabcdef)
		completed, submitted := 0, 0
		at := sim.Time(0)
		for i := 0; i < 120; i++ {
			at += rng.ExpTicks(meanGap)
			cell := hexgrid.CellID(rng.Intn(g.NumCells()))
			hold := rng.ExpTicks(2500)
			submitted++
			s.At(cell, at, func() {
				s.Request(cell, func(r driver.Result) {
					completed++
					if r.Granted {
						s.After(r.Cell, hold, func() { s.Release(r.Cell, r.Ch) })
					}
				})
			})
		}
		if !s.Drain(100_000_000) {
			t.Logf("no quiescence: %+v", gcfg)
			return false
		}
		if completed != submitted {
			t.Logf("liveness: %d of %d (%+v)", completed, submitted, gcfg)
			return false
		}
		if err := s.CheckInvariant(); err != nil {
			t.Logf("safety: %v", err)
			return false
		}
		for c := 0; c < g.NumCells(); c++ {
			if !s.Allocator(hexgrid.CellID(c)).InUse().Empty() {
				t.Logf("leak at cell %d", c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
