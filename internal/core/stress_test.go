package core_test

import (
	"testing"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

// randomWorkload drives a seeded random request/release mix and verifies
// the two theorems: no interference (driver checks each grant) and no
// wedging (everything completes).
func randomWorkload(t *testing.T, seed uint64, gcfg hexgrid.Config, channels, events int, meanHold sim.Time) {
	t.Helper()
	s := newSim(t, gcfg, channels, driver.ParallelOptions{Seed: seed}, nil)
	rng := sim.NewRand(seed)
	n := s.Grid().NumCells()
	completed := 0
	submitted := 0
	var release func(cell hexgrid.CellID, ch chanset.Channel)
	release = func(cell hexgrid.CellID, ch chanset.Channel) {
		s.Release(cell, ch)
	}
	at := sim.Time(0)
	for i := 0; i < events; i++ {
		at += rng.ExpTicks(30)
		cell := hexgrid.CellID(rng.Intn(n))
		hold := rng.ExpTicks(float64(meanHold))
		submitted++
		func(cell hexgrid.CellID, at sim.Time, hold sim.Time) {
			s.At(cell, at, func() {
				s.Request(cell, func(r driver.Result) {
					completed++
					if r.Granted {
						s.After(r.Cell, hold, func() { release(r.Cell, r.Ch) })
					}
				})
			})
		}(cell, at, hold)
	}
	if !s.Drain(50_000_000) {
		t.Fatal("simulation did not quiesce")
	}
	if completed != submitted {
		t.Fatalf("completed %d of %d requests — liveness violated", completed, submitted)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// After quiescence every channel held must belong to a granted,
	// unreleased call — here everything was released, so all cells idle.
	for i := 0; i < n; i++ {
		if inUse := s.Allocator(hexgrid.CellID(i)).InUse(); !inUse.Empty() {
			// Some calls may still legitimately hold channels if their
			// release landed after Drain... but we drained to empty, so
			// every release ran.
			t.Fatalf("cell %d still holds %v after quiescence", i, inUse)
		}
	}
}

func TestRandomWorkloadSafetyLivenessModerate(t *testing.T) {
	randomWorkload(t, 1001,
		hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true},
		70, 600, 2000)
}

func TestRandomWorkloadSafetyLivenessOverload(t *testing.T) {
	// Tiny spectrum: constant saturation, heavy borrowing and drops.
	randomWorkload(t, 1002,
		hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true},
		21, 600, 5000)
}

func TestRandomWorkloadReuseDistanceOne(t *testing.T) {
	randomWorkload(t, 1003,
		hexgrid.Config{Shape: hexgrid.Rect, Width: 9, Height: 9, ReuseDistance: 1, Wrap: true},
		30, 500, 3000)
}

func TestRandomWorkloadUnwrappedBoundary(t *testing.T) {
	// Boundary cells have asymmetric neighborhoods — a classic source of
	// protocol bugs.
	randomWorkload(t, 1004,
		hexgrid.Config{Shape: hexgrid.Hexagon, Radius: 3, ReuseDistance: 2},
		35, 500, 2500)
}

func TestRandomWorkloadManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed stress skipped in -short")
	}
	for seed := uint64(1); seed <= 8; seed++ {
		randomWorkload(t, seed,
			hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true},
			28, 300, 4000)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		s := newSim(t, smallGrid(), 35, driver.ParallelOptions{Seed: 42}, nil)
		rng := sim.NewRand(99)
		at := sim.Time(0)
		for i := 0; i < 300; i++ {
			at += rng.ExpTicks(20)
			cell := hexgrid.CellID(rng.Intn(s.Grid().NumCells()))
			hold := rng.ExpTicks(3000)
			s.At(cell, at, func() {
				s.Request(cell, func(r driver.Result) {
					if r.Granted {
						s.After(r.Cell, hold, func() { s.Release(r.Cell, r.Ch) })
					}
				})
			})
		}
		s.Drain(50_000_000)
		st := s.Stats()
		return st.Grants, st.Denies, st.Messages.Total
	}
	g1, d1, m1 := run()
	g2, d2, m2 := run()
	if g1 != g2 || d1 != d2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", g1, d1, m1, g2, d2, m2)
	}
}

func TestNoModeFlappingUnderSteadyLoad(t *testing.T) {
	// Hysteresis claim of §3.5: θ_l < θ_h prevents oscillation. Hold a
	// steady load just around the borrowing threshold and count mode
	// changes.
	s := newSim(t, smallGrid(), 70, driver.ParallelOptions{Seed: 77}, nil)
	cell := s.Grid().InteriorCell()
	prim := s.Assignment().Primary[cell].Len()
	// Occupy all but one primary, then run a slow steady churn of one
	// extra call arriving/leaving.
	var held []chanset.Channel
	for i := 0; i < prim-1; i++ {
		s.Request(cell, func(r driver.Result) { held = append(held, r.Ch) })
	}
	s.Drain(1_000_000)
	for i := 0; i < 50; i++ {
		at := sim.Time(10_000 + i*4000)
		s.At(cell, at, func() {
			s.Request(cell, func(r driver.Result) {
				if r.Granted {
					s.After(r.Cell, 2000, func() { s.Release(r.Cell, r.Ch) })
				}
			})
		})
	}
	s.Drain(50_000_000)
	st := s.Stats()
	if st.Counters.ModeChanges > 30 {
		t.Fatalf("mode flapping: %d transitions for 50 churn cycles", st.Counters.ModeChanges)
	}
}

// TestInterferenceInvariantEveryStep walks a hot scenario one tick at a
// time, checking the whole grid after every tick — on top of the check
// of the granting cell inside every grant event. Much stronger than
// checking at grants only.
func TestInterferenceInvariantEveryStep(t *testing.T) {
	s := newSim(t, smallGrid(), 21, driver.ParallelOptions{Seed: 5150}, nil)
	cell := s.Grid().InteriorCell()
	targets := append([]hexgrid.CellID{cell}, s.Grid().Interference(cell)...)
	rng := sim.NewRand(7)
	for i := 0; i < 60; i++ {
		c := targets[rng.Intn(len(targets))]
		at := sim.Time(rng.Intn(2000))
		s.At(c, at, func() {
			s.Request(c, func(r driver.Result) {
				if r.Granted {
					s.After(r.Cell, sim.Time(500+rng.Intn(3000)), func() { s.Release(r.Cell, r.Ch) })
				}
			})
		})
	}
	for now := sim.Time(0); s.Kernel().Pending() > 0; now++ {
		if now > 2_000_000 {
			t.Fatal("no quiescence")
		}
		s.Run(now)
		if err := s.CheckInvariant(); err != nil {
			t.Fatalf("at tick %d: %v", now, err)
		}
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding: %d", s.Outstanding())
	}
}
