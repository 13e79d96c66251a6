package core_test

// Targeted liveness (Theorem 2) scenarios: deferral chains resolve in
// timestamp order, retried requests keep their priority, and saturated
// systems drain completely once load stops.

import (
	"testing"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

// fullyInterfering builds a 7-cell clique (hexagon radius 1, reuse 2).
func fullyInterfering(t *testing.T, channels int, seed uint64) *driver.Parallel {
	t.Helper()
	return newSim(t, hexgrid.Config{Shape: hexgrid.Hexagon, Radius: 1, ReuseDistance: 2},
		channels, driver.ParallelOptions{Seed: seed}, nil)
}

func TestSimultaneousSearchChainResolves(t *testing.T) {
	// All 7 cells fire at the same instant with only 7 channels: the
	// search deferral chain is as deep as it can get, yet every request
	// must complete and exactly 7 grants are possible.
	s := fullyInterfering(t, 7, 1)
	grants, denies := 0, 0
	for c := 0; c < 7; c++ {
		cell := hexgrid.CellID(c)
		// Two requests per cell: 14 total against 7 channels.
		for k := 0; k < 2; k++ {
			s.Request(cell, func(r driver.Result) {
				if r.Granted {
					grants++
				} else {
					denies++
				}
			})
		}
	}
	if !s.Drain(10_000_000) {
		t.Fatal("no quiescence")
	}
	if grants+denies != 14 {
		t.Fatalf("completed %d of 14", grants+denies)
	}
	if grants != 7 {
		t.Fatalf("exactly the 7 channels must be granted, got %d", grants)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestSaturationDrainsAfterLoadStops(t *testing.T) {
	// Saturate, then release everything: the system must return to a
	// fully idle state (all channels free, every station back in local
	// mode eventually reachable).
	s := fullyInterfering(t, 7, 2)
	var held []struct {
		cell hexgrid.CellID
		ch   chanset.Channel
	}
	for round := 0; round < 3; round++ {
		for c := 0; c < 7; c++ {
			cell := hexgrid.CellID(c)
			s.Request(cell, func(r driver.Result) {
				if r.Granted {
					held = append(held, struct {
						cell hexgrid.CellID
						ch   chanset.Channel
					}{r.Cell, r.Ch})
				}
			})
		}
	}
	s.Drain(10_000_000)
	if len(held) != 7 {
		t.Fatalf("expected all 7 channels held, got %d", len(held))
	}
	for _, h := range held {
		s.Release(h.cell, h.ch)
	}
	if !s.Drain(10_000_000) {
		t.Fatal("release storm did not quiesce")
	}
	for c := 0; c < 7; c++ {
		if use := s.Allocator(hexgrid.CellID(c)).InUse(); !use.Empty() {
			t.Fatalf("cell %d still holds %v", c, use)
		}
	}
	// The freed system must serve a fresh burst again, in full.
	grants := 0
	for c := 0; c < 7; c++ {
		s.Request(hexgrid.CellID(c), func(r driver.Result) {
			if r.Granted {
				grants++
			}
		})
	}
	s.Drain(10_000_000)
	if grants != 7 {
		t.Fatalf("drained system must serve a full burst, granted %d", grants)
	}
}

func TestStaggeredArrivalsUnderContention(t *testing.T) {
	// Requests arrive one tick apart at every cell of the clique —
	// maximal overlap between quiescence waits, deferrals and retries.
	s := fullyInterfering(t, 7, 3)
	completed := 0
	const total = 21
	for i := 0; i < total; i++ {
		cell := hexgrid.CellID(i % 7)
		at := sim.Time(i)
		s.At(cell, at, func() {
			s.Request(cell, func(r driver.Result) {
				completed++
				if r.Granted {
					s.After(r.Cell, 300, func() { s.Release(r.Cell, r.Ch) })
				}
			})
		})
	}
	if !s.Drain(50_000_000) {
		t.Fatal("no quiescence")
	}
	if completed != total {
		t.Fatalf("completed %d of %d — a deferral chain wedged", completed, total)
	}
	if s.Stalled(1) {
		t.Fatal("watchdog reports a stall")
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestNoStarvationUnderChurn(t *testing.T) {
	// One cell keeps requesting while its whole neighborhood churns;
	// with bounded α the victim must keep completing (grant or deny),
	// never wait unboundedly (the update-scheme starvation the paper
	// contrasts against).
	s := newSim(t, smallGrid(), 21, driver.ParallelOptions{Seed: 4}, nil)
	victim := s.Grid().InteriorCell()
	rng := sim.NewRand(9)
	// Churn: neighbors request/release constantly.
	for i := 0; i < 300; i++ {
		j := s.Grid().Interference(victim)[rng.Intn(18)]
		at := sim.Time(rng.Intn(60_000))
		s.At(j, at, func() {
			s.Request(j, func(r driver.Result) {
				if r.Granted {
					s.After(r.Cell, rng.ExpTicks(2000), func() { s.Release(r.Cell, r.Ch) })
				}
			})
		})
	}
	// Victim: one request every 2000 ticks; record completion delays.
	victimDone := 0
	var worst sim.Time
	for i := 0; i < 30; i++ {
		at := sim.Time(i * 2000)
		s.At(victim, at, func() {
			s.Request(victim, func(r driver.Result) {
				victimDone++
				if d := r.TotalDelay(); d > worst {
					worst = d
				}
				if r.Granted {
					s.After(r.Cell, 1000, func() { s.Release(r.Cell, r.Ch) })
				}
			})
		})
	}
	if !s.Drain(100_000_000) {
		t.Fatal("no quiescence")
	}
	if victimDone != 30 {
		t.Fatalf("victim completed %d of 30 — starvation", victimDone)
	}
	// Bounded time: the paper's Table 3 bound is (2α+N+1)T = (6+18+1)*10
	// ticks of protocol time; allow queueing behind one more request.
	if worst > 3*(2*3+18+1)*10 {
		t.Fatalf("victim's worst completion took %d ticks — unbounded-looking", worst)
	}
}
