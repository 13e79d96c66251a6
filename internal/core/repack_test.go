package core_test

// Tests for the repacking extension (Params.Repack): a freed primary
// absorbs a borrowed call; the runtime's release-forwarding keeps caller
// bookkeeping coherent; safety is unaffected.

import (
	"testing"

	"repro/internal/chanset"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

func repackSim(t *testing.T, repack bool, seed uint64) *driver.Parallel {
	t.Helper()
	p := core.DefaultParams(10)
	p.Repack = repack
	return newSim(t, smallGrid(), 70, driver.ParallelOptions{Seed: seed}, &p)
}

func TestRepackMovesBorrowedCallToFreedPrimary(t *testing.T) {
	s := repackSim(t, true, 1)
	cell := s.Grid().InteriorCell()
	prim := s.Assignment().Primary[cell].Len()
	var chans []chanset.Channel
	for i := 0; i < prim+2; i++ {
		s.Request(cell, func(r driver.Result) {
			if r.Granted {
				chans = append(chans, r.Ch)
			}
		})
	}
	s.Drain(5_000_000)
	if len(chans) != prim+2 {
		t.Fatalf("setup: %d grants", len(chans))
	}
	// Two borrowed channels are in use. Release one PRIMARY call: the
	// repacker should keep the primary busy and free a borrowed channel.
	s.Release(cell, chans[0]) // chans[0] is a primary (granted first)
	s.Drain(5_000_000)
	use := s.Allocator(cell).InUse()
	if !use.Contains(chans[0]) {
		t.Fatal("freed primary should have been reoccupied by a borrowed call")
	}
	borrowedInUse := chanset.Subtract(use, s.Assignment().Primary[cell])
	if borrowedInUse.Len() != 1 {
		t.Fatalf("one borrowed channel should have been returned, still using %v", borrowedInUse)
	}
	// Releasing the MOVED call by its original channel id must work:
	// the driver forwards it to the occupied primary — which then gets
	// repacked AGAIN with the last borrowed call. Net effect: two of
	// prim+2 calls ended, so exactly the prim primaries remain in use
	// and no borrowed channel is held.
	moved := chanset.Subtract(chanset.SetOf(chans[prim], chans[prim+1]), borrowedInUse).First()
	s.Release(cell, moved)
	s.Drain(5_000_000)
	use = s.Allocator(cell).InUse()
	if !use.Equal(s.Assignment().Primary[cell]) {
		t.Fatalf("after cascaded repacks exactly the primaries should be busy, got %v", use)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// Release the remaining prim calls through their original ids; the
	// ledger must drain the cell completely.
	s.Release(cell, borrowedInUse.First()) // second moved call
	for i := 1; i < prim; i++ {
		s.Release(cell, chans[i])
	}
	s.Drain(5_000_000)
	if got := s.Allocator(cell).InUse(); !got.Empty() {
		t.Fatalf("cell should be idle, holds %v", got)
	}
}

func TestRepackDisabledKeepsPaperSemantics(t *testing.T) {
	s := repackSim(t, false, 2)
	cell := s.Grid().InteriorCell()
	prim := s.Assignment().Primary[cell].Len()
	var chans []chanset.Channel
	for i := 0; i < prim+1; i++ {
		s.Request(cell, func(r driver.Result) {
			if r.Granted {
				chans = append(chans, r.Ch)
			}
		})
	}
	s.Drain(5_000_000)
	s.Release(cell, chans[0])
	s.Drain(5_000_000)
	if s.Allocator(cell).InUse().Contains(chans[0]) {
		t.Fatal("without repacking the freed primary must stay free")
	}
}

func TestRepackFullWorkloadSafeAndComplete(t *testing.T) {
	// The standard random battery with repacking on: safety, liveness
	// and clean drain must all hold with channel moves in the mix.
	p := core.DefaultParams(10)
	p.Repack = true
	s := newSim(t, smallGrid(), 21, driver.ParallelOptions{Seed: 3}, &p)
	rng := sim.NewRand(77)
	completed, submitted := 0, 0
	for i := 0; i < 400; i++ {
		cell := hexgrid.CellID(rng.Intn(s.Grid().NumCells()))
		gap := rng.ExpTicks(25)
		hold := rng.ExpTicks(4000)
		submitted++
		s.At(cell, sim.Time(i)*30+gap, func() {
			s.Request(cell, func(r driver.Result) {
				completed++
				if r.Granted {
					s.After(r.Cell, hold, func() { s.Release(r.Cell, r.Ch) })
				}
			})
		})
	}
	if !s.Drain(100_000_000) {
		t.Fatal("no quiescence")
	}
	if completed != submitted {
		t.Fatalf("completed %d of %d", completed, submitted)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < s.Grid().NumCells(); c++ {
		if use := s.Allocator(hexgrid.CellID(c)).InUse(); !use.Empty() {
			t.Fatalf("cell %d leaked %v", c, use)
		}
	}
}
