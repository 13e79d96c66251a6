package core_test

import (
	"testing"

	"repro/internal/chanset"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

// benchSim builds a wired adaptive scenario without test assertions.
func benchSim(b *testing.B, channels int) *driver.Parallel {
	b.Helper()
	g, err := hexgrid.New(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	if err != nil {
		b.Fatal(err)
	}
	assign, err := chanset.Assign(g, channels)
	if err != nil {
		b.Fatal(err)
	}
	f, err := core.NewFactory(g, assign, core.DefaultParams(10))
	if err != nil {
		b.Fatal(err)
	}
	s, err := driver.NewParallel(g, assign, f, driver.ParallelOptions{Latency: 10, Seed: 1, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkLocalGrant measures the zero-message local acquisition path
// (request + grant + release round trip on one station).
func BenchmarkLocalGrant(b *testing.B) {
	s := benchSim(b, 70)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ch chanset.Channel
		s.Request(3, func(r driver.Result) { ch = r.Ch })
		s.Drain(64)
		s.Release(3, ch)
		s.Drain(64)
	}
}

// BenchmarkBorrowGrant measures the borrowing-update path: the target
// cell's primaries are pre-exhausted, so every iteration runs a full
// permission round across the 18-cell interference region.
func BenchmarkBorrowGrant(b *testing.B) {
	s := benchSim(b, 70)
	cell := s.Grid().InteriorCell()
	prim := s.Assignment().Primary[cell].Len()
	for i := 0; i < prim; i++ {
		s.Request(cell, nil)
	}
	s.Drain(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		granted := chanset.NoChannel
		s.Request(cell, func(r driver.Result) { granted = r.Ch })
		s.Drain(100000)
		if granted == chanset.NoChannel {
			b.Fatal("borrow failed")
		}
		s.Release(cell, granted)
		s.Drain(100000)
	}
}

// BenchmarkSaturatedNeighborhood measures protocol throughput with the
// whole interference region contending over a small spectrum.
func BenchmarkSaturatedNeighborhood(b *testing.B) {
	s := benchSim(b, 21)
	cell := s.Grid().InteriorCell()
	targets := append([]hexgrid.CellID{cell}, s.Grid().Interference(cell)...)
	rng := sim.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := targets[rng.Intn(len(targets))]
		s.Request(c, func(r driver.Result) {
			if r.Granted {
				s.After(r.Cell, 200, func() { s.Release(r.Cell, r.Ch) })
			}
		})
		if i%16 == 15 {
			s.Drain(1_000_000)
		}
	}
	s.Drain(10_000_000)
}
