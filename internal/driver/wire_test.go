package driver_test

import (
	"testing"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/registry"
	"repro/internal/sim"
)

// TestWireModeAllSchemes routes every control message of every scheme
// through the binary codec under a contended workload: any field the
// codec mishandles would corrupt protocol state (and the interference
// checker or a liveness failure would flag it), and an outright codec
// error panics inside the transport.
func TestWireModeAllSchemes(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 21)
	for _, scheme := range registry.Names() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			f, err := registry.Build(scheme, g, assign, registry.Config{Latency: 10})
			if err != nil {
				t.Fatal(err)
			}
			s, err := driver.NewParallel(g, assign, f, driver.ParallelOptions{
				Latency: 10, Seed: 77, Check: true, Wire: true, Shards: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			cell := g.InteriorCell()
			targets := append([]hexgrid.CellID{cell}, g.Interference(cell)...)
			rng := sim.NewRand(5)
			done := 0
			const total = 60
			for i := 0; i < total; i++ {
				c := targets[rng.Intn(len(targets))]
				at := sim.Time(rng.Intn(3000))
				hold := sim.Time(500 + rng.Intn(3000))
				s.At(c, at, func() {
					s.Request(c, func(r driver.Result) {
						done++
						if r.Granted {
							s.After(r.Cell, hold, func() { s.Release(r.Cell, r.Ch) })
						}
					})
				})
			}
			if !s.Drain(50_000_000) {
				t.Fatal("no quiescence in wire mode")
			}
			if done != total {
				t.Fatalf("completed %d of %d", done, total)
			}
			st := s.Stats()
			if scheme != "fixed" {
				if st.Messages.Total == 0 {
					t.Fatal("expected traffic")
				}
				if st.Messages.Bytes < st.Messages.Total*32 {
					t.Fatalf("byte accounting too low: %d bytes for %d messages",
						st.Messages.Bytes, st.Messages.Total)
				}
			}
			if err := s.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
