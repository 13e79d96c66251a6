package livenet_test

import (
	"testing"
	"time"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/livenet"
	"repro/internal/registry"
)

// BenchmarkLiveRequestRelease measures a full request+release round trip
// on the goroutine-per-station runtime (local grant path: cross-goroutine
// submission, station processing, callback, release).
func BenchmarkLiveRequestRelease(b *testing.B) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	f, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		b.Fatal(err)
	}
	n, err := livenet.New(g, assign, f, 0, livenet.Options{LatencyTicks: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	cell := g.InteriorCell()
	done := make(chan livenet.Result, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Request(cell, func(r livenet.Result) { done <- r })
		r := <-done
		if !r.Granted {
			b.Fatal("denied")
		}
		n.Release(r.Cell, r.Ch)
	}
	b.StopTimer()
	if !n.WaitSettled(10 * time.Second) {
		b.Fatal("did not settle")
	}
}

// BenchmarkDistributedBorrow measures a borrowing acquisition whose
// permission round crosses real TCP sockets (two nodes, target cell's
// primaries exhausted so every iteration runs a full borrow + release).
func BenchmarkDistributedBorrow(b *testing.B) {
	grid := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(grid, 21)
	factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: 10})
	if err != nil {
		b.Fatal(err)
	}
	owner := map[hexgrid.CellID]int{}
	parts := make([][]hexgrid.CellID, 2)
	for c := 0; c < grid.NumCells(); c++ {
		parts[c%2] = append(parts[c%2], hexgrid.CellID(c))
		owner[hexgrid.CellID(c)] = c % 2
	}
	nodes := make([]*livenet.Node, 2)
	for i := range nodes {
		n, err := livenet.NewNode(grid, assign, factory, "127.0.0.1:0", parts[i], livenet.Options{
			LatencyTicks: 10, Seed: uint64(i) + 1, TickDuration: 20 * time.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
		defer n.Close()
	}
	routes := map[hexgrid.CellID]string{}
	for c, i := range owner {
		routes[c] = nodes[i].Addr()
	}
	for _, n := range nodes {
		n.SetRoutes(routes)
	}
	cell := grid.InteriorCell()
	host := nodes[owner[cell]]
	// Exhaust the primaries once so the measured path is a real borrow.
	done := make(chan livenet.Result, 1)
	for i := 0; i < assign.Primary[cell].Len(); i++ {
		host.Request(cell, func(r livenet.Result) { done <- r })
		if r := <-done; !r.Granted {
			b.Fatal("setup grant failed")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host.Request(cell, func(r livenet.Result) { done <- r })
		r := <-done
		if !r.Granted {
			b.Fatal("borrow denied")
		}
		host.Release(r.Cell, r.Ch)
	}
}
