// Command changrid is a live demo of the "one goroutine per base
// station" runtime: it drives a moving hot spot of calls over the
// concurrent network and animates per-cell channel usage and mode as an
// ASCII grid.
//
//	changrid -scheme adaptive -seconds 5
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/livenet"
	"repro/internal/registry"
)

func main() {
	var (
		scheme  = flag.String("scheme", "adaptive", "allocation scheme: "+strings.Join(registry.Names(), ", "))
		width   = flag.Int("width", 7, "grid width")
		chans   = flag.Int("channels", 35, "spectrum size")
		seconds = flag.Int("seconds", 5, "demo duration")
		fps     = flag.Int("fps", 4, "frames per second")
		seed    = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	grid, err := hexgrid.New(hexgrid.Config{
		Shape: hexgrid.Rect, Width: *width, Height: *width, ReuseDistance: 2, Wrap: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	assign, err := chanset.Assign(grid, *chans)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	factory, err := registry.Build(*scheme, grid, assign, registry.Config{Latency: 10})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	net, err := livenet.New(grid, assign, factory, 100*time.Microsecond, livenet.Options{
		LatencyTicks: 10, Seed: uint64(*seed),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer net.Close()

	// Shared view of committed holdings, maintained from callbacks.
	var mu sync.Mutex
	held := make([]int, grid.NumCells())

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Traffic: a hot spot that drifts across the grid, background churn
	// everywhere.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(*seed))
		hot := grid.InteriorCell()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		step := 0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			step++
			if step%200 == 0 { // drift the hotspot
				adj := grid.Adjacent(hot)
				hot = adj[rng.Intn(len(adj))]
			}
			cell := hexgrid.CellID(rng.Intn(grid.NumCells()))
			if rng.Float64() < 0.7 {
				cell = hot
			}
			holdFor := time.Duration(20+rng.Intn(400)) * time.Millisecond
			net.Request(cell, func(r livenet.Result) {
				if !r.Granted {
					return
				}
				mu.Lock()
				held[r.Cell]++
				mu.Unlock()
				time.AfterFunc(holdFor, func() {
					net.Release(r.Cell, r.Ch)
					mu.Lock()
					held[r.Cell]--
					mu.Unlock()
				})
			})
		}
	}()

	frames := *seconds * *fps
	for f := 0; f < frames; f++ {
		time.Sleep(time.Second / time.Duration(*fps))
		mu.Lock()
		frame := render(grid, held, *width)
		mu.Unlock()
		fmt.Printf("\033[H\033[2J%s", frame)
		fmt.Printf("scheme=%s grants=%d denies=%d msgs=%d\n",
			*scheme, net.Grants(), net.Denies(), net.Stats().Total)
		if err := net.Violation(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	close(stop)
	wg.Wait()
	// Let every held call's release timer fire before tearing the
	// network down (max hold is ~420ms).
	time.Sleep(600 * time.Millisecond)
	net.WaitSettled(5 * time.Second)
	fmt.Println("done: no co-channel interference observed")
}

// render draws per-cell active call counts as a staggered hex-ish grid.
func render(g *hexgrid.Grid, held []int, width int) string {
	var b strings.Builder
	b.WriteString("active calls per cell (moving hotspot):\n")
	for r := 0; r < width; r++ {
		if r%2 == 1 {
			b.WriteString("  ")
		}
		for q := 0; q < width; q++ {
			id, ok := g.At(hexgrid.Axial{Q: q, R: r})
			if !ok {
				continue
			}
			n := held[id]
			switch {
			case n == 0:
				b.WriteString(" ·  ")
			case n < 10:
				fmt.Fprintf(&b, " %d  ", n)
			default:
				fmt.Fprintf(&b, "%2d  ", n)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
