package experiments

// Network benchmark: the live-runtime companion to the DES kernel
// bench. It stands up a two-node livenet TCP cluster on loopback and
// times full borrow+release rounds whose permission traffic crosses
// the wire, mirroring internal/livenet's BenchmarkDistributedBorrow so
// `chansim -bench` numbers and `go test -bench` numbers agree.

import (
	"runtime"
	"time"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/livenet"
	"repro/internal/registry"
)

// NetworkBench is the cost of the distributed runtime's message path,
// measured end-to-end through real sockets.
type NetworkBench struct {
	// BorrowRounds is the number of borrow+release cycles timed.
	BorrowRounds uint64 `json:"borrow_rounds"`
	// Messages is the fabric traffic those rounds generated (both
	// nodes, local and remote, including acks and retransmits).
	Messages uint64 `json:"messages"`
	// WireBytes is the encoded volume that crossed the sockets.
	WireBytes uint64 `json:"wire_bytes"`
	// WallSeconds is the measured region's wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// MsgsPerSec = Messages / WallSeconds.
	MsgsPerSec float64 `json:"msgs_per_sec"`
	// NsPerMessage is the inverse, in nanoseconds.
	NsPerMessage float64 `json:"ns_per_message"`
	// NsPerBorrowRound is the end-to-end latency of one borrow+release
	// cycle (request, cross-node permission round, grant, release).
	NsPerBorrowRound float64 `json:"ns_per_borrow_round"`
	// AllocsPerMessage / BytesPerMessage are heap allocations amortised
	// over messages (MemStats deltas across the whole process, so they
	// include both nodes' send, wire, and delivery paths).
	AllocsPerMessage float64 `json:"allocs_per_message"`
	BytesPerMessage  float64 `json:"bytes_per_message"`
}

// RunNetworkBench measures the live runtime. Quick mode shortens the
// timed region for CI smoke while keeping the same shape.
func RunNetworkBench(quick bool) (NetworkBench, error) {
	rounds := uint64(20_000)
	if quick {
		rounds = 2_500
	}
	grid, err := hexgrid.New(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	if err != nil {
		return NetworkBench{}, err
	}
	assign, err := chanset.Assign(grid, 21)
	if err != nil {
		return NetworkBench{}, err
	}
	factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: 10})
	if err != nil {
		return NetworkBench{}, err
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
			return NetworkBench{}, err
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
	done := make(chan livenet.Result, 1)
	// Exhaust the primaries once so every timed round is a real borrow
	// with a cross-node permission exchange.
	for i := 0; i < assign.Primary[cell].Len(); i++ {
		host.Request(cell, func(r livenet.Result) { done <- r })
		if r := <-done; !r.Granted {
			return NetworkBench{}, errSetupGrant
		}
	}
	fabricBefore := func() (msgs, bytes uint64) {
		for _, n := range nodes {
			s := n.FabricStats()
			msgs += s.Total
			bytes += s.Bytes
		}
		return
	}
	m0Msgs, m0Bytes := fabricBefore()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := uint64(0); i < rounds; i++ {
		host.Request(cell, func(r livenet.Result) { done <- r })
		r := <-done
		if !r.Granted {
			return NetworkBench{}, errBorrowDenied
		}
		host.Release(r.Cell, r.Ch)
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	m1Msgs, m1Bytes := fabricBefore()
	b := NetworkBench{
		BorrowRounds: rounds,
		Messages:     m1Msgs - m0Msgs,
		WireBytes:    m1Bytes - m0Bytes,
		WallSeconds:  wall.Seconds(),
	}
	if b.Messages > 0 {
		msgs := float64(b.Messages)
		b.MsgsPerSec = msgs / b.WallSeconds
		b.NsPerMessage = float64(wall.Nanoseconds()) / msgs
		b.AllocsPerMessage = float64(ms1.Mallocs-ms0.Mallocs) / msgs
		b.BytesPerMessage = float64(ms1.TotalAlloc-ms0.TotalAlloc) / msgs
	}
	if rounds > 0 {
		b.NsPerBorrowRound = float64(wall.Nanoseconds()) / float64(rounds)
	}
	return b, nil
}

type netBenchError string

func (e netBenchError) Error() string { return string(e) }

const (
	errSetupGrant   = netBenchError("netbench: setup grant failed")
	errBorrowDenied = netBenchError("netbench: borrow denied mid-run")
)
