package livenet_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/livenet"
	"repro/internal/registry"
	"repro/internal/transport"
)

// cluster builds nNodes TCP nodes over localhost, partitioning the grid
// cells round-robin, and wires the routing tables. Node i runs with
// opts under seed+i (its fault stream too, when opts.Fault is set).
func cluster(t testing.TB, scheme string, channels, nNodes int, seed uint64, opts livenet.Options) ([]*livenet.Node, *hexgrid.Grid, map[hexgrid.CellID]*livenet.Node) {
	t.Helper()
	grid := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign, err := chanset.Assign(grid, channels)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := registry.Build(scheme, grid, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]hexgrid.CellID, nNodes)
	owner := make(map[hexgrid.CellID]int)
	for c := 0; c < grid.NumCells(); c++ {
		parts[c%nNodes] = append(parts[c%nNodes], hexgrid.CellID(c))
		owner[hexgrid.CellID(c)] = c % nNodes
	}
	nodes := make([]*livenet.Node, nNodes)
	for i := range nodes {
		o := opts
		o.LatencyTicks = 10
		o.Seed = seed + uint64(i)
		o.TickDuration = 50 * time.Microsecond
		if opts.Fault != nil {
			f := *opts.Fault
			f.Seed = seed + uint64(i)
			o.Fault = &f
		}
		n, err := livenet.NewNode(grid, assign, factory, "127.0.0.1:0", parts[i], o)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	routes := make(map[hexgrid.CellID]string)
	hostOf := make(map[hexgrid.CellID]*livenet.Node)
	for c, i := range owner {
		routes[c] = nodes[i].Addr()
		hostOf[c] = nodes[i]
	}
	for _, n := range nodes {
		n.SetRoutes(routes)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	return nodes, grid, hostOf
}

// settleCluster waits until no node has a request outstanding, then
// gives in-flight releases a moment to land.
func settleCluster(nodes []*livenet.Node, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		out := 0
		for _, n := range nodes {
			out += n.Outstanding()
		}
		if out == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // in-flight releases
}

// checkCluster fails t on any node's committed-outcome violation and on
// co-channel interference among the targets' settled holdings.
func checkCluster(t *testing.T, nodes []*livenet.Node, grid *hexgrid.Grid, hostOf map[hexgrid.CellID]*livenet.Node, targets []hexgrid.CellID) {
	t.Helper()
	for i, n := range nodes {
		if err := n.Violation(); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for _, a := range targets {
		ua := hostOf[a].InUse(a)
		if ua.Empty() {
			continue
		}
		for _, b := range grid.Interference(a) {
			if ua.Intersects(hostOf[b].InUse(b)) {
				t.Fatalf("co-channel interference between %d and %d over TCP", a, b)
			}
		}
	}
}

func TestDistributedLocalGrant(t *testing.T) {
	_, grid, hostOf := cluster(t, "adaptive", 70, 3, 1, livenet.Options{})
	cell := grid.InteriorCell()
	done := make(chan livenet.Result, 1)
	hostOf[cell].Request(cell, func(r livenet.Result) { done <- r })
	select {
	case r := <-done:
		if !r.Granted {
			t.Fatal("expected grant")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
}

func TestDistributedBorrowAcrossTCP(t *testing.T) {
	// 21 channels → 3 primaries per cell; four requests at one cell
	// force borrowing, whose permission round crosses real sockets.
	_, grid, hostOf := cluster(t, "adaptive", 21, 4, 2, livenet.Options{})
	cell := grid.InteriorCell()
	host := hostOf[cell]
	var wg sync.WaitGroup
	var mu sync.Mutex
	var got []livenet.Result
	for i := 0; i < 4; i++ {
		wg.Add(1)
		host.Request(cell, func(r livenet.Result) {
			mu.Lock()
			got = append(got, r)
			mu.Unlock()
			wg.Done()
		})
	}
	waitCh := make(chan struct{})
	go func() { wg.Wait(); close(waitCh) }()
	select {
	case <-waitCh:
	case <-time.After(30 * time.Second):
		t.Fatal("distributed borrow timed out")
	}
	grants := 0
	held := chanset.Set{}
	for _, r := range got {
		if r.Granted {
			grants++
			if held.Contains(r.Ch) {
				t.Fatalf("channel %d granted twice", r.Ch)
			}
			held.Add(r.Ch)
		}
	}
	if grants != 4 {
		t.Fatalf("granted %d of 4 with idle neighbors", grants)
	}
	if host.FabricStats().Total == 0 {
		t.Fatal("borrowing must send messages")
	}
}

func TestDistributedNeighborhoodSafety(t *testing.T) {
	// Concurrent requests across nodes in one interference region; then
	// verify no co-channel interference among the committed holdings
	// (collected over TCP-hosted stations after settling).
	nodes, grid, hostOf := cluster(t, "adaptive", 21, 3, 3, livenet.Options{})
	center := grid.InteriorCell()
	targets := append([]hexgrid.CellID{center}, grid.Interference(center)...)
	var wg sync.WaitGroup
	for i, c := range targets {
		for k := 0; k < 2; k++ {
			wg.Add(1)
			cell := c
			hold := time.Duration(1+(i+k)%3) * time.Millisecond
			go func() {
				defer wg.Done()
				done := make(chan livenet.Result, 1)
				hostOf[cell].Request(cell, func(r livenet.Result) { done <- r })
				select {
				case r := <-done:
					if r.Granted {
						time.Sleep(hold)
						hostOf[cell].Release(cell, r.Ch)
					}
				case <-time.After(30 * time.Second):
					t.Error("request timed out")
				}
			}()
		}
	}
	wg.Wait()
	settleCluster(nodes, 10*time.Second)
	checkCluster(t, nodes, grid, hostOf, targets)
}

func TestDistributedFixedNoSockets(t *testing.T) {
	nodes, grid, hostOf := cluster(t, "fixed", 70, 2, 4, livenet.Options{})
	cell := grid.InteriorCell()
	done := make(chan livenet.Result, 1)
	hostOf[cell].Request(cell, func(r livenet.Result) { done <- r })
	select {
	case r := <-done:
		if !r.Granted {
			t.Fatal("expected grant")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	for _, n := range nodes {
		if n.FabricStats().Total != 0 {
			t.Fatal("fixed allocation must not message")
		}
	}
}

func TestNodeMisuse(t *testing.T) {
	_, grid, hostOf := cluster(t, "fixed", 70, 2, 5, livenet.Options{})
	// Requesting a cell on the wrong node must panic loudly.
	var wrong *livenet.Node
	cell := grid.InteriorCell()
	for c, n := range hostOf {
		if c != cell && n != hostOf[cell] {
			wrong = n
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-hosted cell")
		}
	}()
	wrong.Request(cell, nil)
}

func TestDistributedFaultyLinksEveryRequestTerminates(t *testing.T) {
	// The fault + reliability stack over real TCP: with loss, duplicates
	// and jitter injected at every node, each request still terminates as
	// a grant or a counted denial and no co-channel interference commits.
	nodes, grid, hostOf := cluster(t, "adaptive", 21, 3, 100, livenet.Options{
		Fault: &transport.FaultConfig{
			Drop: 0.02, Duplicate: 0.02,
			JitterMin: 5 * time.Microsecond, JitterMax: 100 * time.Microsecond,
		},
		Reliable:       &transport.ReliableConfig{Timeout: 2 * time.Millisecond},
		RequestTimeout: 20 * time.Second,
	})
	center := grid.InteriorCell()
	targets := append([]hexgrid.CellID{center}, grid.Interference(center)...)
	var wg sync.WaitGroup
	for i, c := range targets {
		for k := 0; k < 4; k++ {
			wg.Add(1)
			cell := c
			host := hostOf[c]
			hold := time.Duration(1+(i+k)%3) * time.Millisecond
			go func() {
				defer wg.Done()
				done := make(chan livenet.Result, 1)
				host.Request(cell, func(r livenet.Result) { done <- r })
				select {
				case r := <-done:
					if r.Granted {
						time.Sleep(hold)
						host.Release(cell, r.Ch)
					}
				case <-time.After(60 * time.Second):
					t.Error("request hung despite reliability layer + watchdog")
				}
			}()
		}
	}
	wg.Wait()
	settleCluster(nodes, 20*time.Second)
	var agg transport.Stats
	for _, n := range nodes {
		agg.Add(n.Stats())
	}
	if agg.DropsInjected == 0 {
		t.Fatalf("no faults injected over %d messages", agg.Total)
	}
	if agg.Retransmits == 0 {
		t.Fatalf("drops injected but no retransmits: %+v", agg)
	}
	checkCluster(t, nodes, grid, hostOf, targets)
}
