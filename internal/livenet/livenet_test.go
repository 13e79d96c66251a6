package livenet_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/livenet"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/transport"
)

func build(t *testing.T, scheme string, channels int, delay time.Duration, seed uint64) *livenet.Network {
	t.Helper()
	g, err := hexgrid.New(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := chanset.Assign(g, channels)
	if err != nil {
		t.Fatal(err)
	}
	f, err := registry.Build(scheme, g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	n, err := livenet.New(g, assign, f, delay, livenet.Options{
		LatencyTicks: 10, Seed: seed, TickDuration: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestLiveSingleRequest(t *testing.T) {
	n := build(t, "adaptive", 70, 0, 1)
	defer n.Close()
	done := make(chan livenet.Result, 1)
	n.Request(3, func(r livenet.Result) { done <- r })
	select {
	case r := <-done:
		if !r.Granted {
			t.Fatal("expected grant")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request timed out")
	}
	if n.Grants() != 1 || n.Denies() != 0 {
		t.Fatalf("grants=%d denies=%d", n.Grants(), n.Denies())
	}
}

func TestLiveConcurrentHammer(t *testing.T) {
	// Many goroutines fire requests at every cell concurrently, hold
	// briefly, release. This is the run the race detector chews on.
	n := build(t, "adaptive", 35, 0, 2)
	defer n.Close()
	const perCell = 4
	var wg sync.WaitGroup
	cells := n.Grid().NumCells()
	for c := 0; c < cells; c++ {
		for k := 0; k < perCell; k++ {
			wg.Add(1)
			cell := hexgrid.CellID(c)
			go func() {
				defer wg.Done()
				done := make(chan livenet.Result, 1)
				n.Request(cell, func(r livenet.Result) { done <- r })
				r := <-done
				if r.Granted {
					time.Sleep(time.Duration(1+int(cell)%5) * time.Millisecond)
					n.Release(r.Cell, r.Ch)
				}
			}()
		}
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(60 * time.Second):
		t.Fatal("hammer timed out — possible live-runtime deadlock")
	}
	if !n.WaitSettled(10 * time.Second) {
		t.Fatal("network did not settle")
	}
	if err := n.Violation(); err != nil {
		t.Fatal(err)
	}
	if n.Grants()+n.Denies() != uint64(cells*perCell) {
		t.Fatalf("completed %d of %d", n.Grants()+n.Denies(), cells*perCell)
	}
}

func TestLiveWithWireDelay(t *testing.T) {
	n := build(t, "adaptive", 21, 200*time.Microsecond, 3)
	defer n.Close()
	// Hot neighborhood with delayed messages: forces borrowing over
	// real asynchronous links.
	center := n.Grid().InteriorCell()
	targets := append([]hexgrid.CellID{center}, n.Grid().Interference(center)...)
	var wg sync.WaitGroup
	for i, c := range targets {
		// Five requests per cell exceed the 3 primaries (21 channels /
		// 7 colors), forcing borrowing over the delayed links.
		for k := 0; k < 5; k++ {
			wg.Add(1)
			cell := c
			hold := time.Duration(1+(i+k)%3) * time.Millisecond
			go func() {
				defer wg.Done()
				done := make(chan livenet.Result, 1)
				n.Request(cell, func(r livenet.Result) { done <- r })
				select {
				case r := <-done:
					if r.Granted {
						time.Sleep(hold)
						n.Release(r.Cell, r.Ch)
					}
				case <-time.After(30 * time.Second):
					t.Error("request timed out")
				}
			}()
		}
	}
	wg.Wait()
	if !n.WaitSettled(10 * time.Second) {
		t.Fatal("did not settle")
	}
	if err := n.Violation(); err != nil {
		t.Fatal(err)
	}
	if n.Stats().Total == 0 {
		t.Fatal("borrowing under contention must send messages")
	}
}

func TestLiveAllSchemes(t *testing.T) {
	for _, scheme := range registry.Names() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			n := build(t, scheme, 35, 0, 4)
			defer n.Close()
			var wg sync.WaitGroup
			for c := 0; c < n.Grid().NumCells(); c += 3 {
				wg.Add(1)
				cell := hexgrid.CellID(c)
				go func() {
					defer wg.Done()
					done := make(chan livenet.Result, 1)
					n.Request(cell, func(r livenet.Result) { done <- r })
					r := <-done
					if r.Granted {
						n.Release(r.Cell, r.Ch)
					}
				}()
			}
			wg.Wait()
			if !n.WaitSettled(10 * time.Second) {
				t.Fatal("did not settle")
			}
			if err := n.Violation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// buildFaulty builds a network over a degraded signaling plane.
func buildFaulty(t *testing.T, scheme string, channels int, seed uint64, opts livenet.Options) *livenet.Network {
	t.Helper()
	g, err := hexgrid.New(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := chanset.Assign(g, channels)
	if err != nil {
		t.Fatal(err)
	}
	f, err := registry.Build(scheme, g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	opts.LatencyTicks = 10
	opts.Seed = seed
	opts.TickDuration = 50 * time.Microsecond
	n, err := livenet.New(g, assign, f, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestLiveFaultyLinksEveryRequestTerminates(t *testing.T) {
	// The PR's acceptance property: under injected loss, duplication and
	// jitter, every request terminates as a grant or a counted denial,
	// with zero co-channel violations and the fault counters visible.
	n := buildFaulty(t, "adaptive", 21, 11, livenet.Options{
		Fault: &transport.FaultConfig{
			Seed: 11, Drop: 0.02, Duplicate: 0.02, Reorder: 0.02,
			JitterMin: 5 * time.Microsecond, JitterMax: 150 * time.Microsecond,
		},
		Reliable:       &transport.ReliableConfig{Timeout: 2 * time.Millisecond},
		RequestTimeout: 20 * time.Second,
	})
	defer n.Close()
	center := n.Grid().InteriorCell()
	targets := append([]hexgrid.CellID{center}, n.Grid().Interference(center)...)
	var wg sync.WaitGroup
	total := 0
	for i, c := range targets {
		for k := 0; k < 5; k++ { // exceeds the 3 primaries: forces borrowing
			total++
			wg.Add(1)
			cell := c
			hold := time.Duration(1+(i+k)%3) * time.Millisecond
			go func() {
				defer wg.Done()
				done := make(chan livenet.Result, 1)
				n.Request(cell, func(r livenet.Result) { done <- r })
				select {
				case r := <-done:
					if r.Granted {
						time.Sleep(hold)
						n.Release(r.Cell, r.Ch)
					}
				case <-time.After(60 * time.Second):
					t.Error("request hung despite reliability layer + watchdog")
				}
			}()
		}
	}
	wg.Wait()
	if !n.WaitSettled(20 * time.Second) {
		t.Fatal("network did not settle")
	}
	if err := n.Violation(); err != nil {
		t.Fatal(err)
	}
	if got := n.Grants() + n.Denies(); got != uint64(total) {
		t.Fatalf("completed %d of %d", got, total)
	}
	st := n.Stats()
	if st.DropsInjected == 0 {
		t.Fatalf("fault layer injected nothing over %d messages: %+v", st.Total, st)
	}
	if st.Retransmits == 0 {
		t.Fatalf("drops injected but nothing retransmitted: %+v", st)
	}
	if st.AcksSent == 0 {
		t.Fatalf("reliability layer sent no acks: %+v", st)
	}
}

func TestLiveDeadlineWatchdogDeniesWedgedRequests(t *testing.T) {
	// 100% loss wedges every permission round; the watchdog must convert
	// the stuck requests into counted denials so nothing hangs.
	n := buildFaulty(t, "adaptive", 21, 12, livenet.Options{
		Fault: &transport.FaultConfig{Seed: 12, Drop: 1},
		Reliable: &transport.ReliableConfig{
			Timeout: 500 * time.Microsecond, BackoffCap: time.Millisecond, MaxRetries: 3,
		},
		RequestTimeout: 250 * time.Millisecond,
	})
	defer n.Close()
	cell := n.Grid().InteriorCell()
	const reqs = 5 // 3 primaries grant locally; the rest need (dead) links
	results := make(chan livenet.Result, reqs)
	for i := 0; i < reqs; i++ {
		n.Request(cell, func(r livenet.Result) { results <- r })
	}
	grants, denies := 0, 0
	for i := 0; i < reqs; i++ {
		select {
		case r := <-results:
			if r.Granted {
				grants++
			} else {
				denies++
			}
		case <-time.After(30 * time.Second):
			t.Fatal("request neither granted nor denied — watchdog failed")
		}
	}
	if grants != 3 || denies != 2 {
		t.Fatalf("grants=%d denies=%d, want 3 local grants and 2 deadline denials", grants, denies)
	}
	if n.DeadlineDenials() != 2 {
		t.Fatalf("DeadlineDenials = %d, want 2", n.DeadlineDenials())
	}
	if n.Abandoned() == 0 {
		t.Fatal("retry budget never exhausted on a 100%-loss link")
	}
	if n.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after all completions", n.Outstanding())
	}
	if st := n.Stats(); st.RetryExhausted == 0 {
		t.Fatalf("RetryExhausted missing from stats: %+v", st)
	}
}

func TestLiveBadReleaseCountedNotFatal(t *testing.T) {
	n := build(t, "adaptive", 70, 0, 13)
	defer n.Close()
	n.Release(5, 3) // never granted: must be counted, not panic
	if !n.WaitSettled(5 * time.Second) {
		t.Fatal("did not settle")
	}
	if n.BadReleases() != 1 {
		t.Fatalf("BadReleases = %d, want 1", n.BadReleases())
	}
}

// station is the host API both fabrics share.
type station interface {
	Request(hexgrid.CellID, func(livenet.Result))
	InUse(hexgrid.CellID) chanset.Set
	DeadlineDenials() uint64
	Violation() error
	WaitSettled(time.Duration) bool
}

// fabrics builds the same 7×7 adaptive network on each fabric and
// returns its grid and the station hosting a given cell.
var fabrics = []struct {
	name  string
	build func(t *testing.T, channels int, opts livenet.Options) (*hexgrid.Grid, func(hexgrid.CellID) station)
}{
	{"in-process", func(t *testing.T, channels int, opts livenet.Options) (*hexgrid.Grid, func(hexgrid.CellID) station) {
		n := buildFaulty(t, "adaptive", channels, 21, opts)
		t.Cleanup(n.Close)
		return n.Grid(), func(hexgrid.CellID) station { return n }
	}},
	{"tcp", func(t *testing.T, channels int, opts livenet.Options) (*hexgrid.Grid, func(hexgrid.CellID) station) {
		_, grid, hostOf := cluster(t, "adaptive", channels, 2, 21, opts)
		return grid, func(c hexgrid.CellID) station { return hostOf[c] }
	}},
}

func TestLateGrantReleasedAndCounted(t *testing.T) {
	// A borrow round that outlasts RequestTimeout: the caller sees a
	// deadline denial, and the grant that arrives afterwards is handed
	// back and counted rather than leaked into the cell's holdings.
	for _, fab := range fabrics {
		fab := fab
		t.Run(fab.name, func(t *testing.T) {
			reg := obs.New()
			grid, hostOf := fab.build(t, 21, livenet.Options{
				Fault:          &transport.FaultConfig{JitterMin: 100 * time.Millisecond, JitterMax: 100 * time.Millisecond},
				Reliable:       &transport.ReliableConfig{Timeout: time.Second},
				RequestTimeout: 20 * time.Millisecond,
				Obs:            reg,
			})
			cell := grid.InteriorCell()
			h := hostOf(cell)
			done := make(chan livenet.Result, 1)
			// 21 channels → 3 primaries per cell, all granted locally.
			var held chanset.Set
			for i := 0; i < 3; i++ {
				h.Request(cell, func(r livenet.Result) { done <- r })
				r := <-done
				if !r.Granted {
					t.Fatalf("primary request %d denied", i)
				}
				held.Add(r.Ch)
			}
			// The fourth borrows over links 100ms slow each way.
			h.Request(cell, func(r livenet.Result) { done <- r })
			if r := <-done; r.Granted {
				t.Fatalf("borrow granted within its 20ms deadline: %+v", r)
			}
			if got := h.DeadlineDenials(); got != 1 {
				t.Fatalf("DeadlineDenials = %d, want 1", got)
			}
			deadline := time.Now().Add(20 * time.Second)
			for reg.Snapshot()["adca_late_grants_total"] != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("late grant never counted: adca_late_grants_total = %v",
						reg.Snapshot()["adca_late_grants_total"])
				}
				time.Sleep(5 * time.Millisecond)
			}
			if !h.WaitSettled(20 * time.Second) {
				t.Fatal("did not settle")
			}
			if got := h.InUse(cell); !got.Equal(held) {
				t.Fatalf("InUse(%d) = %v after the late grant, want the primaries %v", cell, got, held)
			}
			if err := h.Violation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBadFaultConfigIsAnError(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 21)
	f, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10})
	if err != nil {
		t.Fatal(err)
	}
	opts := livenet.Options{Fault: &transport.FaultConfig{Drop: 2}}
	for _, tc := range []struct {
		name  string
		build func() (interface{ Close() }, error)
	}{
		{"New", func() (interface{ Close() }, error) { return livenet.New(g, assign, f, 0, opts) }},
		{"NewNode", func() (interface{ Close() }, error) {
			return livenet.NewNode(g, assign, f, "127.0.0.1:0", []hexgrid.CellID{0, 1}, opts)
		}},
	} {
		n, err := tc.build()
		if err == nil {
			n.Close()
			t.Errorf("%s accepted Fault{Drop: 2}", tc.name)
		}
	}
}
