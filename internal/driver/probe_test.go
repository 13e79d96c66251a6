package driver_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/obs"
	"repro/internal/sim"
)

// probe is a scripted allocator: Request grants channel ch outright
// (no protocol, no interference check of its own) and Handle records
// every delivered message with its delivery time. It lets the tests
// drive the driver's message path and grant path directly.
type probe struct {
	env  alloc.Env
	ch   chanset.Channel
	use  chanset.Set
	got  []message.Message
	when []sim.Time
}

func (a *probe) Start(env alloc.Env)           { a.env = env }
func (a *probe) InUse() chanset.Set            { return a.use.Clone() }
func (a *probe) Mode() int                     { return 0 }
func (a *probe) Release(chanset.Channel) error { return nil }

func (a *probe) Request(id alloc.RequestID) {
	a.use.Add(a.ch)
	a.env.Granted(id, a.ch)
}

func (a *probe) Handle(m message.Message) {
	a.got = append(a.got, m)
	a.when = append(a.when, a.env.Now())
}

// probeFactory builds one probe per cell; every cell grants the same
// channel, so any two interfering grants violate Theorem 1.
type probeFactory struct{ cells []*probe }

func (f *probeFactory) Name() string { return "probe" }

func (f *probeFactory) New(cell hexgrid.CellID) alloc.Allocator {
	a := &probe{ch: 3}
	f.cells = append(f.cells, a)
	return a
}

func probeNet(t *testing.T, opts driver.ParallelOptions) (*driver.Parallel, *probeFactory, *hexgrid.Grid) {
	t.Helper()
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	f := &probeFactory{}
	p, err := driver.NewParallel(g, chanset.MustAssign(g, 70), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, f, g
}

// send schedules cell from's probe to send m at time at.
func send(p *driver.Parallel, f *probeFactory, at sim.Time, m message.Message) {
	p.At(m.From, at, func() { f.cells[m.From].env.Send(m) })
}

// TestSendDeliversAfterLatency: a message sent at t reaches its
// destination's handler at exactly t+T with its payload intact.
func TestSendDeliversAfterLatency(t *testing.T) {
	p, f, _ := probeNet(t, driver.ParallelOptions{Latency: 10, Shards: 1})
	send(p, f, 5, message.Message{Kind: message.Release, From: 1, To: 2, Ch: 3})
	p.Run(1000)
	rec := f.cells[2]
	if len(rec.got) != 1 {
		t.Fatalf("delivered %d messages", len(rec.got))
	}
	if rec.when[0] != 15 {
		t.Fatalf("delivered at %d, want 15", rec.when[0])
	}
	if rec.got[0].Ch != 3 || rec.got[0].Kind != message.Release {
		t.Fatalf("payload mangled: %+v", rec.got[0])
	}
}

// TestSendStats: the driver's transport stats count every sent message
// by kind.
func TestSendStats(t *testing.T) {
	p, f, _ := probeNet(t, driver.ParallelOptions{Latency: 1, Shards: 1})
	kinds := []message.Kind{message.Request, message.Request, message.Response, message.Release}
	for _, k := range kinds {
		send(p, f, 0, message.Message{Kind: k, From: 0, To: 1})
	}
	p.Run(100)
	if got := len(f.cells[1].got); got != len(kinds) {
		t.Fatalf("delivered %d of %d", got, len(kinds))
	}
	st := p.Stats().Messages
	if st.Total != 4 {
		t.Fatalf("Total = %d, want 4", st.Total)
	}
	if st.ByKind[message.Request] != 2 || st.ByKind[message.Response] != 1 || st.ByKind[message.Release] != 1 {
		t.Fatalf("ByKind = %v", st.ByKind)
	}
}

// TestSendFIFOFixedLatency: with equal latency, messages on one link
// arrive in send order (the kernel's per-origin counter breaks ties).
func TestSendFIFOFixedLatency(t *testing.T) {
	p, f, _ := probeNet(t, driver.ParallelOptions{Latency: 7, Shards: 1})
	p.At(0, 0, func() {
		for i := 0; i < 20; i++ {
			f.cells[0].env.Send(message.Message{Kind: message.Request, From: 0, To: 1, Ch: chanset.Channel(i)})
		}
	})
	p.Run(1000)
	rec := f.cells[1]
	if len(rec.got) != 20 {
		t.Fatalf("delivered %d of 20", len(rec.got))
	}
	for i, m := range rec.got {
		if int(m.Ch) != i {
			t.Fatalf("FIFO violated: slot %d got ch %d", i, m.Ch)
		}
	}
}

// TestSendFIFOWithJitter: jitter never reorders a link (a delivery is
// clamped to no earlier than the link's previous one) and never
// delivers before send + latency, at one shard and across shards.
func TestSendFIFOWithJitter(t *testing.T) {
	for _, shards := range []int{1, 7} {
		p, f, _ := probeNet(t, driver.ParallelOptions{Latency: 5, Jitter: 9, Seed: 123, Shards: shards, Workers: 2})
		const n = 200
		for i := 0; i < n; i++ {
			send(p, f, sim.Time(i), message.Message{Kind: message.Request, From: 0, To: 40, Ch: chanset.Channel(i)})
		}
		p.Run(100_000)
		rec := f.cells[40]
		if len(rec.got) != n {
			t.Fatalf("shards=%d: delivered %d of %d", shards, len(rec.got), n)
		}
		for i, m := range rec.got {
			if int(m.Ch) != i {
				t.Fatalf("shards=%d: jittered FIFO violated at %d: ch %d", shards, i, m.Ch)
			}
			if rec.when[i] < sim.Time(i)+5 {
				t.Fatalf("shards=%d: message %d delivered at %d, before send+latency", shards, i, rec.when[i])
			}
		}
	}
}

// TestSendJitterSpreadsDeliveries: jitter is drawn per sender, so
// messages sent at one instant over different links arrive spread out.
func TestSendJitterSpreadsDeliveries(t *testing.T) {
	p, f, g := probeNet(t, driver.ParallelOptions{Latency: 5, Jitter: 20, Seed: 7, Shards: 1})
	for c := 0; c < g.NumCells(); c++ {
		if c != 1 {
			send(p, f, 0, message.Message{Kind: message.Request, From: hexgrid.CellID(c), To: 1})
		}
	}
	p.Run(1000)
	distinct := map[sim.Time]bool{}
	for _, at := range f.cells[1].when {
		distinct[at] = true
	}
	if len(distinct) < 5 {
		t.Fatalf("jitter produced only %d distinct arrival times", len(distinct))
	}
}

// TestCheckPerGrantOnOneShard: with one shard, Check verifies the
// granting cell inside the grant itself — the violating grant panics
// within the event that makes it, before any window barrier.
func TestCheckPerGrantOnOneShard(t *testing.T) {
	p, _, g := probeNet(t, driver.ParallelOptions{Shards: 1, Check: true})
	cell := g.InteriorCell()
	p.Request(cell, nil) // first holder of channel 3: clean
	neighbor := g.Interference(cell)[0]
	var caught interface{}
	p.At(neighbor, 5, func() {
		defer func() { caught = recover() }()
		p.Request(neighbor, nil)
	})
	p.Run(100)
	if caught == nil {
		t.Fatal("co-channel grant to an interference neighbour did not panic inside the granting event")
	}
	if !strings.Contains(fmt.Sprint(caught), "co-channel interference") {
		t.Fatalf("panic = %v, want the interference checker's error", caught)
	}
}

// TestCheckAtBarrierOnManyShards: with several shards the same
// violation is caught at the window barrier, not inside the grant.
func TestCheckAtBarrierOnManyShards(t *testing.T) {
	p, _, g := probeNet(t, driver.ParallelOptions{Shards: 7, Workers: 1, Check: true})
	cell := g.InteriorCell()
	p.Request(cell, nil)
	p.Request(g.Interference(cell)[0], nil) // no panic: checked at barriers
	p.At(cell, 1, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("barrier check missed the violation")
		}
	}()
	p.Run(100)
}

// TestJournalNeedsOneShard: a journal on a multi-shard run is rejected
// up front with a descriptive error; one shard is accepted.
func TestJournalNeedsOneShard(t *testing.T) {
	g := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Rect, Width: 7, Height: 7, ReuseDistance: 2, Wrap: true})
	assign := chanset.MustAssign(g, 70)
	j := obs.NewJournal(&bytes.Buffer{})
	_, err := driver.NewParallel(g, assign, &probeFactory{}, driver.ParallelOptions{Journal: j, Shards: 2})
	if err == nil || !strings.Contains(err.Error(), "journal") || !strings.Contains(err.Error(), "Shards = 2") {
		t.Fatalf("want a descriptive journal/shards error, got %v", err)
	}
	if _, err := driver.NewParallel(g, assign, &probeFactory{}, driver.ParallelOptions{Journal: j, Shards: 1}); err != nil {
		t.Fatalf("one-shard journal rejected: %v", err)
	}
}
