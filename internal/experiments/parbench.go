package experiments

// Large-grid scaling benchmark for the sharded parallel kernel
// (sim.Shards / driver.Parallel): 50x50 and 100x100 wrapped lattices at
// borrow-heavy load — plus a mobile 50x50 workload with handoffs, which
// exercises the cross-shard relay path — run at 1/2/4/NumCPU workers.
// Besides events/sec and speedup, every run records a trajectory hash
// over its final stats (including the handoff tallies) — the
// determinism contract made machine-checkable: all runs of one grid
// must hash identically regardless of worker count, and the hash must
// not drift between reports (cmd/benchdelta enforces both).

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// ParallelRun is one worker-count measurement of one grid.
type ParallelRun struct {
	// Workers is the goroutine count advancing shards.
	Workers int `json:"workers"`
	// WallSeconds is the run's wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// EventsPerSec = grid events / WallSeconds.
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is EventsPerSec relative to the workers=1 run.
	Speedup float64 `json:"speedup"`
	// Hash is this run's trajectory hash; must equal the grid's.
	Hash string `json:"trajectory_hash"`
}

// ParallelGridBench is the scaling measurement of one grid.
type ParallelGridBench struct {
	// Grid names the lattice ("50x50", "100x100").
	Grid string `json:"grid"`
	// Cells and Shards describe the partition.
	Cells  int `json:"cells"`
	Shards int `json:"shards"`
	// Events is the kernel event count (identical across worker counts
	// by the determinism contract).
	Events uint64 `json:"events"`
	// Hash is the grid's trajectory hash: a digest of the run's final
	// driver and traffic statistics. Identical for every worker count in
	// this report, and — the scenario being fixed — across reports.
	Hash string `json:"trajectory_hash"`
	// Runs are the per-worker-count measurements, ascending workers.
	Runs []ParallelRun `json:"runs"`
}

// ParallelBench is the "parallel" section of the bench report.
type ParallelBench struct {
	Grids []ParallelGridBench `json:"grids"`
}

// parallelWorkerCounts is 1/2/4/NumCPU, deduplicated, ascending.
func parallelWorkerCounts() []int {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	sort.Ints(counts)
	out := counts[:1]
	for _, c := range counts[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// hashU64s feeds a fixed-order sequence of uint64s into h.
func hashU64s(h hash.Hash, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

func hashWelford(h hash.Hash, w metrics.Welford) {
	hashU64s(h, w.N())
	if w.N() > 0 {
		hashU64s(h, floatBits(w.Mean()), floatBits(w.Var()), floatBits(w.Min()), floatBits(w.Max()))
	}
}

func floatBits(f float64) uint64 {
	// Normalize the two zero encodings so -0.0 and +0.0 hash alike.
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// trajectoryHash digests the observable outcome of a run: the driver's
// aggregate stats (including per-cell tallies and the protocol
// counters) and the workload's telephony stats. Two runs hash equal iff
// every one of those numbers is identical.
func trajectoryHash(st driver.Stats, ts traffic.Stats) string {
	h := sha256.New()
	hashU64s(h, st.Grants, st.Denies, st.Messages.Total, st.Messages.Bytes)
	for _, k := range st.Messages.ByKind {
		hashU64s(h, k)
	}
	hashWelford(h, st.AcqDelay)
	hashWelford(h, st.TotalDelay)
	hashWelford(h, st.QueueDelay)
	hashU64s(h, floatBits(st.DelayP95))
	c := st.Counters
	hashU64s(h,
		c.GrantsLocal, c.GrantsUpdate, c.GrantsSearch, c.Drops,
		c.UpdateAttempts, c.ModeChanges, c.Deferred, c.BadReleases)
	hashU64s(h, uint64(len(st.CellGrants)))
	for i := range st.CellGrants {
		hashU64s(h, st.CellGrants[i], st.CellDenies[i])
	}
	hashU64s(h, ts.Offered, ts.Blocked, ts.HandoffAttempts, ts.HandoffDrops)
	for i := range ts.PerCellOffered {
		hashU64s(h, ts.PerCellOffered[i], ts.PerCellBlocked[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// parGridSpec fixes one benchmark lattice. Shard count is part of the
// scenario and machine-independent, so the trajectory (and its hash)
// reproduces on any host.
type parGridSpec struct {
	name          string
	width, height int
	duration      sim.Time
	// handoff, when positive, enables mobility: each call hops to a
	// random neighbor at this per-tick rate, exercising the sharded
	// handoff relay path (cross-shard events plus per-shard tallies).
	handoff float64
}

func parallelGrids(quick bool) []parGridSpec {
	// ~2 handoffs per call at meanHold 3000.
	const mobileRate = 0.00067
	if quick {
		return []parGridSpec{
			{name: "50x50", width: 50, height: 50, duration: 3_000},
			{name: "50x50-mobile", width: 50, height: 50, duration: 3_000, handoff: mobileRate},
			{name: "100x100", width: 100, height: 100, duration: 1_500},
		}
	}
	return []parGridSpec{
		{name: "50x50", width: 50, height: 50, duration: 12_000},
		{name: "50x50-mobile", width: 50, height: 50, duration: 12_000, handoff: mobileRate},
		{name: "100x100", width: 100, height: 100, duration: 6_000},
	}
}

// RunParallelBench measures the sharded kernel's scaling. Quick mode
// shortens the arrival window for CI smoke while keeping the grids (the
// whole point is size).
func RunParallelBench(quick bool) (ParallelBench, error) {
	var out ParallelBench
	for _, gs := range parallelGrids(quick) {
		gb, err := runParallelGrid(gs)
		if err != nil {
			return ParallelBench{}, err
		}
		out.Grids = append(out.Grids, gb)
	}
	return out, nil
}

func runParallelGrid(gs parGridSpec) (ParallelGridBench, error) {
	grid, err := hexgrid.New(hexgrid.Config{
		Shape: hexgrid.Rect, Width: gs.width, Height: gs.height,
		ReuseDistance: 2, Wrap: true,
	})
	if err != nil {
		return ParallelGridBench{}, err
	}
	assign, err := chanset.Assign(grid, 70)
	if err != nil {
		return ParallelGridBench{}, err
	}
	const (
		shards   = 16
		latency  = sim.Time(10)
		meanHold = 3000.0
		// These lattices' sides are not multiples of 7, so cells get
		// 4-6 primaries: 9 Erlang is 150-225% of a cell's primary set,
		// which forces heavy borrowing.
		erlang = 9.0
	)
	gb := ParallelGridBench{Grid: gs.name, Cells: grid.NumCells(), Shards: shards}
	for _, workers := range parallelWorkerCounts() {
		factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: latency})
		if err != nil {
			return ParallelGridBench{}, err
		}
		p, err := driver.NewParallel(grid, assign, factory, driver.ParallelOptions{
			Latency: latency, Seed: 101, Shards: shards, Workers: workers,
		})
		if err != nil {
			return ParallelGridBench{}, err
		}
		t0 := time.Now()
		ts, err := traffic.RunParallel(p, traffic.Spec{
			Profile:     traffic.Uniform{PerCell: erlang / meanHold},
			MeanHold:    meanHold,
			HandoffRate: gs.handoff,
			Duration:    gs.duration,
			Warmup:      gs.duration / 5,
			Seed:        101,
		})
		if err != nil {
			return ParallelGridBench{}, err
		}
		wall := time.Since(t0)
		if err := p.CheckInvariant(); err != nil {
			return ParallelGridBench{}, err
		}
		events := p.Kernel().Executed()
		run := ParallelRun{
			Workers:     workers,
			WallSeconds: wall.Seconds(),
			Hash:        trajectoryHash(p.Stats(), ts),
		}
		if wall > 0 {
			run.EventsPerSec = float64(events) / wall.Seconds()
		}
		if len(gb.Runs) == 0 {
			gb.Events = events
			gb.Hash = run.Hash
			run.Speedup = 1
		} else {
			if base := gb.Runs[0].EventsPerSec; base > 0 {
				run.Speedup = run.EventsPerSec / base
			}
			if events != gb.Events {
				return ParallelGridBench{}, fmt.Errorf("parbench %s: workers=%d executed %d events, workers=1 executed %d — determinism broken", gs.name, workers, events, gb.Events)
			}
		}
		if run.Hash != gb.Hash {
			return ParallelGridBench{}, fmt.Errorf("parbench %s: workers=%d trajectory hash %s != workers=1 hash %s — determinism broken", gs.name, workers, run.Hash, gb.Hash)
		}
		gb.Runs = append(gb.Runs, run)
	}
	return gb, nil
}
