package experiments

// Giant-grid scaling benchmark for the sharded parallel kernel: the
// 500x500 (250k-cell) and 1000x1000 (10^6-cell) wrapped lattices that
// motivated the compact per-cell state and sparse cross-shard routing
// work. Where parbench.go measures worker scaling on mid-size grids,
// this harness measures what survives at giant-grid scale: events/sec,
// bytes of heap per cell, peak heap and peak RSS over the run, and the
// per-shard cross-shard route count (which must stay O(neighbor
// shards), not O(shards)). Every (shards, workers) combination records
// a trajectory hash; all combinations of one grid must hash
// identically — the determinism-across-partitioning contract made
// machine-checkable — and cmd/benchdelta pins the hash across reports.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// ScaleRun is one (shards, workers) measurement of one grid.
type ScaleRun struct {
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	// SetupSeconds covers workload priming — kernel reserves plus, in
	// the steady section, the O(cells) warm-start seeding that replaces
	// a simulated ramp (compare against the grid's RampEstSeconds).
	SetupSeconds float64 `json:"setup_seconds,omitempty"`
	// WallSeconds covers the simulation only (construction and priming
	// excluded).
	WallSeconds float64 `json:"wall_seconds"`
	// RunSeconds and DrainSeconds (steady section only) split
	// WallSeconds at the wall-clock instant the slowest shard clock
	// first reached the arrival window's end: RunSeconds is the
	// measured window plus warmup, DrainSeconds is everything after —
	// the post-duration churn the truncated drain bounds.
	RunSeconds   float64 `json:"run_seconds,omitempty"`
	DrainSeconds float64 `json:"drain_seconds,omitempty"`
	// EventsPerSec = kernel events / WallSeconds.
	EventsPerSec float64 `json:"events_per_sec"`
	// MeanOccupancy is held channels / Σ primary allocations, sampled
	// at every window barrier inside [warmup, duration]: how loaded the
	// grid actually was, so a silently-idle bench is visible in the
	// artifact. Identical across combinations by determinism.
	MeanOccupancy float64 `json:"mean_occupancy"`
	// BorrowAttempts counts borrow-path rounds over the whole run:
	// update-permission rounds (successful or not) plus search rounds
	// (every one ends in a search grant or a drop). Identical across
	// combinations by determinism.
	BorrowAttempts uint64 `json:"borrow_attempts"`
	// Hash is this run's trajectory hash; must equal the grid's.
	Hash string `json:"trajectory_hash"`
}

// ScaleGridBench is the giant-grid measurement of one lattice.
type ScaleGridBench struct {
	// Grid names the lattice ("500x500", "1000x1000").
	Grid string `json:"grid"`
	// Cells is the cell count.
	Cells int `json:"cells"`
	// Events is the kernel event count (identical across every
	// combination by the determinism contract).
	Events uint64 `json:"events"`
	// Hash is the grid's trajectory hash, identical for every (shards,
	// workers) combination in Runs and pinned across reports.
	Hash string `json:"trajectory_hash"`
	// BytesPerCell is the measured construction footprint: the GC-settled
	// heap delta across factory + driver construction at the first
	// combination, divided by Cells. This is the number the compact
	// per-cell state work optimises.
	BytesPerCell float64 `json:"bytes_per_cell"`
	// PeakHeapBytes is the largest GC-live heap observed at any window
	// barrier across all runs of this grid.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// PeakRSSBytes is the process peak resident set (VmHWM) after this
	// grid's runs, 0 where /proc is unavailable. The counter is reset
	// before the grid's first run when the kernel allows it, so on Linux
	// this is per grid, not per process lifetime.
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`
	// MaxRoutesPerShard is the largest number of cross-shard routes any
	// shard materialised at the highest shard count — the sparse-routing
	// guarantee (O(neighbor shards), not O(shards)) read off the run.
	MaxRoutesPerShard int `json:"max_routes_per_shard"`
	// MeanOccupancy and BorrowAttempts lift the per-run values (equal
	// across combinations) to grid level; BorrowAttemptsPerSec uses the
	// first combination's wall clock.
	MeanOccupancy        float64 `json:"mean_occupancy"`
	BorrowAttempts       uint64  `json:"borrow_attempts"`
	BorrowAttemptsPerSec float64 `json:"borrow_attempts_per_sec"`
	// DrainMode records how the post-duration drain terminated:
	// "truncated" when it was cut at Spec.DrainHorizon with held calls
	// force-released, empty for a full drain to natural quiescence.
	// Trajectory hashes are only comparable between reports with the
	// same mode — the drain era resolves deferred requests that a
	// truncated run cancels — and cmd/benchdelta refuses to compare
	// them across modes.
	DrainMode string `json:"drain_mode,omitempty"`
	// MeasuredHash (steady section only) digests the statistics that
	// are invariant across drain modes: the measurement-window offered
	// load (arrivals stop at the duration, so truncating the drain
	// cannot change them) and the barrier-sampled mean occupancy
	// (sampled inside [warmup, duration], before truncation can act).
	// cmd/benchdelta pins it across reports even when drain_mode
	// differs, where the trajectory hash cannot be.
	MeasuredHash string `json:"measured_hash,omitempty"`
	// RampEstSeconds (steady section only) estimates the wall-clock of
	// reaching stationary occupancy the old way — simulating one mean
	// hold of ramp at the first combination's measured event rate —
	// against which each run's SetupSeconds is the warm-start actual.
	RampEstSeconds float64 `json:"ramp_est_seconds,omitempty"`
	// Runs are the per-combination measurements.
	Runs []ScaleRun `json:"runs"`
}

// ScaleBench is the "scale" section of the bench report. Grids is the
// arrival-ramp workload that pins construction footprint and kernel
// throughput from a cold grid; Steady is the warm-started hot-spot
// workload that measures the same lattices *under borrowing pressure*
// (stationary ~0.9 occupancy, five stationary hot zones pushed past
// their primary allocations).
type ScaleBench struct {
	Grids  []ScaleGridBench `json:"grids"`
	Steady []ScaleGridBench `json:"steady,omitempty"`
}

// scaleGridSpec fixes one benchmark lattice. Shard and worker counts
// are part of the scenario (machine-independent), so the trajectory
// hash reproduces on any host. steady switches the workload from the
// cold arrival ramp to the warm-started hot-spot profile.
type scaleGridSpec struct {
	name          string
	width, height int
	duration      sim.Time
	steady        bool
}

func scaleGrids(quick bool) []scaleGridSpec {
	if quick {
		return []scaleGridSpec{
			{name: "500x500", width: 500, height: 500, duration: 300},
		}
	}
	return []scaleGridSpec{
		{name: "500x500", width: 500, height: 500, duration: 900},
		{name: "1000x1000", width: 1000, height: 1000, duration: 450},
	}
}

// steadyGrids lists the warm-started steady-state lattices. The arrival
// window can be short — occupancy starts stationary — but held calls
// still drain to quiescence, so most of the measured events are the
// borrow/release churn of a loaded grid, not ramp-up.
func steadyGrids(quick bool) []scaleGridSpec {
	if quick {
		return []scaleGridSpec{
			{name: "500x500", width: 500, height: 500, duration: 150, steady: true},
		}
	}
	return []scaleGridSpec{
		{name: "500x500", width: 500, height: 500, duration: 300, steady: true},
		{name: "1000x1000", width: 1000, height: 1000, duration: 300, steady: true},
	}
}

// scaleCombos is the (shards, workers) grid: two shard counts by two
// worker counts, so the hash equality across Runs pins determinism in
// both dimensions at once.
func scaleCombos() [][2]int {
	return [][2]int{{64, 1}, {64, 2}, {256, 1}, {256, 2}}
}

// RunScaleBench measures the sharded kernel at giant-grid scale. Quick
// mode drops the 10^6-cell lattice and shortens the arrival window for
// CI smoke; the 500x500 grid keeps the full combination matrix either
// way, so the determinism gates always cover ≥2 shard counts and ≥2
// worker counts.
func RunScaleBench(quick bool) (ScaleBench, error) {
	var out ScaleBench
	for _, gs := range scaleGrids(quick) {
		gb, err := runScaleGrid(gs)
		if err != nil {
			return ScaleBench{}, err
		}
		out.Grids = append(out.Grids, gb)
	}
	for _, gs := range steadyGrids(quick) {
		gb, err := runScaleGrid(gs)
		if err != nil {
			return ScaleBench{}, err
		}
		out.Steady = append(out.Steady, gb)
	}
	return out, nil
}

// Steady-workload constants: a 9-Erlang base load — 150-225% of the
// 4-6 primaries a cell gets on these lattices, whose sides are not
// multiples of 7 — plus five stationary hot zones pushed well past it,
// so borrow/search rounds, defer queues and cross-shard interference
// traffic run continuously.
const (
	steadyErlang    = 9.0
	steadyHotErlang = 13.5
	steadyHotRadius = 2
)

// steadyDrainHorizon truncates the steady section's post-duration
// drain: held calls get this many ticks past the arrival window to
// resolve naturally (ten message latencies — several complete borrow
// rounds, so protocol exchanges in flight at the window's edge finish
// on their own), then the remainder are force-released in canonical
// order. Every statistic the bench reports is fixed by events at or
// before the window's end, so the horizon's size is a wall-clock
// knob, not a correctness one (the traffic truncation suite asserts
// the measured window bit-exact at any horizon); it is kept small
// because a warm grid's hang-up churn costs run-phase money for every
// extra tick — the tail truncation exists to skip.
const steadyDrainHorizon = sim.Time(100)

// measuredHash digests the drain-mode-invariant outcome of a steady
// run: the measurement-window offered load per cell plus the
// barrier-sampled mean occupancy. Unlike the trajectory hash it is
// comparable between a truncated and a full-drain report, because
// nothing it covers can be affected by events after the arrival
// window ends.
func measuredHash(ts traffic.Stats, occupancy float64) string {
	h := sha256.New()
	hashU64s(h, ts.Offered, floatBits(occupancy))
	for _, v := range ts.PerCellOffered {
		hashU64s(h, v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// steadyProfile builds the hot-spot-at-scale profile: steadyErlang
// everywhere with steadyHotErlang zones at the four quarter points and
// the center of the lattice, active for the whole arrival window (the
// ProfileSpec vocabulary scenarios use, so the bench workload is
// expressible as a scenario file too).
func steadyProfile(grid *hexgrid.Grid, gs scaleGridSpec, meanHold float64) (traffic.Profile, error) {
	ps := traffic.ProfileSpec{BaseRate: steadyErlang / meanHold}
	w, h := gs.width, gs.height
	centers := [][2]int{
		{w / 4, h / 4}, {3 * w / 4, h / 4},
		{w / 4, 3 * h / 4}, {3 * w / 4, 3 * h / 4},
		{w / 2, h / 2},
	}
	for _, c := range centers {
		ps.Phases = append(ps.Phases, traffic.PhaseSpec{
			Center: hexgrid.CellID(c[1]*w + c[0]), // Rect id = row*width+col
			Radius: steadyHotRadius,
			Rate:   steadyHotErlang / meanHold,
			Start:  0,
			End:    gs.duration + 1,
		})
	}
	return traffic.BuildProfile(grid, ps)
}

// borrowAttempts counts the borrow-path rounds recorded in the driver
// counters: update-permission rounds (successful or not) plus search
// rounds, each of which ends in a search grant or a drop.
func borrowAttempts(st driver.Stats) uint64 {
	return st.Counters.UpdateAttempts + st.Counters.GrantsSearch + st.Counters.Drops
}

func runScaleGrid(gs scaleGridSpec) (ScaleGridBench, error) {
	grid, err := hexgrid.New(hexgrid.Config{
		Shape: hexgrid.Rect, Width: gs.width, Height: gs.height,
		ReuseDistance: 2, Wrap: true,
	})
	if err != nil {
		return ScaleGridBench{}, err
	}
	assign, err := chanset.Assign(grid, 70)
	if err != nil {
		return ScaleGridBench{}, err
	}
	const (
		latency  = sim.Time(10)
		meanHold = 3000.0
		// These lattices' sides are not multiples of 7, so cells get
		// 4-6 primaries: 9 Erlang is 150-225% of a cell's primary set,
		// which forces heavy borrowing.
		erlang = 9.0
	)
	spec := traffic.Spec{
		Profile:  traffic.Uniform{PerCell: erlang / meanHold},
		MeanHold: meanHold,
		Duration: gs.duration,
		Warmup:   gs.duration / 5,
		Seed:     101,
	}
	if gs.steady {
		profile, err := steadyProfile(grid, gs, meanHold)
		if err != nil {
			return ScaleGridBench{}, err
		}
		spec.Profile = profile
		spec.WarmStart = true
		spec.DrainHorizon = steadyDrainHorizon
	}
	var capacity uint64
	for c := range assign.Primary {
		capacity += uint64(assign.Primary[c].Len())
	}
	gb := ScaleGridBench{Grid: gs.name, Cells: grid.NumCells()}
	resetPeakRSS()
	for _, combo := range scaleCombos() {
		shards, workers := combo[0], combo[1]
		factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: latency})
		if err != nil {
			return ScaleGridBench{}, err
		}
		measureFootprint := len(gb.Runs) == 0
		var m0 runtime.MemStats
		if measureFootprint {
			runtime.GC()
			runtime.ReadMemStats(&m0)
		}
		p, err := driver.NewParallel(grid, assign, factory, driver.ParallelOptions{
			Latency: latency, Seed: 101, Shards: shards, Workers: workers,
		})
		if err != nil {
			return ScaleGridBench{}, err
		}
		if measureFootprint {
			runtime.GC()
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			gb.BytesPerCell = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(gb.Cells)
		}
		// Sample the live heap at window barriers (every 8th window: a
		// ReadMemStats per window would tax short windows) and the
		// held-channel count inside [warmup, duration] for measured
		// occupancy. Safe because the bench does not use
		// ParallelOptions.Check, the only other SetBarrier client. The
		// occupancy samples are integer counts taken at deterministic
		// barrier times, so MeanOccupancy is identical across combos.
		var window, occSum, occN uint64
		var runEnded time.Time
		kern := p.Kernel()
		kern.SetBarrier(func() {
			if window++; window%8 == 0 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > gb.PeakHeapBytes {
					gb.PeakHeapBytes = ms.HeapAlloc
				}
			}
			var now sim.Time
			for s := 0; s < kern.NumShards(); s++ {
				if t := kern.Now(s); t > now {
					now = t
				}
			}
			if now >= spec.Warmup && now <= spec.Duration {
				occSum += p.ActiveCalls()
				occN++
			}
			if runEnded.IsZero() && now >= spec.Duration {
				runEnded = time.Now()
			}
		})
		runtime.GC()
		t0 := time.Now()
		primed, err := traffic.PrimeParallel(p, spec)
		if err != nil {
			return ScaleGridBench{}, err
		}
		setup := time.Since(t0)
		t0 = time.Now()
		ts, err := primed.Finish()
		if err != nil {
			return ScaleGridBench{}, err
		}
		wall := time.Since(t0)
		if err := p.CheckInvariant(); err != nil {
			return ScaleGridBench{}, err
		}
		events := p.Kernel().Executed()
		st := p.Stats()
		run := ScaleRun{
			Shards:         shards,
			Workers:        workers,
			WallSeconds:    wall.Seconds(),
			BorrowAttempts: borrowAttempts(st),
			Hash:           trajectoryHash(st, ts),
		}
		if gs.steady {
			run.SetupSeconds = setup.Seconds()
			if !runEnded.IsZero() {
				run.RunSeconds = runEnded.Sub(t0).Seconds()
				run.DrainSeconds = wall.Seconds() - run.RunSeconds
			}
		}
		if occN > 0 && capacity > 0 {
			run.MeanOccupancy = float64(occSum) / float64(occN) / float64(capacity)
		}
		if wall > 0 {
			run.EventsPerSec = float64(events) / wall.Seconds()
		}
		if len(gb.Runs) == 0 {
			gb.Events = events
			gb.Hash = run.Hash
			gb.MeanOccupancy = run.MeanOccupancy
			gb.BorrowAttempts = run.BorrowAttempts
			if gs.steady {
				gb.MeasuredHash = measuredHash(ts, run.MeanOccupancy)
				if spec.DrainHorizon > 0 {
					gb.DrainMode = "truncated"
				}
			}
			if wall > 0 {
				gb.BorrowAttemptsPerSec = float64(run.BorrowAttempts) / wall.Seconds()
				if gs.steady {
					// One mean hold of simulated ramp at this run's event
					// rate — what warm-start seeding replaced. The run
					// spans duration + drain; scale wall-clock to
					// meanHold ticks of it.
					var span sim.Time
					for s := 0; s < kern.NumShards(); s++ {
						if t := kern.Now(s); t > span {
							span = t
						}
					}
					if span > 0 {
						gb.RampEstSeconds = wall.Seconds() * meanHold / float64(span)
					}
				}
			}
		} else {
			if events != gb.Events {
				return ScaleGridBench{}, fmt.Errorf(
					"scalebench %s: shards=%d workers=%d executed %d events, first combo executed %d — determinism broken",
					gs.name, shards, workers, events, gb.Events)
			}
			if run.Hash != gb.Hash {
				return ScaleGridBench{}, fmt.Errorf(
					"scalebench %s: shards=%d workers=%d trajectory hash %s != first combo hash %s — determinism broken",
					gs.name, shards, workers, run.Hash, gb.Hash)
			}
			if run.MeanOccupancy != gb.MeanOccupancy || run.BorrowAttempts != gb.BorrowAttempts {
				return ScaleGridBench{}, fmt.Errorf(
					"scalebench %s: shards=%d workers=%d occupancy/borrow (%v, %d) != first combo (%v, %d) — determinism broken",
					gs.name, shards, workers, run.MeanOccupancy, run.BorrowAttempts, gb.MeanOccupancy, gb.BorrowAttempts)
			}
		}
		if shards == maxScaleShards() {
			for s := 0; s < shards; s++ {
				if r := p.Kernel().Routes(s); r > gb.MaxRoutesPerShard {
					gb.MaxRoutesPerShard = r
				}
			}
		}
		gb.Runs = append(gb.Runs, run)
	}
	gb.PeakRSSBytes = readPeakRSS()
	return gb, nil
}

// maxScaleShards is the shard count whose route sparsity the report
// records.
func maxScaleShards() int {
	max := 0
	for _, c := range scaleCombos() {
		if c[0] > max {
			max = c[0]
		}
	}
	return max
}

// readPeakRSS returns the process peak resident set in bytes from
// /proc/self/status (VmHWM), or 0 where that is unavailable.
func readPeakRSS() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseUint(string(fields[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// resetPeakRSS clears the kernel's VmHWM counter so readPeakRSS
// reflects the measurement that follows rather than earlier process
// history. Best-effort: silently a no-op where /proc/self/clear_refs
// is absent or read-only.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
