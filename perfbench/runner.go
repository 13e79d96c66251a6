package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"

	"repro"
	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/registry"
	"repro/internal/traffic"
)

// Child run modes.
const (
	modeRun    = "run"    // untraced: only the entry points a user calls
	modeTraced = "traced" // factory decorator, barrier hook, runtime sampling
	modeVerify = "verify" // untraced run plus a sampled Theorem-1 check at barriers
)

// runResult is what one run reports. A child process prints it as one
// JSON line; the parent aggregates.
type runResult struct {
	Mode      string             `json:"mode"`
	Err       string             `json:"err,omitempty"`
	Digest    string             `json:"digest"`
	SetupS    float64            `json:"setup_s"`
	RunS      float64            `json:"run_s"`
	CPUS      float64            `json:"cpu_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Outputs   outputs            `json:"outputs"`
	Meta      runMeta            `json:"meta"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	CheckMS   []float64          `json:"check_ms,omitempty"`
}

// outputs are the model's results, checked (through the digest and
// range checks) but not performance metrics.
type outputs struct {
	BlockingProbability float64 `json:"blocking_probability"`
	MsgsPerCall         float64 `json:"msgs_per_call"`
	Offered             uint64  `json:"offered"`
}

// runMeta records the configuration a run measured.
type runMeta struct {
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Cells        int    `json:"cells"`
	Shards       int    `json:"shards"`
	Workers      int    `json:"workers"`
	PrimariesMin int    `json:"primaries_min"`
	PrimariesMax int    `json:"primaries_max"`
}

func newMeta(w workload, seed uint64) runMeta {
	return runMeta{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workload: w.name, Seed: seed, Shards: w.shards, Workers: w.workers,
	}
}

// guard refuses configurations whose numbers would measure nothing: a
// worker count above GOMAXPROCS is not parallel, and GOMAXPROCS above
// the CPU count is not a scaling measurement.
func guard(workers int) error {
	gmp, ncpu := runtime.GOMAXPROCS(0), runtime.NumCPU()
	if workers > gmp {
		return fmt.Errorf("refusing to run: %d workers > GOMAXPROCS %d", workers, gmp)
	}
	if gmp > ncpu {
		return fmt.Errorf("refusing to run: GOMAXPROCS %d > NumCPU %d", gmp, ncpu)
	}
	return nil
}

// runOnce executes one run of w in the current process.
func runOnce(w workload, seed uint64, mode string) (runResult, *tracer, error) {
	if err := guard(w.workers); err != nil {
		return runResult{}, nil, err
	}
	if w.sweep {
		return runSweep(w, seed, mode)
	}
	return runSharded(w, seed, mode)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set (Linux reports ru_maxrss
// in KiB). Each run is its own process, so this is per workload.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rtSnap is a runtime counter snapshot; traced runs difference two.
type rtSnap struct {
	numGC               uint32
	pauseNS             uint64
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return rtSnap{
		numGC: ms.NumGC, pauseNS: ms.PauseTotalNs, mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		gcCPU: sampleFloat(s[0]), totalCPU: sampleFloat(s[1]),
	}
}

func sampleFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// liveHeap is reused across barrier samples to keep sampling
// allocation-free.
var liveHeapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeap returns the heap live at the end of the last GC mark.
func liveHeap() uint64 {
	metrics.Read(liveHeapSample)
	if liveHeapSample[0].Value.Kind() == metrics.KindUint64 {
		return liveHeapSample[0].Value.Uint64()
	}
	return 0
}

// settledLiveHeap forces a collection so the live heap is current.
func settledLiveHeap() uint64 {
	runtime.GC()
	return liveHeap()
}

// gcLayers fills the runtime metrics from two snapshots.
func gcLayers(l map[string]float64, a, b rtSnap) {
	l["gc.cycles"] = float64(b.numGC - a.numGC)
	l["gc.pause_ms"] = float64(b.pauseNS-a.pauseNS) / 1e6
	if d := b.totalCPU - a.totalCPU; d > 0 {
		l["gc.cpu_fraction"] = (b.gcCPU - a.gcCPU) / d
	}
}

// shardedSpec builds the workload over grid: a uniform base load plus,
// for the hot-spot workload, five hot zones at the lattice's quarter
// points and centre, active for the whole arrival window.
func shardedSpec(grid *hexgrid.Grid, w workload, seed uint64) (traffic.Spec, error) {
	ps := traffic.ProfileSpec{BaseRate: w.baseErlang / meanHold}
	if w.hotErlang > 0 {
		s := w.side
		centers := [][2]int{{s / 4, s / 4}, {3 * s / 4, s / 4}, {s / 4, 3 * s / 4}, {3 * s / 4, 3 * s / 4}, {s / 2, s / 2}}
		for _, c := range centers {
			ps.Phases = append(ps.Phases, traffic.PhaseSpec{
				Center: hexgrid.CellID(c[1]*s + c[0]), // Rect id = row*width + col
				Radius: w.hotRadius,
				Rate:   w.hotErlang / meanHold,
				End:    w.duration + 1,
			})
		}
	}
	profile, err := traffic.BuildProfile(grid, ps)
	if err != nil {
		return traffic.Spec{}, err
	}
	return traffic.Spec{
		Profile: profile, MeanHold: meanHold, HandoffRate: w.handoff,
		Duration: w.duration, Seed: seed, WarmStart: true, DrainHorizon: w.drain,
	}, nil
}

func primaryRange(assign *chanset.Assignment) (lo, hi int) {
	lo = math.MaxInt
	for c := range assign.Primary {
		n := assign.Primary[c].Len()
		lo, hi = min(lo, n), max(hi, n)
	}
	return lo, hi
}

func seconds(d int64) float64 { return float64(d) / 1e9 }

// runSharded builds and runs a sharded workload through the calls a
// user makes: hexgrid.New → chanset.Assign → registry.Build →
// driver.NewParallel → traffic.PrimeParallel → Finish. setup_s ends when
// the first tick can run; run_s is Finish. In traced mode the factory is
// decorated and a barrier hook samples the kernel; in verify mode the
// hook checks Theorem 1 every w.checkEvery windows.
func runSharded(w workload, seed uint64, mode string) (runResult, *tracer, error) {
	res := runResult{Mode: mode, Meta: newMeta(w, seed)}
	l := map[string]float64{}
	var tr *tracer
	var setupID int
	if mode == modeTraced {
		tr = newTracer(w.shards)
	}
	cpu0 := cpuSeconds()
	t := nowNS()
	if tr != nil {
		setupID = tr.open("setup", 0, t)
	}
	// step closes one timed setup step: it adds to setup_s, records the
	// step's per-layer metric and, traced, its span. skip restarts the
	// clock after tracing-only work so it is not charged to setup.
	var setupNS int64
	step := func(span string) {
		n := nowNS()
		setupNS += n - t
		l[span+"_s"] = seconds(n - t)
		if tr != nil {
			tr.span(span, setupID, t, n)
		}
		t = n
	}
	skip := func() { t = nowNS() }

	grid, err := hexgrid.New(hexgrid.Config{
		Shape: hexgrid.Rect, Width: w.side, Height: w.side, ReuseDistance: reuseDistance, Wrap: true,
	})
	if err != nil {
		return res, nil, err
	}
	step("hexgrid.new")
	assign, err := chanset.Assign(grid, channels)
	if err != nil {
		return res, nil, err
	}
	step("chanset.assign")
	factory, err := registry.Build("adaptive", grid, assign, registry.Config{Latency: latency})
	if err != nil {
		return res, nil, err
	}
	step("registry.build")
	var part *hexgrid.Partition
	if tr != nil {
		// The decorator maps cells to shards with the partition the
		// driver will build (a pure function of grid and shard count);
		// checked against the driver's own below.
		if part, err = grid.Partition(w.shards); err != nil {
			return res, nil, err
		}
		factory = tr.wrap(factory, part)
		skip()
	}
	p, err := driver.NewParallel(grid, assign, factory, driver.ParallelOptions{
		Latency: latency, Seed: seed, Shards: w.shards, Workers: w.workers,
	})
	if err != nil {
		return res, nil, err
	}
	step("driver.new_parallel")
	if tr != nil {
		for c := 0; c < grid.NumCells(); c++ {
			if p.Partition().ShardOf(hexgrid.CellID(c)) != part.ShardOf(hexgrid.CellID(c)) {
				return res, nil, fmt.Errorf("driver partition differs from grid.Partition(%d) at cell %d", w.shards, c)
			}
		}
		l["heap.bytes_per_cell.wired"] = float64(settledLiveHeap()) / float64(grid.NumCells())
		skip()
	}
	spec, err := shardedSpec(grid, w, seed)
	if err != nil {
		return res, nil, err
	}
	primed, err := traffic.PrimeParallel(p, spec)
	if err != nil {
		return res, nil, err
	}
	step("traffic.prime")
	res.SetupS = seconds(setupNS)
	if tr != nil {
		tr.close(setupID, t)
		l["heap.bytes_per_cell.primed"] = float64(settledLiveHeap()) / float64(grid.NumCells())
		tr.resetOps()
	}

	kern := p.Kernel()
	var (
		runID        int
		windows      []float64 // traced: wall ms per window
		lastBarrier  int64
		splitAt      int64
		peakLive     uint64
		pendingPeak  int
		barrierCount int
		checkErr     error
		rt0          rtSnap
		cpuRun0      float64
	)
	switch mode {
	case modeTraced:
		kern.SetBarrier(func() {
			n := nowNS()
			windows = append(windows, float64(n-lastBarrier)/1e6)
			tr.span("sim.window", runID, lastBarrier, n)
			lastBarrier = n
			peakLive = max(peakLive, liveHeap())
			pendingPeak = max(pendingPeak, kern.Pending())
			if splitAt == 0 {
				slowest := kern.Now(0)
				for s := 1; s < kern.NumShards(); s++ {
					slowest = min(slowest, kern.Now(s))
				}
				if slowest >= spec.Duration {
					splitAt = n
				}
			}
		})
		rt0 = readRuntime()
		cpuRun0 = cpuSeconds()
	case modeVerify:
		kern.SetBarrier(func() {
			if barrierCount++; barrierCount%w.checkEvery != 0 {
				return
			}
			t0 := nowNS()
			err := p.CheckInvariant()
			res.CheckMS = append(res.CheckMS, float64(nowNS()-t0)/1e6)
			if err != nil && checkErr == nil {
				checkErr = fmt.Errorf("Theorem 1 violated at window %d: %w", barrierCount, err)
			}
		})
	}

	runStart := nowNS()
	if tr != nil {
		runID = tr.open("traffic.finish", 0, runStart)
	}
	lastBarrier = runStart
	ts, err := primed.Finish()
	if err != nil {
		return res, nil, err
	}
	runEnd := nowNS()
	res.RunS = seconds(runEnd - runStart)
	res.CPUS = cpuSeconds() - cpu0
	var runCPU float64
	var rt1 rtSnap
	if tr != nil {
		runCPU = cpuSeconds() - cpuRun0
		rt1 = readRuntime()
		tr.close(runID, runEnd)
		kern.SetBarrier(nil)
	}

	// Checks and merges, outside the timed region.
	if checkErr != nil {
		return res, nil, checkErr
	}
	if n := p.Outstanding(); n != 0 {
		return res, nil, fmt.Errorf("%d requests outstanding after Finish", n)
	}
	t0 := nowNS()
	st := p.Stats()
	t1 := nowNS()
	if err := p.CheckInvariant(); err != nil {
		return res, nil, fmt.Errorf("Theorem 1 violated at end of run: %w", err)
	}
	t2 := nowNS()
	if mode != modeVerify {
		res.CheckMS = append(res.CheckMS, float64(t2-t1)/1e6)
	}
	if err := checkTraffic(ts, st); err != nil {
		return res, nil, err
	}
	res.Digest = shardedDigest(ts, st)
	res.Outputs = outputs{
		BlockingProbability: ts.BlockingProbability(),
		MsgsPerCall:         st.MessagesPerRequest(),
		Offered:             ts.Offered,
	}
	res.Meta.Cells = grid.NumCells()
	res.Meta.PrimariesMin, res.Meta.PrimariesMax = primaryRange(assign)
	res.PeakRSSMB = peakRSSMB()
	if tr == nil {
		return res, nil, nil
	}

	mergeID := tr.open("merge", 0, t0)
	tr.span("driver.stats_merge", mergeID, t0, t1)
	tr.span("driver.check", mergeID, t1, t2)
	tr.close(mergeID, t2)
	res.Layers = l
	l["driver.stats_merge_ms"] = float64(t1-t0) / 1e6
	events := kern.Executed()
	l["sim.events"] = float64(events)
	l["sim.windows"] = float64(kern.Windows())
	l["sim.events_per_window"] = ratio(float64(events), float64(kern.Windows()))
	l["sim.window_ms.p50"] = quantile(windows, 0.5)
	l["sim.window_ms.p_hi"] = quantile(windows, highQuantile(len(windows)))
	l["sim.pending_peak"] = float64(pendingPeak)
	routes := 0
	for s := 0; s < kern.NumShards(); s++ {
		routes = max(routes, kern.Routes(s))
	}
	l["sim.routes_max"] = float64(routes)
	msgs := float64(st.Messages.Total)
	l["sim.message_event_share"] = ratio(msgs, float64(events))

	for _, op := range append(coreOps(), opSend, opResult, opAfter) {
		a := tr.op(op)
		l[opNames[op]+".count"] = float64(a.Count)
		l[opNames[op]+".self_ns"] = ratio(float64(a.SelfNS), float64(a.Count))
	}
	l["core.new_s"] = seconds(tr.newNS)
	var busyMax, busySum float64
	for i := range tr.shards {
		b := float64(tr.shards[i].busyNS)
		busyMax, busySum = max(busyMax, b), busySum+b
	}
	l["core.shard_busy.max_over_mean"] = ratio(busyMax, busySum/float64(len(tr.shards)))
	l["trace.covered_cpu_share"] = ratio(busySum/1e9, runCPU)
	c := st.Counters
	l["core.grants.local"] = float64(c.GrantsLocal)
	l["core.grants.update"] = float64(c.GrantsUpdate)
	l["core.grants.search"] = float64(c.GrantsSearch)
	l["core.drops"] = float64(c.Drops)
	l["core.update_attempts"] = float64(c.UpdateAttempts)
	l["core.update_success_ratio"] = ratio(float64(c.GrantsUpdate), float64(c.UpdateAttempts))
	l["core.deferred"] = float64(c.Deferred)
	l["core.mode_changes"] = float64(c.ModeChanges)
	l["driver.msgs_per_grant"] = ratio(msgs, float64(st.Grants))
	l["driver.check_ms"] = mean(res.CheckMS)

	l["traffic.finish_s"] = res.RunS
	if splitAt > 0 {
		l["traffic.run_s"] = seconds(splitAt - runStart)
		l["traffic.drain_s"] = seconds(runEnd - splitAt)
	}
	l["traffic.offered"] = float64(ts.Offered)
	l["traffic.blocked"] = float64(ts.Blocked)
	l["traffic.handoff_attempts"] = float64(ts.HandoffAttempts)
	l["traffic.handoff_drops"] = float64(ts.HandoffDrops)
	l["chanset.primaries_min"] = float64(res.Meta.PrimariesMin)
	l["chanset.primaries_max"] = float64(res.Meta.PrimariesMax)

	gcLayers(l, rt0, rt1)
	l["heap.allocs_per_event"] = ratio(float64(rt1.mallocs-rt0.mallocs), float64(events))
	l["heap.alloc_bytes_per_event"] = ratio(float64(rt1.allocBytes-rt0.allocBytes), float64(events))
	l["heap.bytes_per_cell.peak"] = float64(peakLive) / float64(grid.NumCells())
	return res, tr, nil
}

// checkTraffic verifies the workload statistics are self-consistent.
func checkTraffic(ts traffic.Stats, st driver.Stats) error {
	var off, blk uint64
	for c := range ts.PerCellOffered {
		off += ts.PerCellOffered[c]
		blk += ts.PerCellBlocked[c]
	}
	switch {
	case ts.Offered == 0:
		return fmt.Errorf("no calls offered")
	case off != ts.Offered || blk != ts.Blocked:
		return fmt.Errorf("per-cell offered/blocked %d/%d disagree with totals %d/%d", off, blk, ts.Offered, ts.Blocked)
	case ts.Blocked > ts.Offered || ts.HandoffDrops > ts.HandoffAttempts:
		return fmt.Errorf("more failures than attempts: blocked %d of %d, handoff drops %d of %d",
			ts.Blocked, ts.Offered, ts.HandoffDrops, ts.HandoffAttempts)
	case st.Grants == 0 || st.Messages.Total == 0:
		return fmt.Errorf("driver recorded %d grants and %d messages", st.Grants, st.Messages.Total)
	case st.Counters.Grants() != st.Grants:
		return fmt.Errorf("protocol counters grant %d, driver %d", st.Counters.Grants(), st.Grants)
	}
	return nil
}

// runSweep reproduces the paper's load sweep only through the public
// facade: adca.New and Network.RunWorkload for every (load, seed), one
// after another on one goroutine. setup_s sums the New calls and run_s
// the RunWorkload calls.
func runSweep(w workload, seed uint64, mode string) (runResult, *tracer, error) {
	res := runResult{Mode: mode, Meta: newMeta(w, seed)}
	traced := mode == modeTraced
	var tr *tracer
	var rt0 rtSnap
	if traced {
		tr = newTracer(0)
		rt0 = readRuntime()
	}
	cpuStart := cpuSeconds()
	d := sweepDigester{newDigester()}
	var newNS, runNS int64
	var cpu float64
	var peakLive, wired uint64
	var wsum adca.WorkloadStats
	var sum adca.Stats
	cells := w.sweepSide * w.sweepSide
	for _, load := range w.loads {
		for k := 0; k < w.sweepSeeds; k++ {
			s := seed*1000 + uint64(k)
			var pointID int
			if traced {
				pointID = tr.open(fmt.Sprintf("sweep.point load=%g seed=%d", load, s), 0, nowNS())
			}
			c0, t0 := cpuSeconds(), nowNS()
			n, err := adca.New(adca.Scenario{
				GridWidth: w.sweepSide, GridHeight: w.sweepSide, Wrap: true,
				ReuseDistance: reuseDistance, Channels: channels, LatencyTicks: int64(latency), Seed: s,
			})
			t1 := nowNS()
			newNS += t1 - t0
			cpu += cpuSeconds() - c0
			if err != nil {
				return res, nil, err
			}
			if traced {
				tr.span("adca.new", pointID, t0, t1)
				if wired == 0 {
					wired = settledLiveHeap()
				}
			}
			if res.Meta.Cells == 0 {
				res.Meta.Cells = n.NumCells()
				res.Meta.PrimariesMin = math.MaxInt
				for c := 0; c < n.NumCells(); c++ {
					np := len(n.Primaries(c))
					res.Meta.PrimariesMin = min(res.Meta.PrimariesMin, np)
					res.Meta.PrimariesMax = max(res.Meta.PrimariesMax, np)
				}
			}
			c0, t0 = cpuSeconds(), nowNS()
			ws, err := n.RunWorkload(adca.Workload{
				ErlangPerCell: load, MeanHoldTicks: meanHold,
				DurationTicks: w.sweepDur, WarmupTicks: w.sweepWarm, Seed: s,
			})
			t1 = nowNS()
			runNS += t1 - t0
			cpu += cpuSeconds() - c0
			if err != nil {
				return res, nil, fmt.Errorf("load %v seed %d: %w", load, s, err)
			}
			if traced {
				tr.span("adca.run_workload", pointID, t0, t1)
				peakLive = max(peakLive, liveHeap())
			}
			t0 = nowNS()
			if err := n.CheckInterference(); err != nil {
				return res, nil, fmt.Errorf("load %v seed %d: Theorem 1 violated: %w", load, s, err)
			}
			res.CheckMS = append(res.CheckMS, float64(nowNS()-t0)/1e6)
			st := n.Stats()
			if ws.Offered == 0 || ws.Blocked > ws.Offered || st.Grants == 0 {
				return res, nil, fmt.Errorf("load %v seed %d: implausible stats offered %d blocked %d grants %d",
					load, s, ws.Offered, ws.Blocked, st.Grants)
			}
			d.point(ws, st)
			wsum.Offered += ws.Offered
			wsum.Blocked += ws.Blocked
			wsum.HandoffAttempts += ws.HandoffAttempts
			wsum.HandoffDrops += ws.HandoffDrops
			sum.Messages += st.Messages
			sum.Grants += st.Grants
			sum.Denies += st.Denies
			sum.LocalGrants += st.LocalGrants
			sum.UpdateGrants += st.UpdateGrants
			sum.SearchGrants += st.SearchGrants
			sum.ProtocolDenies += st.ProtocolDenies
			sum.UpdateAttempts += st.UpdateAttempts
			sum.Deferred += st.Deferred
			sum.ModeChanges += st.ModeChanges
			if err := n.Close(); err != nil {
				return res, nil, err
			}
			if traced {
				tr.close(pointID, nowNS())
			}
		}
	}
	res.SetupS, res.RunS, res.CPUS = seconds(newNS), seconds(runNS), cpu
	res.PeakRSSMB = peakRSSMB()
	res.Digest = d.sum()
	res.Outputs = outputs{
		BlockingProbability: ratio(float64(wsum.Blocked), float64(wsum.Offered)),
		MsgsPerCall:         ratio(float64(sum.Messages), float64(sum.Grants+sum.Denies)),
		Offered:             wsum.Offered,
	}
	if !traced {
		return res, nil, nil
	}
	rt1 := readRuntime()
	l := map[string]float64{}
	res.Layers = l
	l["adca.new_s"] = res.SetupS
	l["adca.run_workload_s"] = res.RunS
	l["adca.msgs_per_call"] = res.Outputs.MsgsPerCall
	l["driver.msgs_per_grant"] = ratio(float64(sum.Messages), float64(sum.Grants))
	l["driver.check_ms"] = mean(res.CheckMS)
	l["core.grants.local"] = float64(sum.LocalGrants)
	l["core.grants.update"] = float64(sum.UpdateGrants)
	l["core.grants.search"] = float64(sum.SearchGrants)
	l["core.drops"] = float64(sum.ProtocolDenies)
	l["core.update_attempts"] = float64(sum.UpdateAttempts)
	l["core.update_success_ratio"] = ratio(float64(sum.UpdateGrants), float64(sum.UpdateAttempts))
	l["core.deferred"] = float64(sum.Deferred)
	l["core.mode_changes"] = float64(sum.ModeChanges)
	l["traffic.offered"] = float64(wsum.Offered)
	l["traffic.blocked"] = float64(wsum.Blocked)
	l["traffic.handoff_attempts"] = float64(wsum.HandoffAttempts)
	l["traffic.handoff_drops"] = float64(wsum.HandoffDrops)
	l["chanset.primaries_min"] = float64(res.Meta.PrimariesMin)
	l["chanset.primaries_max"] = float64(res.Meta.PrimariesMax)
	gcLayers(l, rt0, rt1)
	l["heap.bytes_per_cell.wired"] = float64(wired) / float64(cells)
	l["heap.bytes_per_cell.peak"] = float64(peakLive) / float64(cells)
	// The spans are the New and RunWorkload calls: their CPU against the
	// process CPU over the whole sweep, checks and stats included.
	l["trace.covered_cpu_share"] = ratio(res.CPUS, cpuSeconds()-cpuStart)
	return res, tr, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// quantile returns the q-quantile of xs (nearest rank), 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// highQuantile is the highest of the usual tail quantiles that still
// has at least ten samples beyond it.
func highQuantile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.95, 0.99, 0.999} {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}
