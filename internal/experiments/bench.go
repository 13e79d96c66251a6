package experiments

// Performance measurement harness behind `chansim -bench`. It measures
// the two quantities PR 3 optimised — per-event kernel cost and sweep
// wall-clock — plus the live-network message path (netbench.go) and the
// sharded parallel kernel's large-grid scaling (parbench.go), and emits
// them as JSON (BENCH_*.json). cmd/benchdelta compares two such files
// and flags regressions; DESIGN.md §9 explains how to read the output.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/registry"
	"repro/internal/traffic"
)

// KernelBench is the per-event cost of one representative simulation:
// the adaptive scheme on the default grid at moderate load, everything
// (DES kernel, protocol FSMs, traffic generator) included.
type KernelBench struct {
	// Events is the number of kernel events executed.
	Events uint64 `json:"events"`
	// WallSeconds is the run's wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// EventsPerSec = Events / WallSeconds.
	EventsPerSec float64 `json:"events_per_sec"`
	// NsPerEvent is the inverse, in nanoseconds.
	NsPerEvent float64 `json:"ns_per_event"`
	// AllocsPerEvent / BytesPerEvent are heap allocations amortised over
	// events (from runtime.MemStats deltas).
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
}

// SweepBench is the wall-clock of one full-figure sweep (F1 load sweep,
// all schemes) run sequentially and on the worker pool.
type SweepBench struct {
	// Workers is the pool width of the parallel run.
	Workers int `json:"workers"`
	// SeqSeconds/ParSeconds are the wall-clock times at width 1 and
	// width Workers.
	SeqSeconds float64 `json:"seq_seconds"`
	ParSeconds float64 `json:"par_seconds"`
	// Speedup = SeqSeconds / ParSeconds. Bounded by min(Workers, cores).
	Speedup float64 `json:"speedup"`
}

// BenchReport is the JSON document `chansim -bench` emits.
type BenchReport struct {
	// GOMAXPROCS records the core budget the numbers were taken under.
	GOMAXPROCS int           `json:"gomaxprocs"`
	Quick      bool          `json:"quick"`
	Kernel     KernelBench   `json:"kernel"`
	Sweep      SweepBench    `json:"sweep"`
	Network    NetworkBench  `json:"network"`
	Parallel   ParallelBench `json:"parallel"`
	Policies   PolicyBench   `json:"policies"`
	Scale      ScaleBench    `json:"scale"`
}

// BenchSections lists the report's section names, the vocabulary of
// `chansim -bench-only` and `benchdelta -only`.
var BenchSections = []string{"kernel", "sweep", "network", "parallel", "policies", "scale"}

// ParseSections turns a comma-separated section list into a set.
// Empty input selects every section. Unknown names error rather than
// silently benchmark nothing.
func ParseSections(only string) (map[string]bool, error) {
	want := make(map[string]bool, len(BenchSections))
	if only == "" {
		for _, s := range BenchSections {
			want[s] = true
		}
		return want, nil
	}
	known := make(map[string]bool, len(BenchSections))
	for _, s := range BenchSections {
		known[s] = true
	}
	for _, s := range strings.Split(only, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if !known[s] {
			return nil, fmt.Errorf("experiments: unknown bench section %q (have %s)", s, strings.Join(BenchSections, ", "))
		}
		want[s] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("experiments: empty bench section list %q", only)
	}
	return want, nil
}

// benchEnv is the scenario the harness measures. Quick mode shortens
// the runs for CI smoke while keeping the same shape.
func benchEnv(quick bool) Env {
	env := DefaultEnv()
	if quick {
		env.Duration = 40_000
		env.Warmup = 8_000
		env.Seeds = []uint64{101}
	}
	return env
}

// RunKernelBench measures per-event cost. The measured region is a
// single-threaded simulation, so MemStats deltas attribute cleanly.
func RunKernelBench(quick bool) (KernelBench, error) {
	env := benchEnv(quick)
	g, err := hexgrid.New(env.Grid)
	if err != nil {
		return KernelBench{}, err
	}
	assign, err := chanset.Assign(g, env.Channels)
	if err != nil {
		return KernelBench{}, err
	}
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: env.Latency})
	if err != nil {
		return KernelBench{}, err
	}
	s, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{Latency: env.Latency, Seed: env.Seeds[0], Shards: 1})
	if err != nil {
		return KernelBench{}, err
	}
	prim := env.PrimariesPerCell()
	spec := traffic.Spec{
		Profile:  traffic.Uniform{PerCell: env.RatePerCell(0.7 * prim)},
		MeanHold: env.MeanHold,
		Duration: env.Duration,
		Warmup:   env.Warmup,
		Seed:     env.Seeds[0],
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if _, err := traffic.RunParallel(s, spec); err != nil {
		return KernelBench{}, err
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	k := KernelBench{
		Events:      s.Kernel().Executed(),
		WallSeconds: wall.Seconds(),
	}
	if k.Events > 0 {
		ev := float64(k.Events)
		k.EventsPerSec = ev / k.WallSeconds
		k.NsPerEvent = float64(wall.Nanoseconds()) / ev
		k.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / ev
		k.BytesPerEvent = float64(m1.TotalAlloc-m0.TotalAlloc) / ev
	}
	return k, nil
}

// RunSweepBench times the F1 load sweep at width 1 and width workers
// (0 = DefaultWorkers()).
func RunSweepBench(workers int, quick bool) (SweepBench, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	env := benchEnv(quick)
	timeSweep := func(width int) (float64, error) {
		e := env
		e.Workers = width
		t0 := time.Now()
		if _, err := LoadSweep(e, nil, nil); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	}
	seq, err := timeSweep(1)
	if err != nil {
		return SweepBench{}, err
	}
	// At width 1 the "parallel" sweep is the sequential sweep: rerunning
	// it only measures scheduler noise (and used to report phantom
	// speedups like 0.80x on single-core hosts), so reuse the timing and
	// pin the speedup at its true value.
	par := seq
	if workers > 1 {
		if par, err = timeSweep(workers); err != nil {
			return SweepBench{}, err
		}
	}
	b := SweepBench{Workers: workers, SeqSeconds: seq, ParSeconds: par}
	if par > 0 {
		b.Speedup = seq / par
	}
	return b, nil
}

// RunBench runs the full harness.
func RunBench(workers int, quick bool) (BenchReport, error) {
	return RunBenchOnly(workers, quick, "")
}

// RunBenchOnly runs the harness restricted to a comma-separated list
// of sections ("" = all). Skipped sections stay zero in the report;
// benchdelta treats a zero baseline as "skip", so partial reports
// compose with the gates.
func RunBenchOnly(workers int, quick bool, only string) (BenchReport, error) {
	want, err := ParseSections(only)
	if err != nil {
		return BenchReport{}, err
	}
	rep := BenchReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Quick: quick}
	if want["kernel"] {
		if rep.Kernel, err = RunKernelBench(quick); err != nil {
			return BenchReport{}, err
		}
	}
	if want["sweep"] {
		if rep.Sweep, err = RunSweepBench(workers, quick); err != nil {
			return BenchReport{}, err
		}
	}
	if want["network"] {
		if rep.Network, err = RunNetworkBench(quick); err != nil {
			return BenchReport{}, err
		}
	}
	if want["parallel"] {
		if rep.Parallel, err = RunParallelBench(quick); err != nil {
			return BenchReport{}, err
		}
	}
	if want["policies"] {
		if rep.Policies, err = RunPolicyBench(quick); err != nil {
			return BenchReport{}, err
		}
	}
	if want["scale"] {
		if rep.Scale, err = RunScaleBench(quick); err != nil {
			return BenchReport{}, err
		}
	}
	return rep, nil
}

// MarshalReport renders the report as indented JSON with a trailing
// newline, the on-disk BENCH_*.json format.
func MarshalReport(r BenchReport) ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
