package main

import (
	"fmt"

	"repro/internal/sim"
)

// Model constants shared by every workload: the paper's 70-channel
// plan, reuse distance 2 (7-cell clusters, so a lattice side that is a
// multiple of 7 gives every cell exactly 10 primaries), one-way latency
// T = 10 ticks and a mean call hold of 3000 ticks.
const (
	channels      = 70
	reuseDistance = 2
	latency       = sim.Time(10)
	meanHold      = 3000.0
)

// workload is one named benchmark workload. Sharded workloads run on
// driver.Parallel; the sweep runs on the public adca facade.
type workload struct {
	name string

	// Sharded workloads (sweep == false).
	side       int      // wrapped lattice side, a multiple of 7
	baseErlang float64  // uniform per-cell load
	hotErlang  float64  // load of the five hot zones (0: none)
	hotRadius  int      // hot zone radius in cells
	handoff    float64  // per-call mobility rate (events per tick)
	duration   sim.Time // arrivals stop here
	drain      sim.Time // truncated drain horizon after duration
	shards     int
	workers    int
	checkEvery int // the verification run checks Theorem 1 every this many windows (0: no verification run)

	// Paper sweep (sweep == true).
	sweep      bool
	sweepSide  int
	loads      []float64 // Erlang per cell
	sweepSeeds int       // seeds per load
	sweepDur   int64     // ticks
	sweepWarm  int64     // ticks
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"hotspot-steady", "mobile-light", "paper-sweep"}

// lookupWorkload returns the named workload at the given scale: "full"
// is what the benchmark measures, "tiny" keeps the same shape at sizes
// the benchmark's own tests can afford.
func lookupWorkload(name, scale string) (workload, error) {
	tiny := scale == "tiny"
	if scale != "full" && !tiny {
		return workload{}, fmt.Errorf("unknown scale %q (have full, tiny)", scale)
	}
	side, shards := 112, 16
	if tiny {
		side, shards = 14, 4
	}
	switch name {
	case "hotspot-steady":
		w := workload{
			name: name, side: side, baseErlang: 7, hotErlang: 13.5, hotRadius: 2,
			duration: 3000, drain: 100, shards: shards, workers: 2, checkEvery: 10,
		}
		if tiny {
			w.duration, w.checkEvery = 600, 5
		}
		return w, nil
	case "mobile-light":
		w := workload{
			name: name, side: side, baseErlang: 4, handoff: 0.001,
			duration: 6000, drain: 100, shards: shards, workers: 2,
		}
		if tiny {
			w.duration = 1200
		}
		return w, nil
	case "paper-sweep":
		w := workload{
			name: name, sweep: true, sweepSide: 7, loads: []float64{4, 6, 8, 10, 12},
			sweepSeeds: 3, sweepDur: 60_000, sweepWarm: 10_000, workers: 1,
		}
		if tiny {
			w.loads, w.sweepSeeds, w.sweepDur, w.sweepWarm = []float64{4, 12}, 1, 6000, 1000
		}
		return w, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}
