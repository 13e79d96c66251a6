// Command benchdelta compares two bench reports produced by
// `chansim -bench` (see DESIGN.md §9) and exits non-zero on
// regressions.
//
// Kernel allocation counts are deterministic, so allocs/event
// regressions beyond the threshold always fail. Timing (ns/event,
// events/sec) and every network metric are noisy on shared CI
// runners, so those regressions only warn unless -strict is set.
//
// The "parallel" section carries hard correctness gates independent of
// -strict: every run's trajectory hash must match its grid's (worker
// count must not change the simulation), the hash must not drift from
// the baseline when workloads are comparable, and speedup at the widest
// worker count must stay >= 1.0 on multi-core hosts. The gates cover
// every grid in the report, including the mobile 50x50 workload whose
// hash pins the sharded handoff path (per-shard tallies and cross-shard
// relays included in the digest).
//
//	benchdelta -baseline BENCH_baseline.json -current BENCH_ci.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "checked-in baseline report")
		currentPath  = flag.String("current", "BENCH_ci.json", "freshly measured report")
		threshold    = flag.Float64("threshold", 0.20, "relative regression tolerated (0.20 = 20%)")
		strict       = flag.Bool("strict", false, "fail on timing regressions too, not just allocations")
		only         = flag.String("only", "", "check only these comma-separated sections ("+strings.Join(experiments.BenchSections, ",")+")")
	)
	flag.Parse()
	want, err := experiments.ParseSections(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	base := load(*baselinePath)
	cur := load(*currentPath)

	failed := false
	check := func(name string, baseVal, curVal float64, hard bool) {
		if baseVal <= 0 {
			fmt.Printf("  %-22s baseline %.4g — skipped (no baseline)\n", name, baseVal)
			return
		}
		delta := curVal/baseVal - 1
		status := "ok"
		if delta > *threshold {
			if hard || *strict {
				status = "FAIL"
				failed = true
			} else {
				status = "warn"
			}
		}
		fmt.Printf("  %-22s %10.4g -> %10.4g  (%+.1f%%)  %s\n", name, baseVal, curVal, 100*delta, status)
	}

	fmt.Printf("benchdelta: %s vs %s (threshold %.0f%%)\n", *baselinePath, *currentPath, 100**threshold)
	if want["kernel"] {
		check("ns/event", base.Kernel.NsPerEvent, cur.Kernel.NsPerEvent, false)
		check("allocs/event", base.Kernel.AllocsPerEvent, cur.Kernel.AllocsPerEvent, true)
		check("bytes/event", base.Kernel.BytesPerEvent, cur.Kernel.BytesPerEvent, true)
	}
	if want["sweep"] {
		check("sweep seq seconds", base.Sweep.SeqSeconds, cur.Sweep.SeqSeconds, false)
	}
	// Network metrics are soft even for allocations: the live runtime's
	// per-message counts depend on goroutine scheduling (batch sizes,
	// retransmit timers), so they are not reproducible the way the
	// single-threaded DES kernel's are.
	if want["network"] {
		check("net ns/message", base.Network.NsPerMessage, cur.Network.NsPerMessage, false)
		check("net allocs/message", base.Network.AllocsPerMessage, cur.Network.AllocsPerMessage, false)
		check("net ns/borrow-round", base.Network.NsPerBorrowRound, cur.Network.NsPerBorrowRound, false)
	}
	if want["parallel"] && !checkParallel(base, cur) {
		failed = true
	}
	if want["policies"] && !checkPolicies(base, cur) {
		failed = true
	}
	if want["scale"] && !checkScale(base, cur, *threshold, *strict) {
		failed = true
	}
	if failed {
		fmt.Println("benchdelta: REGRESSION detected")
		os.Exit(1)
	}
	fmt.Println("benchdelta: within tolerance")
}

// checkParallel validates the sharded-kernel section and reports
// whether it passed. Unlike the timing checks these are correctness
// gates, not thresholds:
//
//   - every run's trajectory hash must equal its grid's hash — the
//     determinism contract (worker count must not change the
//     simulation), re-verified from the artifact itself;
//   - when the baseline has the same grid at the same workload length
//     (Quick flags match), the hash must be unchanged — the parallel
//     kernel's trajectory is pinned across commits the same way the
//     kernel bench's allocation counts are;
//   - the speedup at the widest worker count must not drop below 1.0 —
//     hard only when the report was taken on ≥2 cores, since on a
//     single core "speedup" is pure scheduler noise.
func checkParallel(base, cur experiments.BenchReport) bool {
	ok := true
	fail := func(format string, args ...any) {
		fmt.Printf("  parallel: FAIL "+format+"\n", args...)
		ok = false
	}
	baseGrids := make(map[string]experiments.ParallelGridBench)
	for _, g := range base.Parallel.Grids {
		baseGrids[g.Grid] = g
	}
	for _, g := range cur.Parallel.Grids {
		for _, r := range g.Runs {
			if r.Hash != g.Hash {
				fail("%s workers=%d trajectory hash %.12s != grid hash %.12s (determinism broken)",
					g.Grid, r.Workers, r.Hash, g.Hash)
			}
		}
		if bg, found := baseGrids[g.Grid]; found && base.Quick == cur.Quick {
			if bg.Hash != g.Hash {
				fail("%s trajectory hash drifted %.12s -> %.12s (simulation outcome changed)",
					g.Grid, bg.Hash, g.Hash)
			}
		}
		if n := len(g.Runs); n > 0 {
			last := g.Runs[n-1]
			status := "ok"
			if last.Speedup < 1.0 && last.Workers > 1 {
				if cur.GOMAXPROCS >= 2 {
					status = "FAIL"
					ok = false
				} else {
					status = "warn (1 core)"
				}
			}
			fmt.Printf("  %-22s %10.4g -> %10.4g  (speedup %.2fx @ %d workers)  %s\n",
				"par "+g.Grid+" ev/s", g.Runs[0].EventsPerSec, last.EventsPerSec, last.Speedup, last.Workers, status)
		}
	}
	if len(cur.Parallel.Grids) == 0 && len(base.Parallel.Grids) > 0 {
		fail("section missing from current report but present in baseline")
	}
	return ok
}

// checkPolicies validates the pluggable-policy section. The default
// (linear, best) pair is the paper's hard-coded check_mode/Best()
// behavior re-expressed through the policy seam, so its trajectory hash
// drifting from the baseline is a hard correctness failure — it means
// the seam no longer reproduces the reproduction. Non-default pairs are
// new surface, so their drift only warns (their hashes legitimately
// change when a policy's math is tuned). Skipped when the baseline
// predates the section; hashes compare only when Quick flags match
// (workload lengths differ otherwise).
func checkPolicies(base, cur experiments.BenchReport) bool {
	if len(base.Policies.Runs) == 0 {
		return true
	}
	if len(cur.Policies.Runs) == 0 {
		fmt.Println("  policies: FAIL section missing from current report but present in baseline")
		return false
	}
	ok := true
	if cd := cur.Policies.DefaultPolicyRun(); cd == nil {
		fmt.Println("  policies: FAIL default (linear, best) pair missing from current report")
		ok = false
	} else if bd := base.Policies.DefaultPolicyRun(); bd != nil && base.Quick == cur.Quick {
		if bd.Hash != cd.Hash {
			fmt.Printf("  policies: FAIL default linear/best trajectory hash drifted %.12s -> %.12s (default policies no longer bit-identical)\n",
				bd.Hash, cd.Hash)
			ok = false
		} else {
			fmt.Printf("  %-22s %12.12s ok (default pair pinned, %d pairs measured)\n",
				"policy linear/best", cd.Hash, len(cur.Policies.Runs))
		}
	}
	if base.Quick == cur.Quick {
		baseRuns := make(map[string]string, len(base.Policies.Runs))
		for _, r := range base.Policies.Runs {
			baseRuns[r.Predictor+"/"+r.Lender] = r.Hash
		}
		for _, r := range cur.Policies.Runs {
			if r.Predictor == "linear" && r.Lender == "best" {
				continue
			}
			if h, found := baseRuns[r.Predictor+"/"+r.Lender]; found && h != r.Hash {
				fmt.Printf("  policies: warn %s/%s trajectory hash drifted %.12s -> %.12s\n",
					r.Predictor, r.Lender, h, r.Hash)
			}
		}
	}
	return ok
}

// maxRoutesPerShard bounds the cross-shard routes any shard may
// materialise at the report's highest shard count: row-band tiles on a
// wrapped lattice touch a handful of adjacent bands, never O(shards).
const maxRoutesPerShard = 10

// checkScale validates the giant-grid section. Its gates mirror
// checkParallel's and are hard regardless of -strict:
//
//   - every (shards, workers) run's trajectory hash must equal its
//     grid's — partitioning and worker count must not change the
//     simulation;
//   - when the baseline has the same grid at the same workload length
//     (Quick flags match), the hash must be unchanged;
//   - the per-shard cross-shard route count must stay below a small
//     constant — the sparse-routing guarantee read off the artifact;
//   - bytes-per-cell regressions beyond the threshold fail hard:
//     construction footprint is GC-settled heap, deterministic the way
//     the kernel bench's allocation counts are.
//
// Events/sec is timing, so it only warns unless -strict.
// steadyOccupancyFloor is the borrow-heavy floor the steady section
// must reach: below it the warm-started grid is not actually under
// pressure and the "under load" numbers would silently measure idle
// machinery.
const steadyOccupancyFloor = 0.8

func checkScale(base, cur experiments.BenchReport, threshold float64, strict bool) bool {
	ok := checkScaleGrids("scale", base.Scale.Grids, cur.Scale.Grids,
		base.Quick == cur.Quick, threshold, strict, false)
	if !checkScaleGrids("steady", base.Scale.Steady, cur.Scale.Steady,
		base.Quick == cur.Quick, threshold, strict, true) {
		ok = false
	}
	return ok
}

// checkScaleGrids gates one grid list of the scale section. The steady
// list adds the load gates: measured occupancy at or above the
// borrow-heavy floor and a nonzero borrow-attempt count, both hard —
// a steady bench that is not borrowing is a broken bench, whatever its
// events/sec says.
//
// Trajectory hashes (and events/sec) compare against the baseline only
// when the grid's drain_mode matches: a truncated drain cancels the
// deferred requests a full drain resolves, so the two trajectories
// legitimately differ after the arrival window and must never be
// silently compared. What IS pinned across modes — hard — is the
// measurement window itself: the mean occupancy and, when both reports
// record one, the measured_hash, neither of which drain behavior can
// touch.
func checkScaleGrids(label string, baseList, curList []experiments.ScaleGridBench, quickMatch bool, threshold float64, strict, steady bool) bool {
	ok := true
	fail := func(format string, args ...any) {
		fmt.Printf("  %s: FAIL "+format+"\n", append([]any{label}, args...)...)
		ok = false
	}
	baseGrids := make(map[string]experiments.ScaleGridBench)
	for _, g := range baseList {
		baseGrids[g.Grid] = g
	}
	for _, g := range curList {
		shardCounts := make(map[int]bool)
		workerCounts := make(map[int]bool)
		for _, r := range g.Runs {
			shardCounts[r.Shards] = true
			workerCounts[r.Workers] = true
			if r.Hash != g.Hash {
				fail("%s shards=%d workers=%d trajectory hash %.12s != grid hash %.12s (determinism broken)",
					g.Grid, r.Shards, r.Workers, r.Hash, g.Hash)
			}
		}
		if len(shardCounts) < 2 || len(workerCounts) < 2 {
			fail("%s covers %d shard counts and %d worker counts; need >= 2 of each to pin determinism",
				g.Grid, len(shardCounts), len(workerCounts))
		}
		if g.MaxRoutesPerShard > maxRoutesPerShard {
			fail("%s max routes per shard %d > %d (cross-shard routing no longer sparse)",
				g.Grid, g.MaxRoutesPerShard, maxRoutesPerShard)
		}
		if steady {
			if g.MeanOccupancy < steadyOccupancyFloor {
				fail("%s mean occupancy %.3f below the borrow-heavy floor %.2f (bench is idling, not under pressure)",
					g.Grid, g.MeanOccupancy, steadyOccupancyFloor)
			}
			if g.BorrowAttempts == 0 {
				fail("%s recorded zero borrow attempts — the steady workload never exercised the borrow path",
					g.Grid)
			}
		}
		bg, found := baseGrids[g.Grid]
		sameMode := quickMatch && bg.DrainMode == g.DrainMode
		if found && sameMode && bg.Hash != g.Hash {
			fail("%s trajectory hash drifted %.12s -> %.12s (simulation outcome changed)",
				g.Grid, bg.Hash, g.Hash)
		}
		if found && quickMatch && !sameMode {
			fmt.Printf("  %s: %s drain_mode %q -> %q — trajectory hash not comparable, gating on measured-window stats\n",
				label, g.Grid, bg.DrainMode, g.DrainMode)
		}
		if found && quickMatch {
			if bg.MeasuredHash != "" && g.MeasuredHash != "" && bg.MeasuredHash != g.MeasuredHash {
				fail("%s measured-window hash drifted %.12s -> %.12s (offered load or occupancy changed — drain mode cannot explain this)",
					g.Grid, bg.MeasuredHash, g.MeasuredHash)
			}
			if steady && bg.MeanOccupancy > 0 && bg.MeanOccupancy != g.MeanOccupancy {
				fail("%s measured occupancy drifted %v -> %v (barrier samples lie inside the arrival window; drain mode cannot affect them)",
					g.Grid, bg.MeanOccupancy, g.MeanOccupancy)
			}
		}
		if found && bg.BytesPerCell > 0 {
			delta := g.BytesPerCell/bg.BytesPerCell - 1
			status := "ok"
			if delta > threshold {
				status = "FAIL"
				ok = false
			}
			fmt.Printf("  %-22s %10.4g -> %10.4g  (%+.1f%%)  %s\n",
				label+" "+g.Grid+" B/cell", bg.BytesPerCell, g.BytesPerCell, 100*delta, status)
		}
		if n := len(g.Runs); n > 0 {
			first := g.Runs[0]
			status := "ok"
			if found && sameMode {
				for _, br := range bg.Runs {
					if br.Shards != first.Shards || br.Workers != first.Workers || br.EventsPerSec <= 0 {
						continue
					}
					if delta := first.EventsPerSec/br.EventsPerSec - 1; delta < -threshold {
						if strict {
							status = "FAIL"
							ok = false
						} else {
							status = "warn"
						}
					}
				}
			}
			fmt.Printf("  %-22s %10.4g ev/s, %d runs, peak RSS %.1f GiB  %s\n",
				label+" "+g.Grid, first.EventsPerSec, n, float64(g.PeakRSSBytes)/(1<<30), status)
			if steady {
				// Min setup across runs: the first combo's figure folds in
				// one-time page faults and lazy allocations as the process
				// RSS climbs, which is not the cost of seeding itself.
				setup := first.SetupSeconds
				for _, r := range g.Runs {
					if r.SetupSeconds > 0 && r.SetupSeconds < setup {
						setup = r.SetupSeconds
					}
				}
				// RampEstSeconds is the measured cost of ONE simulated
				// mean-hold; reaching stationarity by simulation takes
				// several, so the printed ramp figure is a floor.
				fmt.Printf("  %-22s occupancy %.3f, %.4g borrow/s, warm-start %.2fs vs ≥%.1fs simulated ramp (3+ mean-holds)\n",
					label+" "+g.Grid+" load", g.MeanOccupancy, g.BorrowAttemptsPerSec,
					setup, 3*g.RampEstSeconds)
				// Per-phase wall clock (run vs drain split), additive:
				// older baselines predate the fields and print only the
				// current report's split.
				if first.RunSeconds > 0 || first.DrainSeconds > 0 {
					var br *experiments.ScaleRun
					if found {
						for i := range bg.Runs {
							if bg.Runs[i].Shards == first.Shards && bg.Runs[i].Workers == first.Workers {
								br = &bg.Runs[i]
								break
							}
						}
					}
					if br != nil && (br.RunSeconds > 0 || br.DrainSeconds > 0) {
						fmt.Printf("  %-22s run %.2fs -> %.2fs, drain %.2fs -> %.2fs (wall %.2fs -> %.2fs)\n",
							label+" "+g.Grid+" phases", br.RunSeconds, first.RunSeconds,
							br.DrainSeconds, first.DrainSeconds, br.WallSeconds, first.WallSeconds)
					} else {
						fmt.Printf("  %-22s run %.2fs + drain %.2fs = wall %.2fs (%s drain)\n",
							label+" "+g.Grid+" phases", first.RunSeconds, first.DrainSeconds,
							first.WallSeconds, drainModeName(g.DrainMode))
					}
				}
			}
		}
	}
	if len(curList) == 0 && len(baseList) > 0 {
		fail("section missing from current report but present in baseline")
	}
	return ok
}

// drainModeName renders ScaleGridBench.DrainMode for display: the
// empty string is the legacy full drain.
func drainModeName(mode string) string {
	if mode == "" {
		return "full"
	}
	return mode
}

func load(path string) experiments.BenchReport {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var r experiments.BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		os.Exit(2)
	}
	return r
}
