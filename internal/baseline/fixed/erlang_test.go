package fixed_test

import (
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/traffic"

	"repro/internal/baseline/fixed"
)

// TestBlockingMatchesErlangB anchors the whole simulation stack against
// queueing theory: a single isolated cell with c fixed channels under
// Poisson arrivals and exponential holding is an M/M/c/c queue, so its
// blocking probability must match the Erlang-B formula.
func TestBlockingMatchesErlangB(t *testing.T) {
	grid := hexgrid.MustNew(hexgrid.Config{Shape: hexgrid.Hexagon, Radius: 0, ReuseDistance: 1})
	const channels = 10
	assign := chanset.MustAssign(grid, channels)
	cases := []struct {
		erlang float64
	}{
		{6}, {10}, {14},
	}
	const meanHold = 2000.0
	for _, tc := range cases {
		var measured float64
		const seeds = 3
		for seed := uint64(1); seed <= seeds; seed++ {
			s, err := driver.NewParallel(grid, assign, fixed.NewFactory(assign), driver.ParallelOptions{Seed: seed, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			ts, err := traffic.RunParallel(s, traffic.Spec{
				Profile:  traffic.Uniform{PerCell: tc.erlang / meanHold},
				MeanHold: meanHold,
				Duration: 2_000_000,
				Warmup:   100_000,
				Seed:     seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			measured += ts.BlockingProbability()
		}
		measured /= seeds
		want := analytic.ErlangB(tc.erlang, channels)
		if math.Abs(measured-want) > 0.025 {
			t.Errorf("E=%v: measured blocking %.4f, Erlang-B says %.4f", tc.erlang, measured, want)
		}
	}
}
