package experiments

// Policy bench: the trajectory-hash gate for the pluggable policy seam.
// Every registered predictor × lender-strategy pair runs one one-shard
// borrow-heavy simulation and records its trajectory hash; the default
// (linear, best) pair comes first and its hash is the determinism
// contract cmd/benchdelta hard-fails on — the seam extraction must never
// drift the paper's hard-coded behavior.

import (
	"time"

	"repro/internal/chanset"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// PolicyRun records one predictor × strategy pair's outcome.
type PolicyRun struct {
	Predictor   string  `json:"predictor"`
	Lender      string  `json:"lender"`
	Blocking    float64 `json:"blocking"`
	Hash        string  `json:"trajectory_hash"`
	WallSeconds float64 `json:"wall_seconds"`
}

// PolicyBench is the policy section of the bench report.
type PolicyBench struct {
	// Grid/Erlang/Duration pin the scenario the hashes were taken under.
	Grid     string   `json:"grid"`
	Erlang   float64  `json:"erlang"`
	Duration sim.Time `json:"duration"`
	// Runs lists every registered pair, default (linear, best) first.
	Runs []PolicyRun `json:"runs"`
}

// DefaultPolicyRun returns the default-pair entry, or nil if absent.
func (b PolicyBench) DefaultPolicyRun() *PolicyRun {
	for i := range b.Runs {
		if b.Runs[i].Predictor == "linear" && b.Runs[i].Lender == "best" {
			return &b.Runs[i]
		}
	}
	return nil
}

// RunPolicyBench hashes every registered predictor × strategy pair on a
// borrow-heavy 12x12 wrapped grid. In full mode the default pair's
// scenario matches the 12x12 golden trajectory in policy_test.go, so the
// emitted hash doubles as an externally visible copy of that contract.
func RunPolicyBench(quick bool) (PolicyBench, error) {
	duration := sim.Time(8000)
	if quick {
		duration = 3000
	}
	b := PolicyBench{Grid: "12x12 wrap reuse-2, 70 channels, T=10", Erlang: 9, Duration: duration}
	g, err := hexgrid.New(hexgrid.Config{
		Shape: hexgrid.Rect, Width: 12, Height: 12, ReuseDistance: 2, Wrap: true,
	})
	if err != nil {
		return PolicyBench{}, err
	}
	assign, err := chanset.Assign(g, 70)
	if err != nil {
		return PolicyBench{}, err
	}
	run := func(pred, lend string) (PolicyRun, error) {
		pb, err := policy.BuildPredictor(policy.Spec{Name: pred})
		if err != nil {
			return PolicyRun{}, err
		}
		st, err := policy.BuildStrategy(policy.Spec{Name: lend})
		if err != nil {
			return PolicyRun{}, err
		}
		params := core.Params{Predictor: pb, Strategy: st}
		factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10, Adaptive: params})
		if err != nil {
			return PolicyRun{}, err
		}
		s, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{Latency: 10, Seed: 101, Shards: 1})
		if err != nil {
			return PolicyRun{}, err
		}
		t0 := time.Now()
		ts, err := traffic.RunParallel(s, traffic.Spec{
			Profile:  traffic.Uniform{PerCell: b.Erlang / 3000},
			MeanHold: 3000,
			Duration: duration,
			Warmup:   duration / 5,
			Seed:     101,
		})
		if err != nil {
			return PolicyRun{}, err
		}
		return PolicyRun{
			Predictor:   pred,
			Lender:      lend,
			Blocking:    ts.BlockingProbability(),
			Hash:        trajectoryHash(s.Stats(), ts),
			WallSeconds: time.Since(t0).Seconds(),
		}, nil
	}
	// Default pair first: its hash is the hard benchdelta gate.
	first, err := run("linear", "best")
	if err != nil {
		return PolicyBench{}, err
	}
	b.Runs = append(b.Runs, first)
	for _, pred := range policy.Predictors() {
		for _, lend := range policy.Strategies() {
			if pred == "linear" && lend == "best" {
				continue
			}
			r, err := run(pred, lend)
			if err != nil {
				return PolicyBench{}, err
			}
			b.Runs = append(b.Runs, r)
		}
	}
	return b, nil
}
