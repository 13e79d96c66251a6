package experiments

import (
	"strings"
	"testing"

	"repro/internal/chanset"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// goldenRun is one pinned default-policy trajectory. The trajectories
// were first pinned on the commit immediately before the policy seam
// was extracted, certifying that the default Predictor and
// LenderStrategy reproduce the paper's hard-coded check_mode/Best()
// behavior bit for bit. The hashes were re-pinned once when the serial
// event engine was retired: every integer in the trajectory stayed the
// same, but the hashed delay means and variances now come from the
// driver's per-cell Welford merge (ascending cell order) instead of one
// global stream, which moves their last bits. The values are what the
// sharded driver already produced at any shard count.
type goldenRun struct {
	name          string
	width, height int
	erlang        float64
	handoff       float64
	duration      sim.Time
	hash          string
}

var goldenRuns = []goldenRun{
	{name: "12x12-borrow", width: 12, height: 12, erlang: 9, duration: 8000,
		hash: "602273bcbd119cc2b281b79c15fb2c4ddb198e8a4c420b70d512d8f061842b3c"},
	{name: "10x10-mobile", width: 10, height: 10, erlang: 8, handoff: 0.00067, duration: 6000,
		hash: "0592baad13fb674d7d137c464e1f22465520c574a22fd5fa3bb89fe5696c2fe9"},
}

func runGolden(t *testing.T, c goldenRun, params core.Params) string {
	t.Helper()
	g := hexgrid.MustNew(hexgrid.Config{
		Shape: hexgrid.Rect, Width: c.width, Height: c.height,
		ReuseDistance: 2, Wrap: true,
	})
	assign := chanset.MustAssign(g, 70)
	factory, err := registry.Build("adaptive", g, assign, registry.Config{Latency: 10, Adaptive: params})
	if err != nil {
		t.Fatal(err)
	}
	s, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{Latency: 10, Seed: 101, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := traffic.RunParallel(s, traffic.Spec{
		Profile:     traffic.Uniform{PerCell: c.erlang / 3000},
		MeanHold:    3000,
		HandoffRate: c.handoff,
		Duration:    c.duration,
		Warmup:      c.duration / 5,
		Seed:        101,
	})
	if err != nil {
		t.Fatal(err)
	}
	return trajectoryHash(s.Stats(), ts)
}

// TestDefaultPolicyTrajectoryGolden pins the default predictor+strategy
// to the pre-seam trajectories: zero-value params (policy seam fully
// defaulted) must reproduce the hashes captured before the refactor.
func TestDefaultPolicyTrajectoryGolden(t *testing.T) {
	for _, c := range goldenRuns {
		if h := runGolden(t, c, core.Params{}); h != c.hash {
			t.Errorf("%s: default-policy trajectory hash %s != pre-seam golden %s", c.name, h, c.hash)
		}
	}
}

// TestExplicitDefaultPoliciesBitIdentical asserts that selecting the
// defaults *by name* through the policy registry changes nothing: the
// explicit ("linear", "best") pair hashes equal to the zero value.
func TestExplicitDefaultPoliciesBitIdentical(t *testing.T) {
	pb, err := policy.BuildPredictor(policy.Spec{Name: "linear"})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := policy.BuildStrategy(policy.Spec{Name: "best"})
	if err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams(10)
	params.Predictor = pb
	params.Strategy = ls
	for _, c := range goldenRuns {
		if h := runGolden(t, c, params); h != c.hash {
			t.Errorf("%s: explicit linear/best trajectory hash %s != golden %s", c.name, h, c.hash)
		}
	}
}

// TestPolicySweepDeterministicAcrossWidths mirrors the pool determinism
// contract for the new predictor × strategy sweep: the rendered
// comparison artifact must be byte-identical at any worker count.
func TestPolicySweepDeterministicAcrossWidths(t *testing.T) {
	env := DefaultEnv()
	env.Duration = 20_000
	env.Warmup = 4_000
	env.Seeds = []uint64{7}
	render := func(workers int) string {
		e := env
		e.Workers = workers
		r, err := PolicySweep(e, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	base := render(1)
	if got := render(4); got != base {
		t.Errorf("policy sweep artifact differs between workers=1 and workers=4:\n%s\n---\n%s", base, got)
	}
	if !strings.Contains(base, "linear") || !strings.Contains(base, "best") {
		t.Errorf("policy sweep artifact missing default policies:\n%s", base)
	}
}

// TestPolicySweepCoverage asserts the default sweep matrix covers every
// registered predictor and strategy plus every comparison scheme.
func TestPolicySweepCoverage(t *testing.T) {
	env := DefaultEnv()
	env.Duration = 12_000
	env.Warmup = 2_000
	env.Seeds = []uint64{7}
	r, err := PolicySweep(env, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Predictors) < 3 || len(r.Lenders) < 3 {
		t.Fatalf("sweep must cover >= 3 predictors and >= 3 lender strategies, got %d x %d",
			len(r.Predictors), len(r.Lenders))
	}
	want := len(r.Predictors)*len(r.Lenders) + len(r.Schemes)
	if len(r.Rows) != want {
		t.Fatalf("sweep rows = %d, want %d (predictors x lenders + baseline schemes)", len(r.Rows), want)
	}
	art := r.Render()
	for _, name := range policy.Predictors() {
		if !strings.Contains(art, name) {
			t.Errorf("artifact missing predictor %q", name)
		}
	}
	for _, name := range policy.Strategies() {
		if !strings.Contains(art, name) {
			t.Errorf("artifact missing strategy %q", name)
		}
	}
}
