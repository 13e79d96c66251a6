package adca_test

import (
	"strings"
	"testing"

	"repro"
)

// The facade's policy surface: Scenario.Predictor/Lender composition,
// name validation, and shard-count invariance of a non-default pair.

func TestPolicyOptionCompose(t *testing.T) {
	net, err := adca.New(adca.Scenario{
		Wrap: true, Seed: 3,
		Predictor: &adca.PolicySpec{Name: "ewma", Params: map[string]float64{"alpha": 0.2}},
		Lender:    &adca.PolicySpec{Name: "interference-aware"},
		Obs:       &adca.ObsConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ws, err := net.RunWorkload(adca.Workload{ErlangPerCell: 6, DurationTicks: 15_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Offered == 0 {
		t.Fatal("no traffic offered")
	}
	if net.Metrics() == nil {
		t.Fatal("Scenario.Obs did not enable metrics")
	}
}

func TestPolicyOptionsChangeTrajectory(t *testing.T) {
	run := func(predictor, lender *adca.PolicySpec) adca.Stats {
		net, err := adca.New(adca.Scenario{Wrap: true, Seed: 3, Predictor: predictor, Lender: lender})
		if err != nil {
			t.Fatal(err)
		}
		// Heavy load so the borrow path (and with it the lender seam)
		// actually runs.
		if _, err := net.RunWorkload(adca.Workload{ErlangPerCell: 9, DurationTicks: 20_000, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		return net.Stats()
	}
	def := run(nil, nil)
	same := run(&adca.PolicySpec{Name: "linear"}, &adca.PolicySpec{Name: "best"})
	if def != same {
		t.Errorf("explicit default policies changed the trajectory:\n def  %+v\n same %+v", def, same)
	}
	other := run(&adca.PolicySpec{Name: "last-value"}, &adca.PolicySpec{Name: "reused-frequency"})
	if def == other {
		t.Error("non-default policies produced the default trajectory (seam not plumbed?)")
	}
}

func TestUnknownPolicyNamesError(t *testing.T) {
	if _, err := adca.New(adca.Scenario{Predictor: &adca.PolicySpec{Name: "oracle"}}); err == nil {
		t.Fatal("unknown predictor accepted")
	} else if !strings.Contains(err.Error(), "oracle") || !strings.Contains(err.Error(), "linear") {
		t.Fatalf("predictor error unhelpful: %v", err)
	}
	if _, err := adca.New(adca.Scenario{Lender: &adca.PolicySpec{Name: "greedy"}}); err == nil {
		t.Fatal("unknown lender accepted")
	} else if !strings.Contains(err.Error(), "greedy") || !strings.Contains(err.Error(), "best") {
		t.Fatalf("lender error unhelpful: %v", err)
	}
	if _, err := adca.New(adca.Scenario{
		Predictor: &adca.PolicySpec{Name: "ewma", Params: map[string]float64{"alpha": 7}},
	}); err == nil {
		t.Fatal("out-of-range parameter accepted")
	} else if !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("parameter error unhelpful: %v", err)
	}
}

func TestPolicyRegistriesExported(t *testing.T) {
	preds, lends := adca.Predictors(), adca.LenderStrategies()
	if len(preds) < 4 || len(lends) < 5 {
		t.Fatalf("facade registries too small: %v / %v", preds, lends)
	}
}

// TestRunParallelPolicyOptions drives a non-default pair on 7 and 16
// shards and checks equality with one shard — the seam must stay
// deterministic under the sharded kernel through the facade too.
func TestRunParallelPolicyOptions(t *testing.T) {
	sc := adca.Scenario{
		Wrap: true, Seed: 4,
		Predictor: &adca.PolicySpec{Name: "damped-trend"},
		Lender:    &adca.PolicySpec{Name: "reused-frequency"},
	}
	w := adca.Workload{ErlangPerCell: 8, DurationTicks: 15_000, WarmupTicks: 1_500, Seed: 4}
	run := func(shards int) (adca.WorkloadStats, adca.Stats) {
		sc.Shards = shards
		net := adca.MustNew(sc)
		ws, err := net.RunWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		return ws, net.Stats()
	}
	serial, serialStats := run(0)
	for _, shards := range []int{7, 16} {
		ws, st := run(shards)
		if ws != serial {
			t.Errorf("shards=%d workload stats diverged:\n par    %+v\n serial %+v", shards, ws, serial)
		}
		if st != serialStats {
			t.Errorf("shards=%d network stats diverged:\n par    %+v\n serial %+v", shards, st, serialStats)
		}
	}
}
