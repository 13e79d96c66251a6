package adca_test

import (
	"testing"

	"repro"
)

// The module is named "repro"; the package it exports is adca.

func TestDefaultsAndQuickstart(t *testing.T) {
	net := adca.MustNew(adca.Scenario{Wrap: true, CheckInterference: true, Seed: 1})
	if net.Scheme() != "adaptive" {
		t.Fatalf("default scheme = %q", net.Scheme())
	}
	if net.NumCells() != 49 || net.NumChannels() != 70 {
		t.Fatalf("defaults: %d cells, %d channels", net.NumCells(), net.NumChannels())
	}
	var got adca.Result
	net.Request(3, func(r adca.Result) { got = r })
	if !net.RunUntilIdle() {
		t.Fatal("no quiescence")
	}
	if !got.Granted || got.AcquireTicks != 0 {
		t.Fatalf("quickstart grant: %+v", got)
	}
	prim := net.Primaries(3)
	found := false
	for _, p := range prim {
		if p == got.Channel {
			found = true
		}
	}
	if !found {
		t.Fatalf("granted channel %d not primary of cell 3 (%v)", got.Channel, prim)
	}
	st := net.Stats()
	if st.Grants != 1 || st.Messages != 0 || st.LocalGrants != 1 {
		t.Fatalf("stats: %+v", st)
	}
	net.Release(3, got.Channel)
	net.RunUntilIdle()
	if err := net.CheckInterference(); err != nil {
		t.Fatal(err)
	}
}

func TestAllSchemesConstructible(t *testing.T) {
	for _, scheme := range adca.Schemes() {
		net, err := adca.New(adca.Scenario{Scheme: scheme, Wrap: true, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		done := false
		net.Request(net.CenterCell(), func(r adca.Result) { done = true })
		net.RunUntilIdle()
		if !done {
			t.Fatalf("%s: request did not complete", scheme)
		}
	}
}

func TestBadScenarios(t *testing.T) {
	cases := []adca.Scenario{
		{Scheme: "bogus"},
		{Channels: 3}, // fewer channels than reuse groups
		{GridWidth: 3, ReuseDistance: 2, Wrap: true}, // too small to wrap
		{Adaptive: &adca.AdaptiveParams{ThetaLow: 5, ThetaHigh: 1, Alpha: 1, WindowTicks: 10}},
	}
	for i, sc := range cases {
		if _, err := adca.New(sc); err == nil {
			t.Errorf("case %d should fail: %+v", i, sc)
		}
	}
}

func TestScheduledRequestsAndIntrospection(t *testing.T) {
	net := adca.MustNew(adca.Scenario{Wrap: true, Seed: 3, CheckInterference: true})
	center := net.CenterCell()
	if len(net.InterferenceNeighbors(center)) != 18 {
		t.Fatalf("interior neighborhood size = %d", len(net.InterferenceNeighbors(center)))
	}
	var ch int
	net.RequestAt(100, center, func(r adca.Result) { ch = r.Channel })
	net.RunFor(50)
	if net.Now() != 50 {
		t.Fatalf("Now = %d", net.Now())
	}
	net.RunFor(100)
	if len(net.InUse(center)) != 1 {
		t.Fatalf("in use: %v", net.InUse(center))
	}
	net.ReleaseAt(500, center, ch)
	net.RunUntilIdle()
	if len(net.InUse(center)) != 0 {
		t.Fatal("release did not happen")
	}
	if net.Mode(center) != 0 {
		t.Fatalf("mode = %d, want local", net.Mode(center))
	}
}

func TestRunWorkloadUniformAndHotspot(t *testing.T) {
	net := adca.MustNew(adca.Scenario{Wrap: true, Seed: 4, CheckInterference: true})
	ws, err := net.RunWorkload(adca.Workload{
		ErlangPerCell: 3,
		DurationTicks: 50_000,
		WarmupTicks:   5_000,
		Seed:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Offered == 0 {
		t.Fatal("no calls offered")
	}
	if ws.BlockingProbability > 0.02 {
		t.Fatalf("3 Erlang over ~10 primaries should rarely block: %v", ws.BlockingProbability)
	}

	hot := adca.MustNew(adca.Scenario{Scheme: "fixed", Wrap: true, Seed: 5})
	hs, err := hot.RunWorkload(adca.Workload{
		ErlangPerCell: 0.5,
		HotCell:       hot.CenterCell(),
		HotErlang:     25,
		DurationTicks: 50_000,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hs.BlockingProbability == 0 {
		t.Fatal("a 25-Erlang hotspot over ~10 fixed channels must block")
	}
}

func TestHandoffWorkload(t *testing.T) {
	net := adca.MustNew(adca.Scenario{Wrap: true, Seed: 6})
	ws, err := net.RunWorkload(adca.Workload{
		ErlangPerCell: 2,
		HandoffRate:   0.001,
		DurationTicks: 40_000,
		Seed:          6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ws.HandoffAttempts == 0 {
		t.Fatal("mobility produced no handoffs")
	}
}

func TestHandoffWorkloadRejectsNegativeRate(t *testing.T) {
	net := adca.MustNew(adca.Scenario{Wrap: true, Seed: 6})
	if _, err := net.RunWorkload(adca.Workload{
		ErlangPerCell: 2,
		HandoffRate:   -0.001,
		DurationTicks: 10_000,
		Seed:          6,
	}); err == nil {
		t.Fatal("negative handoff rate must be rejected")
	}
}

// TestRunParallelWorkloadMatchesSerial: RunParallel at 7 and 16 shards
// reproduces the one-shard Network's RunWorkload exactly — workload
// stats and every driver statistic, float aggregates included (the
// per-cell merge runs in ascending cell order at any shard count).
func TestRunParallelWorkloadMatchesSerial(t *testing.T) {
	sc := adca.Scenario{Wrap: true, Seed: 9, CheckInterference: true}
	w := adca.Workload{
		ErlangPerCell: 6,
		HandoffRate:   0.001,
		DurationTicks: 30_000,
		WarmupTicks:   3_000,
		Seed:          9,
	}
	net := adca.MustNew(sc)
	serial, err := net.RunWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	serialStats := net.Stats()
	if serial.HandoffAttempts == 0 {
		t.Fatal("workload too tame to exercise handoffs")
	}
	for _, shards := range []int{7, 16} {
		par, st, err := adca.RunParallel(sc, w, adca.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if par != serial {
			t.Errorf("shards=%d workload stats diverged:\n par    %+v\n serial %+v", shards, par, serial)
		}
		if st != serialStats {
			t.Errorf("shards=%d driver stats diverged:\n par    %+v\n serial %+v", shards, st, serialStats)
		}
	}
}

func TestWorkloadPhasesAndDiurnal(t *testing.T) {
	net := adca.MustNew(adca.Scenario{Wrap: true, Seed: 10})
	ws, err := net.RunWorkload(adca.Workload{
		ErlangPerCell: 2,
		HandoffRate:   0.0005,
		DurationTicks: 40_000,
		WarmupTicks:   4_000,
		Seed:          10,
		Phases: []adca.WorkloadPhase{
			{HotCell: -1, HotRadius: 1, HotErlang: 15, StartTicks: 10_000, EndTicks: 25_000},
		},
		Diurnal: &adca.DiurnalCycle{Swing: 0.5, PeriodTicks: 20_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Offered == 0 || ws.HandoffAttempts == 0 {
		t.Fatalf("phased mobile workload generated nothing: %+v", ws)
	}
	bad := adca.Workload{
		ErlangPerCell: 2,
		DurationTicks: 10_000,
		Phases:        []adca.WorkloadPhase{{HotCell: 9999, HotErlang: 15, StartTicks: 0, EndTicks: 100}},
	}
	if _, err := net.RunWorkload(bad); err == nil {
		t.Fatal("phase centered outside the grid must be rejected")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() adca.Stats {
		net := adca.MustNew(adca.Scenario{Wrap: true, Seed: 42})
		if _, err := net.RunWorkload(adca.Workload{
			ErlangPerCell: 8, DurationTicks: 30_000, Seed: 42,
		}); err != nil {
			t.Fatal(err)
		}
		return net.Stats()
	}
	if run() != run() {
		t.Fatal("same scenario+seed must reproduce exactly")
	}
}
