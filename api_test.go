package adca_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
)

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		sc   adca.Scenario
		want string // substring of the error
	}{
		{"negative width", adca.Scenario{GridWidth: -7}, "GridWidth"},
		{"negative height", adca.Scenario{GridHeight: -1}, "GridHeight"},
		{"negative reuse", adca.Scenario{ReuseDistance: -2}, "ReuseDistance"},
		{"negative channels", adca.Scenario{Channels: -70}, "Channels"},
		{"negative latency", adca.Scenario{LatencyTicks: -10}, "LatencyTicks"},
		{"negative jitter", adca.Scenario{JitterTicks: -1}, "JitterTicks"},
		{"negative rounds", adca.Scenario{MaxRounds: -3}, "MaxRounds"},
		{"negative shards", adca.Scenario{Shards: -1}, "Shards"},
		{"negative workers", adca.Scenario{Workers: -2}, "Workers"},
		{"journal on shards", adca.Scenario{
			Shards: 7, Obs: &adca.ObsConfig{Journal: io.Discard},
		}, "journal needs a single shard"},
		{"theta low", adca.Scenario{
			Adaptive: &adca.AdaptiveParams{ThetaLow: 0, ThetaHigh: 3, WindowTicks: 10},
		}, "ThetaLow"},
		{"theta band", adca.Scenario{
			Adaptive: &adca.AdaptiveParams{ThetaLow: 3, ThetaHigh: 3, WindowTicks: 10},
		}, "ThetaHigh"},
		{"negative alpha", adca.Scenario{
			Adaptive: &adca.AdaptiveParams{ThetaLow: 1, ThetaHigh: 3, Alpha: -1, WindowTicks: 10},
		}, "Alpha"},
		{"zero window", adca.Scenario{
			Adaptive: &adca.AdaptiveParams{ThetaLow: 1, ThetaHigh: 3},
		}, "WindowTicks"},
		{"unknown scheme", adca.Scenario{Scheme: "nope"}, "unknown scheme"},
	}
	for _, c := range cases {
		_, err := adca.New(c.sc)
		if err == nil {
			t.Errorf("%s: no error for %+v", c.name, c.sc)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestSchemesContents(t *testing.T) {
	got := adca.Schemes()
	want := []string{"adaptive", "advanced-update", "allocated-search",
		"basic-search", "basic-update", "fixed"}
	if len(got) != len(want) {
		t.Fatalf("Schemes() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Schemes() = %v, want %v (sorted)", got, want)
		}
	}
}

func TestRequestIDMonotonic(t *testing.T) {
	net := adca.MustNew(adca.Scenario{Wrap: true, Seed: 9})
	var completed []adca.RequestID
	record := func(r adca.Result) { completed = append(completed, r.ID) }
	// RequestAt schedules later but takes its id now; ids must be
	// monotonic in call order regardless of fire order.
	var issued []adca.RequestID
	issued = append(issued, net.Request(0, record))
	issued = append(issued, net.RequestAt(100, 1, record))
	issued = append(issued, net.Request(2, record))
	issued = append(issued, net.RequestAt(50, 3, record))
	for i, id := range issued {
		if int64(id) != int64(i+1) {
			t.Fatalf("issued ids = %v, want 1..4 in call order", issued)
		}
	}
	if !net.RunUntilIdle() {
		t.Fatal("no quiescence")
	}
	if len(completed) != 4 {
		t.Fatalf("completed %d of 4", len(completed))
	}
	seen := map[adca.RequestID]bool{}
	for _, id := range completed {
		if id < 1 || id > 4 || seen[id] {
			t.Fatalf("completed ids = %v", completed)
		}
		seen[id] = true
	}
}

func TestStatsMatchMetrics(t *testing.T) {
	var journal bytes.Buffer
	net := adca.MustNew(adca.Scenario{
		Wrap: true, Seed: 11, CheckInterference: true,
		Obs: &adca.ObsConfig{Journal: &journal},
	})
	defer net.Close()
	if _, err := net.RunWorkload(adca.Workload{
		ErlangPerCell: 9, DurationTicks: 30_000, Seed: 11,
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	m := net.Metrics()
	if m == nil {
		t.Fatal("Metrics() nil with Obs enabled")
	}
	checks := map[string]uint64{
		`adca_grants_total{path="local"}`:  st.LocalGrants,
		`adca_grants_total{path="update"}`: st.UpdateGrants,
		`adca_grants_total{path="search"}`: st.SearchGrants,
		"adca_denies_total":                st.ProtocolDenies,
		"adca_borrow_attempts_total":       st.UpdateAttempts,
		"adca_deferred_total":              st.Deferred,
		"adca_requests_granted_total":      st.Grants,
		"adca_requests_denied_total":       st.Denies,
		"adca_transport_messages_total":    st.Messages,
		"adca_requests_outstanding":        0,
	}
	for key, want := range checks {
		if got := m[key]; got != float64(want) {
			t.Errorf("%s = %v, want %d", key, got, want)
		}
	}
	trans := m[`adca_mode_transitions_total{from="local",to="borrowing"}`] +
		m[`adca_mode_transitions_total{from="borrowing",to="local"}`]
	if trans != float64(st.ModeChanges) {
		t.Errorf("mode transitions = %v, want %d", trans, st.ModeChanges)
	}
	if st.ModeChanges == 0 || st.UpdateAttempts == 0 {
		t.Errorf("9 Erlang/cell should exercise borrowing: %+v", st)
	}
	// The histogram's count must equal the number of grants.
	if got := m["adca_acquire_ticks_count"]; got != float64(st.Grants) {
		t.Errorf("acquire histogram count = %v, want %d", got, st.Grants)
	}
	// Journal: parseable JSONL with the expected record shape.
	if journal.Len() == 0 {
		t.Fatal("journal empty")
	}
	types := map[string]int{}
	scan := bufio.NewScanner(&journal)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		var rec struct {
			T    *int64  `json:"t"`
			Type *string `json:"type"`
			Cell *int    `json:"cell"`
		}
		if err := json.Unmarshal(scan.Bytes(), &rec); err != nil {
			t.Fatalf("journal line not JSON: %v (%s)", err, scan.Text())
		}
		if rec.T == nil || rec.Type == nil || rec.Cell == nil {
			t.Fatalf("journal record missing t/type/cell: %s", scan.Text())
		}
		types[*rec.Type]++
	}
	for _, want := range []string{"request", "result", "grant", "mode", "borrow"} {
		if types[want] == 0 {
			t.Errorf("journal has no %q records (have %v)", want, types)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	net := adca.MustNew(adca.Scenario{
		Wrap: true, Seed: 12,
		Obs: &adca.ObsConfig{MetricsAddr: "127.0.0.1:0"},
	})
	defer net.Close()
	if net.MetricsAddr() == "" {
		t.Fatal("no metrics address")
	}
	if _, err := net.RunWorkload(adca.Workload{
		ErlangPerCell: 9, DurationTicks: 20_000, Seed: 12,
	}); err != nil {
		t.Fatal(err)
	}
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + net.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE adca_grants_total counter",
		`adca_grants_total{path="local"}`,
		"adca_mode_transitions_total",
		"adca_transport_messages_total",
		"# TYPE adca_acquire_ticks histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if net.MetricsAddr() != "" {
		t.Fatal("address should clear after Close")
	}
	if err := net.Close(); err != nil { // double Close is fine
		t.Fatal(err)
	}
}

// Observability must not perturb the protocol: the same seed produces
// identical outcomes with and without instrumentation.
func TestObsPreservesDeterminism(t *testing.T) {
	run := func(withObs bool) adca.Stats {
		sc := adca.Scenario{Wrap: true, Seed: 42}
		if withObs {
			sc.Obs = &adca.ObsConfig{Journal: io.Discard}
		}
		net := adca.MustNew(sc)
		defer net.Close()
		if _, err := net.RunWorkload(adca.Workload{
			ErlangPerCell: 8, DurationTicks: 30_000, Seed: 42,
		}); err != nil {
			t.Fatal(err)
		}
		return net.Stats()
	}
	if run(false) != run(true) {
		t.Fatal("instrumentation changed protocol outcomes")
	}
}

// TestJournalDeterministic: two same-seed networks write byte-identical
// journals — protocol records and the driver's request/result/release
// records alike — so a journal is a reproducible artifact.
func TestJournalDeterministic(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		net := adca.MustNew(adca.Scenario{Wrap: true, Seed: 17, Obs: &adca.ObsConfig{Journal: &buf}})
		if _, err := net.RunWorkload(adca.Workload{
			ErlangPerCell: 8, DurationTicks: 6_000, WarmupTicks: 600, Seed: 17,
		}); err != nil {
			t.Fatal(err)
		}
		if err := net.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	for _, kind := range []string{`"request"`, `"result"`, `"release"`} {
		if !bytes.Contains(a, []byte(kind)) {
			t.Fatalf("journal has no %s records", kind)
		}
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed journals differ (%d vs %d bytes)", len(a), len(b))
	}
}
