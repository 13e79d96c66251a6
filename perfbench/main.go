// Command perfbench is the repository's benchmark. It runs one named
// workload of the ADCA simulator for a fixed amount of simulated work,
// repeats it for the requested wall time, checks every run's simulated
// statistics against each other (and, for the default seed, against a
// pinned digest) and prints the end-to-end metrics, or with --trace 1
// the per-layer metrics of a traced run, as one JSON line.
//
// Each run is its own child process, so peak RSS, CPU time and heap
// state belong to that run alone. See NOTES.md for the workloads, the
// metrics and the layer map.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// defaultSeed is the seed whose digests are pinned in pins.json.
const defaultSeed = 1

// benchProcs is the GOMAXPROCS every run uses; sharded workloads run
// two workers on it.
const benchProcs = 2

// minReps is the least number of untraced repetitions per invocation.
const minReps = 3

// childTimeout bounds one child run.
const childTimeout = 150 * time.Second

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
var traceDir = filepath.Join(".bench_build", "traces")

//go:embed pins.json
var pinsJSON []byte

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	child    string
	scale    string // "full"; the tests use "tiny"
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	o := options{scale: "full"}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name: hotspot-steady, mobile-light or paper-sweep")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "wall seconds to spend repeating the workload")
	fs.IntVar(&o.trace, "trace", 0, "1: report per-layer metrics from traced runs")
	fs.StringVar(&o.child, "child", "", "internal: run once in this process in the given mode")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(o.workload, o.scale)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.child != "" {
		return runChild(w, o, stdout, stderr)
	}
	if runtime.NumCPU() < benchProcs {
		fmt.Fprintf(stderr, "perfbench: refusing to run: GOMAXPROCS %d > NumCPU %d\n", benchProcs, runtime.NumCPU())
		return 2
	}
	rep, err := collect(w, o, spawn(o), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runChild performs one run in this process and prints its result as
// one JSON line.
func runChild(w workload, o options, stdout, stderr io.Writer) int {
	res, tr, err := runOnce(w, o.seed, o.child)
	if err != nil {
		res.Err = err.Error()
	}
	if tr != nil {
		if err := writeTrace(traceDir, w, o.seed, res, tr); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing trace:", err)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if res.Err != "" {
		return 1
	}
	return 0
}

// runner performs one run in the given mode.
type runner func(mode string) (runResult, error)

// spawn runs each repetition as a child process of this binary.
func spawn(o options) runner {
	return func(mode string) (runResult, error) {
		exe, err := os.Executable()
		if err != nil {
			return runResult{}, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
		defer cancel()
		cmd := exec.CommandContext(ctx, exe, "--child", mode, "--workload", o.workload,
			"--seed", strconv.FormatUint(o.seed, 10))
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(benchProcs))
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		var res runResult
		if line := lastLine(out); len(line) > 0 {
			if err := json.Unmarshal(line, &res); err != nil {
				return res, fmt.Errorf("%s run: bad result %q: %w", mode, line, err)
			}
		}
		if res.Err != "" {
			return res, fmt.Errorf("%s run: %s", mode, res.Err)
		}
		if runErr != nil {
			return res, fmt.Errorf("%s run: %w", mode, runErr)
		}
		return res, nil
	}
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// report is what one invocation prints.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Units     map[string]string
	Meta      runMeta
	Outputs   outputs
	Digest    string
	Notes     []string
}

// collect repeats the workload for o.seconds (at least minReps untraced
// runs; with tracing, alternating untraced and traced runs), adds the
// Theorem-1 verification run where the workload has one, and checks
// every run's digest.
func collect(w workload, o options, do runner, stderr io.Writer) (report, error) {
	rep := report{Units: map[string]string{}}
	var plain, traced []runResult
	var all []runResult
	attempt := func(mode string) (runResult, bool) {
		rep.Attempted++
		r, err := do(mode)
		if err != nil {
			rep.Failed++
			fmt.Fprintln(stderr, "perfbench: run failed:", err)
			return r, false
		}
		all = append(all, r)
		return r, true
	}
	// Repeat until the next repetition would end more than halfway past
	// the budget, so an invocation lasts about o.seconds.
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	for rep.Attempted < 100 {
		iter := time.Now()
		if r, ok := attempt(modeRun); ok {
			plain = append(plain, r)
		}
		if o.trace == 1 {
			if r, ok := attempt(modeTraced); ok {
				traced = append(traced, r)
			}
		}
		enough := len(plain) >= minReps || (o.trace == 1 && len(plain) >= 1 && len(traced) >= 1)
		if enough && time.Since(start)+time.Since(iter)/2 >= budget {
			break
		}
		if rep.Failed > 0 && rep.Failed == rep.Attempted {
			break
		}
	}
	var verify *runResult
	if w.checkEvery > 0 {
		if r, ok := attempt(modeVerify); ok {
			verify = &r
		}
	}
	if len(plain) == 0 || (o.trace == 1 && len(traced) == 0) {
		return rep, errors.New("no run completed")
	}

	// Correctness: one digest for every run of this (workload, seed),
	// equal to the pinned one for the default seed.
	want := plain[0].Digest
	if o.seed == defaultSeed {
		pins, err := loadPins()
		if err != nil {
			return rep, err
		}
		if pin, ok := pins[o.scale+"/"+w.name]; ok {
			want = pin
		} else {
			rep.Notes = append(rep.Notes, "no pinned digest for "+o.scale+"/"+w.name)
		}
	}
	for _, r := range all {
		if r.Digest != want {
			rep.Failed++
			fmt.Fprintf(stderr, "perfbench: %s run digest %s, want %s\n", r.Mode, r.Digest, want)
		}
	}
	rep.Correct = rep.Failed == 0
	rep.Digest = plain[0].Digest
	rep.Meta = plain[0].Meta
	rep.Outputs = plain[0].Outputs

	rep.Metrics = map[string]float64{}
	if o.trace == 0 {
		for _, m := range endToEnd {
			rep.Units[m.Name] = m.Unit
		}
		rep.Metrics["setup_s"] = median(plain, func(r runResult) float64 { return r.SetupS })
		rep.Metrics["run_s"] = median(plain, func(r runResult) float64 { return r.RunS })
		rep.Metrics["cpu_s"] = median(plain, func(r runResult) float64 { return r.CPUS })
		rep.Metrics["peak_rss_mb"] = median(plain, func(r runResult) float64 { return r.PeakRSSMB })
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d untraced runs, medians reported", len(plain)))
		return rep, nil
	}

	// Per-layer metrics come from the traced run with the median run
	// time; metrics a workload does not exercise read 0 and are listed.
	sort.Slice(traced, func(i, j int) bool { return traced[i].RunS < traced[j].RunS })
	mid := traced[(len(traced)-1)/2]
	plainRun := median(plain, func(r runResult) float64 { return r.RunS })
	for _, m := range perLayer {
		rep.Units[m.Name] = m.Unit
		rep.Metrics[m.Name] = mid.Layers[m.Name]
	}
	rep.Metrics["trace.overhead"] = median(traced, func(r runResult) float64 { return r.RunS }) / plainRun
	if ev := mid.Layers["sim.events"]; ev > 0 {
		rep.Metrics["sim.events_per_s"] = ev / plainRun
	}
	if verify != nil {
		rep.Metrics["driver.check_ms"] = medianOf(verify.CheckMS)
		rep.Notes = append(rep.Notes, fmt.Sprintf("driver.check_ms: median of %d sampled Theorem-1 checks in the verification run", len(verify.CheckMS)))
	}
	var na []string
	for _, m := range perLayer {
		if _, measured := mid.Layers[m.Name]; !measured && rep.Metrics[m.Name] == 0 {
			na = append(na, m.Name)
		}
	}
	if len(na) > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("not exercised by %s (reported as 0): %v", w.name, na))
	}
	if w.sweep {
		rep.Notes = append(rep.Notes, "paper-sweep enters only through the adca facade; per-op spans need a factory and are not recorded")
	} else {
		rep.Notes = append(rep.Notes, fmt.Sprintf("sim.window_ms.p_hi is the p%g window", 100*highQuantile(int(mid.Layers["sim.windows"]))))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d untraced and %d traced runs", len(plain), len(traced)))
	return rep, nil
}

func median(rs []runResult, f func(runResult) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return medianOf(xs)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func loadPins() (map[string]string, error) {
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeReport prints the run metadata and checked outputs, then the
// result as the last line. Nothing is printed if a value cannot be
// encoded (a NaN or infinite metric).
func writeReport(w io.Writer, rep report) error {
	meta, err := json.Marshal(rep.Meta)
	if err != nil {
		return err
	}
	out, err := json.Marshal(struct {
		outputs
		Digest string `json:"digest"`
	}{rep.Outputs, rep.Digest})
	if err != nil {
		return err
	}
	metrics := map[string]metricValue{}
	for name, v := range rep.Metrics {
		metrics[name] = metricValue{Value: v, Unit: rep.Units[name]}
	}
	res, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "meta %s\noutputs %s\n", meta, out)
	for _, n := range rep.Notes {
		fmt.Fprintf(bw, "note %s\n", n)
	}
	fmt.Fprintf(bw, "%s\n", res)
	return bw.Flush()
}

// writeTrace writes a traced run's spans, per-op aggregates and run
// metadata as one JSON file.
func writeTrace(dir string, w workload, seed uint64, res runResult, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type opOut struct {
		Name  string `json:"name"`
		Shard int    `json:"shard"`
		opAgg
	}
	var ops []opOut
	var samples []spanSample
	for i := range tr.shards {
		r := &tr.shards[i]
		for op := opID(0); op < numOps; op++ {
			if r.ops[op].Count > 0 {
				ops = append(ops, opOut{opNames[op], i, r.ops[op]})
			}
		}
		samples = append(samples, r.samples...)
	}
	b, err := json.Marshal(struct {
		Meta    runMeta            `json:"meta"`
		Layers  map[string]float64 `json:"layers"`
		Phases  []phaseSpan        `json:"phases"`
		Ops     []opOut            `json:"ops"`
		Samples []spanSample       `json:"samples"`
	}{res.Meta, res.Layers, tr.phases, ops, samples})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed)), b, 0o644)
}
