package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chanset"
	"repro/internal/driver"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/traffic"
)

// BreakdownResult is appendix table A1: control traffic decomposed by
// message kind, plus the wire-byte cost per call (every message routed
// through the binary codec).
type BreakdownResult struct {
	Title   string
	Schemes []string
	// PerKind[i][k] is scheme i's per-call count of message kind k.
	PerKind [][]float64
	// BytesPerCall is the wire volume per completed request.
	BytesPerCall []float64
}

// Render formats A1.
func (r BreakdownResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	cols := make([]metrics.Series, message.NumKinds+1)
	for k := 0; k < message.NumKinds; k++ {
		cols[k] = metrics.Series{Label: message.Kind(k).String()}
		for i := range r.Schemes {
			cols[k].Values = append(cols[k].Values, r.PerKind[i][k])
		}
	}
	cols[message.NumKinds] = metrics.Series{Label: "bytes/call", Values: r.BytesPerCall}
	b.WriteString(metrics.Table("scheme", r.Schemes, cols))
	return b.String()
}

// Breakdown runs A1 at a moderate uniform load with wire-mode transport.
func Breakdown(env Env, schemes []string) (BreakdownResult, error) {
	if len(schemes) == 0 {
		schemes = Schemes()
	}
	prim := env.PrimariesPerCell()
	profile := traffic.Uniform{PerCell: env.RatePerCell(0.6 * prim)}
	res := BreakdownResult{
		Title:   "A1 — control traffic by message kind (0.6 Erlang/primary, wire-encoded)",
		Schemes: schemes,
	}
	// One job per scheme on the shared pool; each builds its own grid
	// and assignment so nothing is shared between concurrent runs.
	type outcome struct {
		row   []float64
		bytes float64
		err   error
	}
	outs := make([]outcome, len(schemes))
	forEachJob(len(schemes), env.workers(), func(i int) {
		scheme := schemes[i]
		g, err := hexgrid.New(env.Grid)
		if err != nil {
			outs[i].err = err
			return
		}
		assign, err := chanset.Assign(g, env.Channels)
		if err != nil {
			outs[i].err = err
			return
		}
		factory, err := registry.Build(scheme, g, assign, registry.Config{
			Latency: env.Latency, Adaptive: env.Adaptive, MaxRounds: env.MaxRounds,
		})
		if err != nil {
			outs[i].err = err
			return
		}
		s, err := driver.NewParallel(g, assign, factory, driver.ParallelOptions{
			Latency: env.Latency, Seed: env.Seeds[0], Wire: true, Shards: 1,
		})
		if err != nil {
			outs[i].err = err
			return
		}
		if _, err := traffic.RunParallel(s, traffic.Spec{
			Profile:  profile,
			MeanHold: env.MeanHold,
			Duration: env.Duration,
			Warmup:   env.Warmup,
			Seed:     env.Seeds[0],
		}); err != nil {
			outs[i].err = err
			return
		}
		st := s.Stats()
		completed := float64(st.Grants + st.Denies)
		if completed == 0 {
			completed = 1
		}
		row := make([]float64, message.NumKinds)
		for k := range row {
			row[k] = float64(st.Messages.ByKind[k]) / completed
		}
		outs[i] = outcome{row: row, bytes: float64(st.Messages.Bytes) / completed}
	})
	for i := range schemes {
		if outs[i].err != nil {
			return BreakdownResult{}, outs[i].err
		}
		res.PerKind = append(res.PerKind, outs[i].row)
		res.BytesPerCall = append(res.BytesPerCall, outs[i].bytes)
	}
	return res, nil
}
