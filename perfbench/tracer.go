package main

import (
	"math/bits"
	"time"

	"repro/internal/alloc"
	"repro/internal/chanset"
	"repro/internal/hexgrid"
	"repro/internal/message"
	"repro/internal/sim"
)

// The traced run measures layers from outside: a decorator around the
// allocation factory wraps every cell's Allocator (the protocol core)
// and the alloc.Env handed to it (the driver), timing each call that
// crosses the boundary. Nothing inside the repository is modified, and
// untraced runs never see these types.

// opID names one aggregated hot-path span.
type opID uint8

const (
	opRequest opID = iota // Allocator.Request
	opRelease             // Allocator.Release
	opHandle              // Allocator.Handle, one op per message.Kind
	opSend    = opHandle + opID(message.NumKinds)
	opResult  = opSend + 1 // Env.Granted / Env.Denied, incl. the workload's continuation
	opAfter   = opSend + 2 // Env.After
	numOps    = opSend + 3
)

// opNames are the span names the metrics and the trace file use.
var opNames = func() [numOps]string {
	var n [numOps]string
	n[opRequest] = "core.request"
	n[opRelease] = "core.release"
	kinds := [...]string{"request", "response", "change_mode", "acquisition", "release", "ack"}
	for k := 0; k < message.NumKinds; k++ {
		n[opHandle+opID(k)] = "core.handle." + kinds[k]
	}
	n[opSend] = "driver.send"
	n[opResult] = "driver.result"
	n[opAfter] = "sim.after"
	return n
}()

// sampleEvery keeps one hot-path span in this many as an individual
// record (per shard).
const sampleEvery = 4096

// histBuckets is the log2 histogram width: bucket b holds self times
// in [2^(b-1), 2^b) ns.
const histBuckets = 40

var clockBase = time.Now()

// nowNS is the tracer's monotonic clock.
func nowNS() int64 { return int64(time.Since(clockBase)) }

type opAgg struct {
	Count   uint64              `json:"count"`
	TotalNS int64               `json:"total_ns"`
	SelfNS  int64               `json:"self_ns"`
	Hist    [histBuckets]uint64 `json:"log2_self_hist"`
}

type frame struct {
	op           opID
	start, child int64
}

// spanSample is one individually kept hot-path span.
type spanSample struct {
	Name    string `json:"name"`
	Shard   int    `json:"shard"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// shardRec is one shard's span state. A shard's cells run on one worker
// at a time and the kernel's window barrier orders workers, so the
// record needs no atomics; the padding keeps neighbouring shards off one
// cache line.
type shardRec struct {
	ops     [numOps]opAgg
	stack   []frame
	busyNS  int64 // time inside root (outermost) spans
	calls   uint64
	samples []spanSample
	id      int
	_       [64]byte
}

func (r *shardRec) begin(op opID) {
	r.stack = append(r.stack, frame{op: op, start: nowNS()})
}

func (r *shardRec) end() {
	t := nowNS()
	i := len(r.stack) - 1
	f := r.stack[i]
	r.stack = r.stack[:i]
	dur := t - f.start
	self := dur - f.child
	a := &r.ops[f.op]
	a.Count++
	a.TotalNS += dur
	a.SelfNS += self
	b := bits.Len64(uint64(self))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	a.Hist[b]++
	parent := ""
	if i > 0 {
		r.stack[i-1].child += dur
		parent = opNames[r.stack[i-1].op]
	} else {
		r.busyNS += dur
	}
	if r.calls++; r.calls%sampleEvery == 0 {
		r.samples = append(r.samples, spanSample{
			Name: opNames[f.op], Shard: r.id, Parent: parent,
			StartNS: f.start, DurNS: dur, SelfNS: self,
		})
	}
}

// phaseSpan is one coarse span: a setup step, a simulation window, a
// merge. Parent 0 is the root.
type phaseSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer holds everything a traced run records, in memory until the
// run ends.
type tracer struct {
	shards []shardRec
	phases []phaseSpan
	newNS  int64 // time inside Factory.New
}

func newTracer(shards int) *tracer {
	t := &tracer{shards: make([]shardRec, shards)}
	for i := range t.shards {
		t.shards[i].id = i
	}
	return t
}

// span records a finished coarse span and returns its id.
func (t *tracer) span(name string, parent int, start, end int64) int {
	id := len(t.phases) + 1
	t.phases = append(t.phases, phaseSpan{ID: id, Parent: parent, Name: name, StartNS: start, EndNS: end})
	return id
}

// resetOps clears the hot-path aggregates (kept samples stay), so the
// per-op metrics cover only the phase that follows.
func (t *tracer) resetOps() {
	for i := range t.shards {
		r := &t.shards[i]
		r.ops = [numOps]opAgg{}
		r.busyNS = 0
	}
}

// op sums one op's aggregate over shards.
func (t *tracer) op(op opID) opAgg {
	var s opAgg
	for i := range t.shards {
		a := &t.shards[i].ops[op]
		s.Count += a.Count
		s.TotalNS += a.TotalNS
		s.SelfNS += a.SelfNS
		for b := range a.Hist {
			s.Hist[b] += a.Hist[b]
		}
	}
	return s
}

// wrap decorates factory so every allocator it builds, and the
// environment each is started with, report to the shard of its cell.
func (t *tracer) wrap(factory alloc.Factory, part *hexgrid.Partition) alloc.Factory {
	return &tracedFactory{inner: factory, tr: t, part: part}
}

type tracedFactory struct {
	inner alloc.Factory
	tr    *tracer
	part  *hexgrid.Partition
}

func (f *tracedFactory) Name() string { return f.inner.Name() }

func (f *tracedFactory) New(cell hexgrid.CellID) alloc.Allocator {
	t0 := nowNS()
	a := f.inner.New(cell)
	f.tr.newNS += nowNS() - t0
	return &tracedAlloc{inner: a, rec: &f.tr.shards[f.part.ShardOf(cell)]}
}

// tracedAlloc times the calls the driver makes into one cell's
// allocator and forwards the protocol counters.
type tracedAlloc struct {
	inner alloc.Allocator
	rec   *shardRec
}

func (a *tracedAlloc) Start(env alloc.Env) { a.inner.Start(&tracedEnv{Env: env, rec: a.rec}) }

func (a *tracedAlloc) Request(id alloc.RequestID) {
	a.rec.begin(opRequest)
	a.inner.Request(id)
	a.rec.end()
}

func (a *tracedAlloc) Release(ch chanset.Channel) error {
	a.rec.begin(opRelease)
	err := a.inner.Release(ch)
	a.rec.end()
	return err
}

func (a *tracedAlloc) Handle(m message.Message) {
	a.rec.begin(opHandle + opID(m.Kind))
	a.inner.Handle(m)
	a.rec.end()
}

func (a *tracedAlloc) InUse() chanset.Set { return a.inner.InUse() }
func (a *tracedAlloc) Mode() int          { return a.inner.Mode() }

func (a *tracedAlloc) ProtocolCounters() alloc.Counters {
	if cp, ok := a.inner.(alloc.CounterProvider); ok {
		return cp.ProtocolCounters()
	}
	return alloc.Counters{}
}

// tracedEnv times the calls one allocator makes into the driver.
type tracedEnv struct {
	alloc.Env
	rec *shardRec
}

func (e *tracedEnv) Send(m message.Message) {
	e.rec.begin(opSend)
	e.Env.Send(m)
	e.rec.end()
}

func (e *tracedEnv) Granted(id alloc.RequestID, ch chanset.Channel) {
	e.rec.begin(opResult)
	e.Env.Granted(id, ch)
	e.rec.end()
}

func (e *tracedEnv) Denied(id alloc.RequestID) {
	e.rec.begin(opResult)
	e.Env.Denied(id)
	e.rec.end()
}

func (e *tracedEnv) After(d sim.Time, fn func()) {
	e.rec.begin(opAfter)
	e.Env.After(d, fn)
	e.rec.end()
}

// open starts a coarse span whose end is set later by close.
func (t *tracer) open(name string, parent int, start int64) int {
	return t.span(name, parent, start, 0)
}

func (t *tracer) close(id int, end int64) { t.phases[id-1].EndNS = end }
