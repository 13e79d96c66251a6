package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"repro"
	"repro/internal/alloc"
	"repro/internal/driver"
	"repro/internal/traffic"
)

// digester hashes simulated statistics as little-endian uint64s. The
// digest is the benchmark's correctness gate: the simulation is
// deterministic per (workload, seed), so every repetition, the traced
// run and the verification run must reproduce it bit for bit.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) put(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func (d *digester) counters(c alloc.Counters) {
	d.put(c.GrantsLocal, c.GrantsUpdate, c.GrantsSearch, c.Drops,
		c.UpdateAttempts, c.ModeChanges, c.BadReleases, c.Deferred)
}

// shardedDigest covers the workload statistics (totals and per-cell
// offered/blocked) and the driver's grants, denies, messages by kind
// and protocol counters.
func shardedDigest(ts traffic.Stats, st driver.Stats) string {
	d := newDigester()
	d.put(ts.Offered, ts.Blocked, ts.HandoffAttempts, ts.HandoffDrops, uint64(len(ts.PerCellOffered)))
	d.put(ts.PerCellOffered...)
	d.put(ts.PerCellBlocked...)
	d.put(st.Grants, st.Denies, st.Messages.Total)
	d.put(st.Messages.ByKind[:]...)
	d.counters(st.Counters)
	return d.sum()
}

// sweepDigester covers, per sweep point, what the public facade
// reports: workload statistics and network statistics.
type sweepDigester struct{ *digester }

func (d sweepDigester) point(ws adca.WorkloadStats, st adca.Stats) {
	d.put(ws.Offered, ws.Blocked, ws.HandoffAttempts, ws.HandoffDrops)
	d.put(st.Grants, st.Denies, st.ProtocolDenies, st.Messages,
		st.LocalGrants, st.UpdateGrants, st.SearchGrants,
		st.UpdateAttempts, st.ModeChanges, st.Deferred, st.BadReleases)
}
