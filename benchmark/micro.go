package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
	"time"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/partition"
)

// Layer micro-measurements of the traced run: single calls into one
// layer, timed from outside on the run's own graph.

// repeatMedian times fn reps times and returns the median in unit.
func repeatMedian(reps int, unit time.Duration, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t := time.Now()
		fn()
		xs[i] = float64(time.Since(t)) / float64(unit)
	}
	return median(xs)
}

// measureSpMV times the pull SpMV kernel on the largest site's
// transition matrix and derives the kernel's computed traffic: per
// stored entry a row index, a value and a gathered x entry (24 B), per
// column a column pointer and the written result (16 B), and two
// flops per stored entry. The byte and flop figures are computed from
// the matrix shape, not measured.
func measureSpMV(rep *report, rk *lmm.Ranker) {
	var m *matrix.CSR
	for s := 0; s < rk.NumSites(); s++ {
		sub, _ := rk.LocalSubgraph(graph.SiteID(s))
		if sub.NumNodes() < 2 {
			continue
		}
		if c := sub.TransitionMatrix(); m == nil || c.NNZ() > m.NNZ() {
			m = c
		}
	}
	n, nnz := m.Order(), m.NNZ()
	x, dst := matrix.NewVector(n), matrix.NewVector(n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	const batch = 200
	perNNZ := repeatMedian(7, time.Nanosecond, func() {
		for i := 0; i < batch; i++ {
			m.MulVecLeft(dst, x)
		}
	}) / float64(batch*nnz)
	bytesPer := float64(24*nnz + 16*n)
	rep.set("matrix.spmv_ns_per_nnz", perNNZ, 7)
	rep.set("matrix.bytes_per_spmv_computed", bytesPer, 1)
	rep.set("matrix.ops_per_byte_computed", float64(2*nnz)/bytesPer, 1)
}

// measureSiteGraph times deriving the SiteGraph of dg.
func measureSiteGraph(rep *report, dg *graph.DocGraph) {
	rep.set("graph.sitegraph_ms", repeatMedian(5, time.Millisecond, func() {
		graph.DeriveSiteGraph(dg, graph.SiteGraphOptions{})
	}), 5)
}

// measurePartition times the fleet's default placement (weighted LPT)
// over workers shards and reports its cut quality.
func measurePartition(rep *report, rk *lmm.Ranker, workers int) {
	dg := rk.DocGraph()
	var asg partition.Assignment
	rep.set("partition.assign_ms", repeatMedian(5, time.Millisecond, func() {
		asg = partition.Balanced{}.Partition(dg, workers)
	}), 5)
	rep.set("partition.cut_frac", partition.CutFraction(rk.SiteGraph(), asg.Owner), 1)
}

// loadShards builds the KindLoad payload a cold fleet receives: every
// site's local subgraph from Ranker.LocalSubgraph plus its row of the
// site transition chain.
func loadShards(rk *lmm.Ranker) []wire.SiteShard {
	chain := rk.SiteGraph().G.TransitionMatrix()
	shards := make([]wire.SiteShard, rk.NumSites())
	for s := range shards {
		sub, _ := rk.LocalSubgraph(graph.SiteID(s))
		sh := wire.SiteShard{Site: s, NumDocs: sub.NumNodes()}
		sub.EachEdgeAll(func(from int, e graph.Edge) {
			sh.Edges = append(sh.Edges, wire.Edge{From: from, To: e.To, Weight: e.Weight})
		})
		chain.Row(s, func(col int, val float64) {
			sh.RowCols = append(sh.RowCols, col)
			sh.RowVals = append(sh.RowVals, val)
		})
		shards[s] = sh
	}
	return shards
}

// measureWire times gob encoding and decoding of a full KindLoad
// request, per KiB of encoded payload, and reports the flate ratio
// (compressed over raw bytes) of the same shards.
func measureWire(rep *report, rk *lmm.Ranker) error {
	req := wire.Request{Kind: wire.KindLoad, Shards: loadShards(rk), NumSites: rk.NumSites()}
	var buf bytes.Buffer
	var encErr error
	enc := repeatMedian(5, time.Microsecond, func() {
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(&req); err != nil {
			encErr = err
		}
	})
	if encErr != nil {
		return fmt.Errorf("gob encode: %w", encErr)
	}
	kib := float64(buf.Len()) / 1024
	raw := buf.Bytes()
	var decErr error
	dec := repeatMedian(5, time.Microsecond, func() {
		var out wire.Request
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&out); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return fmt.Errorf("gob decode: %w", decErr)
	}
	z, rawLen, err := wire.CompressShards(req.Shards)
	if err != nil {
		return err
	}
	rep.set("wire.gob_encode_us_per_kb", enc/kib, 5)
	rep.set("wire.gob_decode_us_per_kb", dec/kib, 5)
	rep.set("wire.flate_ratio", float64(len(z))/float64(rawLen), 1)
	return nil
}

// allocProbe runs n calls serially and reports the heap allocations per
// call from MemStats deltas.
func allocProbe(rep *report, n int, call func(i int) error) error {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err := call(i); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&b)
	rep.set("lmmrank.allocs_per_rank", float64(b.Mallocs-a.Mallocs)/float64(n), n)
	rep.set("lmmrank.alloc_kb_per_rank", float64(b.TotalAlloc-a.TotalAlloc)/1024/float64(n), n)
	return nil
}

// runtimeMetrics reports GC and scheduler readings between two
// snapshots spanning ops operations.
func runtimeMetrics(rep *report, a, b runtimeSample, ops int) {
	rep.set("runtime.gc_pause_p99_us", histQuantile(a.pauses, b.pauses, 0.99)*1e6, ops)
	rep.set("runtime.sched_latency_p99_us", histQuantile(a.sched, b.sched, 0.99)*1e6, ops)
	rep.set("runtime.gc_cycles_per_kop", float64(b.gcCycles-a.gcCycles)*1000/float64(max(ops, 1)), ops)
}
