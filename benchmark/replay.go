package main

import (
	"time"

	"lmmrank"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// Span names. Roots wrap the engine calls the load makes; the others
// wrap the benchmark's replay of the same request through the layers.
const (
	spanRank      = "lmmrank.Engine.Rank"
	spanUpdate    = "lmmrank.Engine.Update"
	spanSites     = "lmm.Ranker.RankSites"
	spanLocals    = "lmm.locals"            // every site's local DocRank, with the engine's fan-out
	spanLocal     = "pagerank.Solver.Solve" // one site's local DocRank
	spanDistLocal = "lmm.LocalDocRank"      // one site, as a fleet worker runs it
	spanCompose   = "lmm.ComposeDocRank"
	spanTopDocs   = "lmmrank.TopDocs"
	spanRank3     = "lmm.Ranker.Rank3"
	spanCloneCOW  = "graph.CloneCOW"
	spanRebuild   = "lmm.Ranker.RebuildOn"
	spanRefresh   = "lmm.Ranker.RankRefresh"
	spanFullRank  = "lmm.Ranker.Rank"
)

// path says which engine code path a request takes, and so how it is
// replayed and checked.
type path int

const (
	pathIndex path = iota // TopKIndex serve: site solve + composition + top-k merge
	pathExact             // full two-layer solve
	pathThree             // full three-layer solve
	pathDist              // distributed two-layer solve
)

// request is one generated query with the path it takes.
type request struct {
	q    lmmrank.Query
	path path
}

// replayer keeps its own Ranker in step with an engine and replays
// sampled requests and every Update through the layer calls, one
// request at a time, recording a span around each call. It mirrors the engine's
// warm-start state: the seeds the engine's snapshot would hold.
type replayer struct {
	tr          *tracer
	dg          *graph.DocGraph
	rk          *lmm.Ranker
	prepare     bool // local engines Prepare after a rebuild; the fleet does not
	refresh     bool // TopKIndex engines refresh, plain engines re-rank
	parallelism int
	seedSite    matrix.Vector
	seedLocals  []matrix.Vector
	solvers     []*pagerank.Solver
}

func newReplayer(tr *tracer, dg *graph.DocGraph, prepare, refresh, warm bool, parallelism int) (*replayer, error) {
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{})
	if err != nil {
		return nil, err
	}
	rk.Prepare()
	r := &replayer{tr: tr, dg: dg, rk: rk, prepare: prepare, refresh: refresh, parallelism: parallelism}
	if warm {
		// A TopKIndex engine solves once at construction; so does this.
		wr, err := rk.Share().RankRefresh(nil, lmm.WebConfig{Parallelism: parallelism})
		if err != nil {
			return nil, err
		}
		r.keepSeeds(wr)
	}
	r.solvers = make([]*pagerank.Solver, rk.NumSites())
	return r, nil
}

func (r *replayer) keepSeeds(wr *lmm.WebResult) {
	r.seedSite = wr.SiteRank.Clone()
	r.seedLocals = make([]matrix.Vector, len(wr.LocalRanks))
	for i, v := range wr.LocalRanks {
		r.seedLocals[i] = v.Clone()
	}
}

// solver returns site s's private local solver, nil for a site of at
// most one document (its local rank is fixed).
func (r *replayer) solver(s int) *pagerank.Solver {
	sub, _ := r.rk.LocalSubgraph(graph.SiteID(s))
	if sub.NumNodes() <= 1 {
		return nil
	}
	if r.solvers[s] == nil {
		r.solvers[s] = pagerank.NewSolver(sub.TransitionMatrix())
	}
	return r.solvers[s]
}

// rank replays one request under root span id.
func (r *replayer) rank(req int64, root int, rq request) {
	q := rq.q
	cfg := lmm.WebConfig{SitePersonalization: q.SitePersonalization, Parallelism: r.parallelism}
	switch rq.path {
	case pathIndex:
		weights := r.seedSite
		if q.SitePersonalization != nil {
			cfg.SiteStart = r.seedSite
			r.tr.timed(spanSites, req, root, func() int {
				v, it, err := r.rk.RankSites(cfg)
				if err != nil {
					panic(err) // the engine answered this query; the replay must too
				}
				weights = v.Clone()
				return it
			})
		}
		r.tr.timed(spanCompose, req, root, func() int {
			lmm.ComposeDocRank(r.dg, weights, r.seedLocals)
			return 0
		})
	case pathThree:
		cfg.LocalStarts = r.seedLocals
		var doc matrix.Vector
		r.tr.timed(spanRank3, req, root, func() int {
			wr, err := r.rk.Rank3(q.DomainOf, cfg)
			if err != nil {
				panic(err)
			}
			doc = wr.DocRank
			return 0
		})
		r.topDocs(req, root, doc, q.TopK)
	case pathExact, pathDist:
		cfg.SiteStart = r.seedSite
		var weights matrix.Vector
		r.tr.timed(spanSites, req, root, func() int {
			v, it, err := r.rk.RankSites(cfg)
			if err != nil {
				panic(err)
			}
			weights = v.Clone()
			return it
		})
		locals := r.locals(req, root, rq)
		var doc matrix.Vector
		r.tr.timed(spanCompose, req, root, func() int {
			doc = lmm.ComposeDocRank(r.dg, weights, locals)
			return 0
		})
		r.topDocs(req, root, doc, q.TopK)
	}
}

// locals solves every site's local DocRank with the engine's fan-out,
// under one span covering the whole parallel section (its Count is the
// total iterations) with one child span per solved site.
func (r *replayer) locals(req int64, root int, rq request) []matrix.Vector {
	out := make([]matrix.Vector, r.rk.NumSites())
	iters := make([]int, len(out))
	start := time.Now()
	id := r.tr.reserve()
	lmm.ForEachParallel(len(out), r.parallelism, func(s int) {
		sub, _ := r.rk.LocalSubgraph(graph.SiteID(s))
		switch {
		case sub.NumNodes() == 0:
			out[s] = matrix.Vector{}
			return
		case sub.NumNodes() == 1:
			out[s] = matrix.Vector{1}
			return
		}
		t := time.Now()
		if rq.path == pathDist {
			v, it, err := lmm.LocalDocRank(sub, lmm.WebConfig{})
			if err != nil {
				panic(err)
			}
			out[s], iters[s] = v, it
			r.tr.add(spanDistLocal, req, id, t, time.Now(), it)
			return
		}
		pc := pagerank.Config{Personalization: rq.q.DocPersonalization[lmmrank.SiteID(s)]}
		if s < len(r.seedLocals) && len(r.seedLocals[s]) == sub.NumNodes() {
			pc.Start = r.seedLocals[s]
		}
		res, err := r.solver(s).Solve(pc)
		if err != nil {
			panic(err)
		}
		out[s], iters[s] = res.Scores, res.Iterations
		r.tr.add(spanLocal, req, id, t, time.Now(), res.Iterations)
	})
	total := 0
	for _, it := range iters {
		total += it
	}
	r.tr.fill(id, spanLocals, req, root, start, time.Now(), total)
	return out
}

func (r *replayer) topDocs(req int64, root int, doc matrix.Vector, k int) {
	if k <= 0 {
		return
	}
	r.tr.timed(spanTopDocs, req, root, func() int {
		lmmrank.TopDocs(r.dg, doc, k)
		return 0
	})
}

// update replays one Update: clone, apply, rebuild and (for local
// engines) the refresh solve whose result the next snapshot seeds from.
func (r *replayer) update(req int64, root int, e edit) {
	var work *graph.DocGraph
	r.tr.timed(spanCloneCOW, req, root, func() int {
		work = r.dg.CloneCOW()
		return 0
	})
	e.apply(work)
	changed := []graph.SiteID{e.site}
	var next *lmm.Ranker
	r.tr.timed(spanRebuild, req, root, func() int {
		var err error
		next, err = r.rk.RebuildOn(work, changed)
		if err != nil {
			panic(err)
		}
		if r.prepare {
			next.Prepare()
		}
		return 0
	})
	r.dg, r.rk = work, next
	r.solvers[e.site] = nil
	if !r.prepare {
		return
	}
	cfg := lmm.WebConfig{Parallelism: r.parallelism, SiteStart: r.seedSite, LocalStarts: r.seedLocals}
	if r.refresh {
		r.tr.timed(spanRefresh, req, root, func() int {
			wr, err := next.Share().RankRefresh(changed, cfg)
			if err != nil {
				panic(err)
			}
			r.keepSeeds(wr)
			return sitesSolved(wr)
		})
		return
	}
	r.tr.timed(spanFullRank, req, root, func() int {
		wr, err := next.Share().Rank(cfg)
		if err != nil {
			panic(err)
		}
		r.keepSeeds(wr)
		return sitesSolved(wr)
	})
}

// sitesSolved counts the sites a refresh ran power iterations for.
func sitesSolved(wr *lmm.WebResult) int {
	n := 0
	for _, it := range wr.LocalIterations {
		if it > 0 {
			n++
		}
	}
	return n
}

// replayJob is one queued replay: a sampled request or an Update.
type replayJob struct {
	req  int64
	root int
	rq   *request
	e    *edit
}

// runReplays drains jobs in order until the channel closes.
func (r *replayer) run(jobs <-chan replayJob, done chan<- struct{}) {
	for j := range jobs {
		if j.e != nil {
			r.update(j.req, j.root, *j.e)
		} else {
			r.rank(j.req, j.root, *j.rq)
		}
	}
	close(done)
}
