package main

import (
	"math/rand"

	"lmmrank"
	"lmmrank/internal/graph"
	"lmmrank/internal/webgen"
)

// Every input of a run derives from the --seed argument: the web, the
// query stream, the personalization profiles and the churn edits. The
// engines receive only these generated values.

// genWeb generates the paper-scale campus web (218 sites, ~16-19k
// documents) for a seed. The graph is deduplicated here, as input
// preparation, so every timed set-up does the same work.
func genWeb(seed int64) *graph.DocGraph {
	cfg := webgen.Default()
	cfg.Seed = seed
	dg := webgen.Generate(cfg).Graph
	dg.G.Dedupe()
	return dg
}

// edit is one churn operation: a new intra-site link inside one site,
// published as a 1-site Apply-path Update.
type edit struct {
	site     graph.SiteID
	from, to graph.DocID
}

func (e edit) apply(dg *graph.DocGraph) { dg.G.AddLink(int(e.from), int(e.to)) }

func (e edit) delta() lmmrank.GraphDelta {
	return lmmrank.GraphDelta{
		ChangedSites: []lmmrank.SiteID{e.site},
		Apply: func(dg *lmmrank.DocGraph) error {
			e.apply(dg)
			return nil
		},
	}
}

// editSource draws seeded edits over the sites with at least three
// documents. Edits only add links, so site rosters never change and any
// edit is valid on any version of the graph.
type editSource struct {
	rng   *rand.Rand
	dg    *graph.DocGraph
	sites []graph.SiteID
	log   []edit // every edit drawn, in order
}

func newEditSource(seed int64, dg *graph.DocGraph) *editSource {
	es := &editSource{rng: rand.New(rand.NewSource(seed)), dg: dg}
	for s := range dg.Sites {
		if len(dg.Sites[s].Docs) >= 3 {
			es.sites = append(es.sites, graph.SiteID(s))
		}
	}
	return es
}

func (es *editSource) next() edit {
	s := es.sites[es.rng.Intn(len(es.sites))]
	docs := es.dg.Sites[s].Docs
	a := es.rng.Intn(len(docs))
	b := es.rng.Intn(len(docs) - 1)
	if b >= a {
		b++
	}
	e := edit{site: s, from: docs[a], to: docs[b]}
	es.log = append(es.log, e)
	return e
}

// normalize scales v to unit L1 mass. The solvers require teleport
// vectors that are distributions (pagerank.Config rejects anything off
// by more than 1e-6), so every generated vector is sent normalized; see
// README.md for the admission/solver mismatch this works around.
func normalize(v lmmrank.Vector) lmmrank.Vector {
	var sum float64
	for _, x := range v {
		sum += x
	}
	for i := range v {
		v[i] /= sum
	}
	return v
}

// profilePool is a small seeded set of site-personalization profiles:
// each favours a dozen sites over a uniform floor. Queries drawn from
// it repeat and overlap, which is what coalescing feeds on.
type profilePool [][]float64

func newProfilePool(rng *rand.Rand, numSites, count int) profilePool {
	pool := make(profilePool, count)
	for p := range pool {
		v := make([]float64, numSites)
		for i := range v {
			v[i] = 0.2 / float64(numSites)
		}
		for j := 0; j < 12; j++ {
			v[rng.Intn(numSites)] += 0.8 / 12 * (0.5 + rng.Float64())
		}
		pool[p] = normalize(v)
	}
	return pool
}

// draw returns a copy of a random profile; half the draws are jittered
// by up to ±jitter relative on every entry, the other half repeat the
// profile exactly.
func (pool profilePool) draw(rng *rand.Rand, jitter float64) lmmrank.Vector {
	p := pool[rng.Intn(len(pool))]
	v := append(lmmrank.Vector(nil), p...)
	if rng.Intn(2) == 0 {
		for i := range v {
			v[i] *= 1 + jitter*(2*rng.Float64()-1)
		}
		normalize(v)
	}
	return v
}

// freshVector is a random distribution over n entries with a fifth of
// them boosted: distinct on every call, so no two queries share it.
func freshVector(rng *rand.Rand, n int) lmmrank.Vector {
	v := make(lmmrank.Vector, n)
	for i := range v {
		v[i] = 0.05 + rng.Float64()
		if rng.Intn(5) == 0 {
			v[i] += 4 * rng.ExpFloat64()
		}
	}
	return normalize(v)
}
