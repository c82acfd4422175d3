package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceSiteGraph is the per-edge aggregation DeriveSiteGraph
// replaced: one AddEdge per document edge, then Dedupe's sort-and-merge.
// It is the oracle the linear pass must reproduce.
func referenceSiteGraph(dg *DocGraph, opts SiteGraphOptions) *Digraph {
	g := NewDigraph(dg.NumSites())
	dg.G.EachEdgeAll(func(from int, e Edge) {
		sFrom := dg.Docs[from].Site
		sTo := dg.Docs[e.To].Site
		if opts.DropSelfLoops && sFrom == sTo {
			return
		}
		g.AddEdge(int(sFrom), int(sTo), e.Weight)
	})
	g.Dedupe()
	return g
}

// oracleWeb hand-builds a DocGraph exercising every shape the
// aggregation must handle: empty sites (no documents), dangling
// documents, document self-loops, parallel edges stored as separate
// entries (the digraph is left undeduplicated when dedupe is false) and
// merged multi-edges of weight > 1. Integer weights are whole numbers in
// [1, 3]; otherwise they are fractional.
func oracleWeb(rng *rand.Rand, nSites, nDocs int, integer, dedupe bool) *DocGraph {
	docs := make([]Doc, nDocs)
	sites := make([]Site, nSites)
	for s := range sites {
		sites[s].Name = fmt.Sprintf("s%d.example", s)
	}
	// Leave the last quarter of the sites empty.
	populated := nSites - nSites/4
	for d := range docs {
		s := rng.Intn(populated)
		docs[d] = Doc{URL: fmt.Sprintf("http://s%d.example/p%d", s, d), Site: SiteID(s)}
		sites[s].Docs = append(sites[s].Docs, DocID(d))
	}
	weight := func() float64 {
		if integer {
			return float64(1 + rng.Intn(3))
		}
		return 0.001 + 3*rng.Float64()
	}
	g := NewDigraph(nDocs)
	for from := 0; from < nDocs; from++ {
		if rng.Intn(5) == 0 {
			continue // dangling
		}
		for k := rng.Intn(8); k >= 0; k-- {
			to := rng.Intn(nDocs)
			switch rng.Intn(6) {
			case 0:
				to = from
			case 1:
				g.AddEdge(from, to, weight()) // a parallel entry
			}
			g.AddEdge(from, to, weight())
		}
	}
	if dedupe {
		g.Dedupe()
	}
	return &DocGraph{G: g, Docs: docs, Sites: sites}
}

// TestDeriveSiteGraphMatchesReference pins the linear-pass derivation to
// the per-edge AddEdge+Dedupe aggregation on random webs: bitwise on
// integer weights (every summation order is exact), within 1e-12
// relative on fractional ones (the summation order differs). The result
// must also come out already deduplicated, so a later Dedupe is a no-op.
func TestDeriveSiteGraphMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		integer := seed%2 == 0
		dg := oracleWeb(rng, 2+rng.Intn(30), 1+rng.Intn(300), integer, seed%4 < 2)
		if err := dg.Validate(); err != nil {
			t.Fatalf("seed %d: invalid web: %v", seed, err)
		}
		for _, drop := range []bool{false, true} {
			opts := SiteGraphOptions{DropSelfLoops: drop}
			sg := DeriveSiteGraph(dg, opts)
			ref := referenceSiteGraph(dg, opts)
			name := fmt.Sprintf("seed %d integer=%v drop=%v", seed, integer, drop)
			if sg.NumSites() != dg.NumSites() || sg.G.NumNodes() != dg.NumSites() {
				t.Fatalf("%s: %d names, %d nodes, want %d", name,
					sg.NumSites(), sg.G.NumNodes(), dg.NumSites())
			}
			for s := range dg.Sites {
				if sg.Names[s] != dg.Sites[s].Name {
					t.Errorf("%s: name %d = %q, want %q", name, s, sg.Names[s], dg.Sites[s].Name)
				}
				got, want := sg.G.out[s], ref.out[s]
				if len(got) != len(want) {
					t.Fatalf("%s: row %d has %d targets, want %d", name, s, len(got), len(want))
				}
				for i := range got {
					if got[i].To != want[i].To {
						t.Fatalf("%s: row %d entry %d targets %d, want %d",
							name, s, i, got[i].To, want[i].To)
					}
					gw, ww := got[i].Weight, want[i].Weight
					if integer && math.Float64bits(gw) != math.Float64bits(ww) {
						t.Errorf("%s: %d→%d weight %v, want bitwise %v", name, s, got[i].To, gw, ww)
					}
					if !integer && math.Abs(gw-ww) > 1e-12*math.Max(math.Abs(gw), math.Abs(ww)) {
						t.Errorf("%s: %d→%d weight %v, want %v within 1e-12", name, s, got[i].To, gw, ww)
					}
				}
			}
			assertDeduplicated(t, name, sg.G)
		}
	}
}

// assertDeduplicated checks that g is already in Dedupe's output form:
// flagged deduplicated, every row exactly sized, and an explicit
// re-Dedupe (which would sort and merge) changing nothing.
func assertDeduplicated(t *testing.T, name string, g *Digraph) {
	t.Helper()
	if !g.deduped {
		t.Errorf("%s: site graph not flagged deduplicated", name)
	}
	before := make([][]Edge, len(g.out))
	for s, es := range g.out {
		if cap(es) != len(es) {
			t.Errorf("%s: row %d has capacity %d for %d entries", name, s, cap(es), len(es))
		}
		before[s] = append([]Edge(nil), es...)
	}
	g.deduped = false
	g.Dedupe()
	for s, es := range g.out {
		if len(es) != len(before[s]) {
			t.Fatalf("%s: Dedupe changed row %d length %d → %d", name, s, len(before[s]), len(es))
		}
		for i := range es {
			if es[i].To != before[s][i].To ||
				math.Float64bits(es[i].Weight) != math.Float64bits(before[s][i].Weight) {
				t.Errorf("%s: Dedupe changed row %d entry %d", name, s, i)
			}
		}
	}
}

// TestDeriveSiteGraphAllocs pins the derivation's allocation count to
// O(NumSites) — one exactly sized slice per non-empty site row plus a
// constant handful — independent of the number of document edges.
func TestDeriveSiteGraphAllocs(t *testing.T) {
	dg := benchDocGraph(200, 100, 1)
	limit := float64(dg.NumSites() + 8)
	allocs := testing.AllocsPerRun(5, func() {
		DeriveSiteGraph(dg, SiteGraphOptions{})
	})
	if allocs > limit {
		t.Errorf("DeriveSiteGraph: %.0f allocs, want ≤ %.0f (NumSites + 8)", allocs, limit)
	}
}
