package graph

import (
	"fmt"
	"slices"
)

// SiteGraphOptions controls SiteGraph derivation.
type SiteGraphOptions struct {
	// DropSelfLoops omits intra-site edges from the SiteGraph. The paper
	// counts "the number of outgoing edges from any node in the first site
	// to any node in the second site"; with DropSelfLoops false (the
	// default) the same counting is applied to I = J, so Y_II carries the
	// intra-site link mass — matching the random-surfer reading in which
	// most transitions stay within a site. Setting it true exposes the
	// inter-site-only reading for ablation.
	DropSelfLoops bool
}

// SiteGraph is the paper's G_S(V_S, E_S): one node per Web site, edge
// weights counting the SiteLinks (document-level links aggregated between
// site pairs).
type SiteGraph struct {
	// G holds the site-level link structure; node s corresponds to site
	// SiteID(s) of the originating DocGraph.
	G *Digraph
	// Names holds the site names indexed by SiteID.
	Names []string
}

// NumSites returns the number of sites.
func (sg *SiteGraph) NumSites() int { return len(sg.Names) }

// DeriveSiteGraph aggregates a DocGraph at the Web-site level (§3.2 step
// 2): for each document edge d→d' it adds one unit of weight (times the
// edge multiplicity) to the site edge site(d)→site(d').
//
// It runs in one linear pass, row by row: site s's row sums the
// adjacency rows of s's roster into a dense per-target accumulator and
// sorts only the touched target sites. The cost is O(E) plus one sort
// per row over its distinct targets, with O(NumSites) allocations; rows
// come out sorted, merged and exactly sized, so the result is already
// deduplicated. A row's weights sum in (document, edge) order: roster
// order, then each document's adjacency order.
func DeriveSiteGraph(dg *DocGraph, opts SiteGraphOptions) *SiteGraph {
	ns := dg.NumSites()
	g := NewDigraph(ns)
	// Edge weights are always > 0, so acc[t] == 0 marks an untouched
	// target; emitting a row resets exactly the entries it touched.
	acc := make([]float64, ns)
	touched := make([]int, 0, ns)
	for s, site := range dg.Sites {
		for _, d := range site.Docs {
			for _, e := range dg.G.out[d] {
				t := int(dg.Docs[e.To].Site)
				if opts.DropSelfLoops && t == s {
					continue
				}
				if acc[t] == 0 {
					touched = append(touched, t)
				}
				acc[t] += e.Weight
			}
		}
		if len(touched) == 0 {
			continue
		}
		slices.Sort(touched)
		row := make([]Edge, len(touched))
		for i, t := range touched {
			row[i] = Edge{To: t, Weight: acc[t]}
			acc[t] = 0
		}
		g.out[s] = row
		touched = touched[:0]
	}
	g.deduped = true
	names := make([]string, ns)
	for s, site := range dg.Sites {
		names[s] = site.Name
	}
	return &SiteGraph{G: g, Names: names}
}

// SiteLinkCount returns the aggregated SiteLink weight from site a to site
// b (0 when no link exists).
func (sg *SiteGraph) SiteLinkCount(a, b SiteID) float64 {
	var w float64
	sg.G.EachEdge(int(a), func(e Edge) {
		if e.To == int(b) {
			w += e.Weight
		}
	})
	return w
}

// TotalWeight returns the sum of all SiteLink weights, which equals the
// total DocLink weight covered by the aggregation (all edges, or inter-site
// edges only when self-loops were dropped).
func (sg *SiteGraph) TotalWeight() float64 {
	var w float64
	sg.G.EachEdgeAll(func(_ int, e Edge) { w += e.Weight })
	return w
}

// String summarizes the SiteGraph.
func (sg *SiteGraph) String() string {
	return fmt.Sprintf("SiteGraph{%d sites, %d edges, weight %.0f}",
		sg.NumSites(), sg.G.NumEdges(), sg.TotalWeight())
}
