package lmm

import (
	"errors"
	"fmt"

	"lmmrank/internal/graph"
)

// ErrStaleResult is returned (wrapped) when a rebuild cannot reuse a
// site's precomputed structure: the site's document roster changed but
// the site was not listed as changed, or sites were removed.
var ErrStaleResult = errors.New("lmm: previous result is stale")

// Rebuild returns a new Ranker over this Ranker's (since mutated)
// DocGraph, rebuilding only the listed sites' precomputed structure.
// This is the structural half of the churn path: because the layered
// decomposition keeps every site's subgraph independent, a mutation
// confined to a few sites leaves every other site's extracted subgraph,
// local index and lazily built PageRank chain exactly valid — Rebuild
// shares those by pointer with the old core and re-extracts (in
// parallel) only the dirty ones. The small site layer is always
// re-derived: any link change can shift the SiteLink aggregation. The
// derivation is one linear pass over the document edges
// (graph.DeriveSiteGraph), and it stays a full pass rather than a
// refresh of the changed sites' rows only: a cross-site link added from
// a site missing from changed still reaches the site layer, where a
// per-row refresh would serve a stale one.
//
// changed must list every site whose pages or links changed (including
// links *from* its documents to other sites); sites appended beyond the
// old roster are implicitly changed. A site not listed must have kept
// its exact document roster — otherwise ErrStaleResult — but Rebuild
// cannot verify edge sets cheaply, so an unlisted edge change silently
// yields a Ranker with a stale subgraph for that site: the caller owns
// the changed list.
//
// The old Ranker keeps working over the shared structure for the graph
// content it was built against, but its graph has mutated, so its
// queries now fail with ErrGraphMutated — the new Ranker is the serving
// path. The returned Ranker has fresh private scratch; call Prepare (or
// serve a warm-up query) before fanning Share()d copies out.
func (r *Ranker) Rebuild(changed []graph.SiteID) (*Ranker, error) {
	return r.RebuildOn(r.core.dg, changed)
}

// RebuildOn is Rebuild against an explicit target graph — the
// snapshot-serving form: dg is typically a DocGraph.CloneCOW() of this
// Ranker's graph with a delta applied, so the old Ranker's graph never
// mutates and it keeps serving straggler queries (no ErrGraphMutated)
// while the new Ranker is built off to the side. Clean sites share their
// precomputed structure by pointer exactly as in Rebuild — a rankerSite
// holds no reference back to the graph it was extracted from, which is
// what makes the sharing sound across graph copies. The changed-list
// contract is Rebuild's: every site whose pages or links differ between
// the old core's build and dg must be listed (appended sites are
// implicit), and an unlisted roster change fails with ErrStaleResult.
// The site layer is re-derived in full from dg, in one linear pass, as
// in Rebuild.
func (r *Ranker) RebuildOn(dg *graph.DocGraph, changed []graph.SiteID) (*Ranker, error) {
	old := r.core
	if err := dg.Validate(); err != nil {
		return nil, fmt.Errorf("lmm: rebuild: %w", err)
	}
	if dg.NumDocs() == 0 {
		return nil, fmt.Errorf("lmm: rebuild: empty graph")
	}
	dg.G.Dedupe()
	ns := dg.NumSites()
	if ns < len(old.sites) {
		return nil, fmt.Errorf("%w: graph has %d sites, ranker %d (sites removed?)",
			ErrStaleResult, ns, len(old.sites))
	}
	changedSet := make(map[graph.SiteID]bool, len(changed))
	for _, s := range changed {
		if int(s) < 0 || int(s) >= ns {
			return nil, fmt.Errorf("lmm: rebuild: changed site %d out of range", s)
		}
		changedSet[s] = true
	}
	// Sites appended beyond the old roster are implicitly changed.
	for s := len(old.sites); s < ns; s++ {
		changedSet[graph.SiteID(s)] = true
	}
	// Unchanged sites must have kept their exact rosters, or their shared
	// subgraphs would index the wrong documents.
	for s := 0; s < len(old.sites); s++ {
		if changedSet[graph.SiteID(s)] {
			continue
		}
		if !sameRoster(old.sites[s].idx.ToGlobal, dg.Sites[s].Docs) {
			return nil, fmt.Errorf("%w: site %d roster changed — list it in changed",
				ErrStaleResult, s)
		}
	}

	core := &rankerCore{
		dg:      dg,
		opts:    old.opts,
		sg:      graph.DeriveSiteGraph(dg, old.opts.SiteGraph),
		sites:   make([]*rankerSite, ns),
		version: dg.G.Version(),
	}
	// Re-extract only the dirty sites; clean ones share the old pointers
	// (immutable after construction, so sharing across cores is safe).
	ForEachParallel(ns, 0, func(s int) {
		if s < len(old.sites) && !changedSet[graph.SiteID(s)] {
			core.sites[s] = old.sites[s]
			return
		}
		core.sites[s] = extractSite(dg, graph.SiteID(s))
	})
	return &Ranker{core: core}, nil
}

// sameRoster reports whether a site's document roster is unchanged.
func sameRoster(a, b []graph.DocID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
