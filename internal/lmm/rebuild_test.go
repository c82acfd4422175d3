package lmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
)

// mutateSite adds a couple of intra-site links to site s and returns s.
func mutateSite(t *testing.T, dg *graph.DocGraph, s graph.SiteID) {
	t.Helper()
	docs := dg.Sites[s].Docs
	if len(docs) < 3 {
		t.Skipf("site %d too small in this seed", s)
	}
	dg.G.AddLink(int(docs[0]), int(docs[2]))
	dg.G.AddLink(int(docs[2]), int(docs[1]))
}

// TestRankerStaleAfterMutation pins the mutate-after-precompute footgun:
// a graph mutation not routed through Rebuild turns every query path of
// the old Ranker into a documented ErrGraphMutated instead of a silently
// stale ranking.
func TestRankerStaleAfterMutation(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(91)), 6, 60)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	if _, err := rk.Rank(WebConfig{}); err != nil {
		t.Fatalf("pre-mutation Rank: %v", err)
	}
	if rk.Stale() {
		t.Fatal("fresh Ranker reports stale")
	}
	mutateSite(t, dg, 1)
	if !rk.Stale() {
		t.Fatal("mutated graph not detected as stale")
	}
	if _, err := rk.Rank(WebConfig{}); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("Rank after mutation: err = %v, want ErrGraphMutated", err)
	}
	if _, _, err := rk.RankSites(WebConfig{}); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("RankSites after mutation: err = %v, want ErrGraphMutated", err)
	}
	if _, err := rk.Rank3(nil, WebConfig{}); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("Rank3 after mutation: err = %v, want ErrGraphMutated", err)
	}
	// A Share()d sibling sees the same core, hence the same verdict.
	if _, err := rk.Share().Rank(WebConfig{}); !errors.Is(err, ErrGraphMutated) {
		t.Errorf("shared Ranker after mutation: err = %v, want ErrGraphMutated", err)
	}
}

// TestRebuildMatchesColdRanker is the correctness pin of the structural
// churn path: after a site-local mutation, a Rebuild([changed]) Ranker
// must agree with a from-scratch NewRanker to well under 1e-9.
func TestRebuildMatchesColdRanker(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(92)), 8, 80)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	if _, err := rk.Rank(WebConfig{Tol: 1e-12}); err != nil {
		t.Fatalf("initial Rank: %v", err)
	}
	mutateSite(t, dg, 3)

	warm, err := rk.Rebuild([]graph.SiteID{3})
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	cold, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("cold NewRanker: %v", err)
	}
	wres, err := warm.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("warm Rank: %v", err)
	}
	cres, err := cold.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("cold Rank: %v", err)
	}
	if d := wres.DocRank.L1Diff(cres.DocRank); d >= 1e-12 {
		t.Errorf("‖rebuild − cold‖₁ = %g, want < 1e-12 (identical structure, identical arithmetic)", d)
	}
	if d := wres.SiteRank.L1Diff(cres.SiteRank); d >= 1e-12 {
		t.Errorf("‖rebuild − cold‖₁ on SiteRank = %g", d)
	}
}

// TestRebuildReusesCleanSiteStructure asserts the reuse that makes
// Rebuild cheap: unchanged sites share their extracted subgraph (by
// pointer) with the old core; the dirty site gets a fresh one.
func TestRebuildReusesCleanSiteStructure(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(93)), 8, 80)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	rk.Prepare()
	mutateSite(t, dg, 2)
	warm, err := rk.Rebuild([]graph.SiteID{2})
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	for s := 0; s < rk.NumSites(); s++ {
		oldSub, _ := rk.LocalSubgraph(graph.SiteID(s))
		newSub, _ := warm.LocalSubgraph(graph.SiteID(s))
		if s == 2 {
			if oldSub == newSub {
				t.Errorf("changed site %d shares its old subgraph", s)
			}
			continue
		}
		if oldSub != newSub {
			t.Errorf("clean site %d was re-extracted", s)
		}
	}
	if warm.Stale() {
		t.Error("rebuilt Ranker reports stale")
	}
	if rk.Stale() != true {
		t.Error("old Ranker should stay stale after Rebuild")
	}
}

// TestRebuildStaleDetection covers the refusal paths: a grown roster not
// listed as changed, removed sites, and out-of-range changed IDs.
func TestRebuildStaleDetection(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(94)), 6, 60)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	if _, err := rk.Rebuild([]graph.SiteID{99}); err == nil {
		t.Error("out-of-range changed site accepted")
	}

	// Rebuild the DocGraph with one extra document in site 1; because the
	// Ranker captures the graph by reference, swap the new content into
	// the same struct the Ranker holds. Not listing site 1 must fail.
	grown := rebuildWithExtraDoc(dg, 1)
	*dg = *grown
	if _, err := rk.Rebuild(nil); !errors.Is(err, ErrStaleResult) {
		t.Fatalf("grown unlisted roster: err = %v, want ErrStaleResult", err)
	}
	warm, err := rk.Rebuild([]graph.SiteID{1})
	if err != nil {
		t.Fatalf("Rebuild with grown site listed: %v", err)
	}
	wres, err := warm.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("warm Rank: %v", err)
	}
	full, err := LayeredDocRank(dg, WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if d := wres.DocRank.L1Diff(full.DocRank); d >= 1e-12 {
		t.Errorf("‖rebuild − full‖₁ after growth = %g", d)
	}
}

// TestRebuildHandlesNewSite: appended sites are implicitly changed. The
// join also adds a first → n1 link leaving site 0, which is not listed:
// it reaches the site layer only because Rebuild always re-derives that
// layer in full.
func TestRebuildHandlesNewSite(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(95)), 6, 60)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	joined := rebuildWithNewSite(dg)
	*dg = *joined
	warm, err := rk.Rebuild(nil)
	if err != nil {
		t.Fatalf("Rebuild after join: %v", err)
	}
	if warm.NumSites() != dg.NumSites() {
		t.Fatalf("rebuilt ranker has %d sites, graph %d", warm.NumSites(), dg.NumSites())
	}
	wres, err := warm.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("warm Rank: %v", err)
	}
	full, err := LayeredDocRank(dg, WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if d := wres.DocRank.L1Diff(full.DocRank); d >= 1e-12 {
		t.Errorf("‖rebuild − full‖₁ after join = %g", d)
	}
}

// TestRebuildOnCOWCloneKeepsOldRankerServing pins the snapshot-serving
// contract: applying the mutation to a CloneCOW of the graph and
// rebuilding on the clone leaves the old Ranker's graph untouched, so
// the old Ranker keeps answering (no ErrGraphMutated) with its original
// ranking while the new Ranker agrees with a cold build on the clone.
func TestRebuildOnCOWCloneKeepsOldRankerServing(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(97)), 8, 80)
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	pre, err := rk.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("pre-clone Rank: %v", err)
	}
	preDoc := pre.DocRank.Clone()

	work := dg.CloneCOW()
	mutateSite(t, work, 3)
	warm, err := rk.RebuildOn(work, []graph.SiteID{3})
	if err != nil {
		t.Fatalf("RebuildOn: %v", err)
	}

	// The old Ranker's graph never mutated: it keeps serving, bit-stable.
	if rk.Stale() {
		t.Fatal("old Ranker stale after a COW-clone rebuild")
	}
	post, err := rk.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("old Ranker Rank after RebuildOn: %v", err)
	}
	if d := post.DocRank.L1Diff(preDoc); d != 0 {
		t.Errorf("old Ranker's ranking moved by %g under a clone rebuild", d)
	}

	// The new Ranker agrees with a cold build on the mutated clone.
	cold, err := NewRanker(work, RankerOptions{})
	if err != nil {
		t.Fatalf("cold NewRanker on clone: %v", err)
	}
	wres, err := warm.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("warm Rank: %v", err)
	}
	cres, err := cold.Rank(WebConfig{Tol: 1e-12})
	if err != nil {
		t.Fatalf("cold Rank: %v", err)
	}
	if d := wres.DocRank.L1Diff(cres.DocRank); d >= 1e-12 {
		t.Errorf("‖rebuildOn − cold‖₁ = %g, want < 1e-12", d)
	}
	// And it differs from the pre-mutation ranking (the edit was real).
	if d := wres.DocRank.L1Diff(preDoc); d == 0 {
		t.Error("mutated clone ranks identically to the original graph")
	}
}

// TestWarmStartSeedsCutIterations pins the convergence half of the churn
// path: seeding the site layer and the locals with the previous solution
// must reduce power-method work on a lightly mutated graph, and
// wrong-shape seeds must be ignored, not fatal.
func TestWarmStartSeedsCutIterations(t *testing.T) {
	dg := randomWeb(rand.New(rand.NewSource(96)), 8, 80)
	cfg := WebConfig{Tol: 1e-11}
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	prev, err := rk.Rank(cfg)
	if err != nil {
		t.Fatalf("initial Rank: %v", err)
	}
	// Snapshot the previous solution (Rank results alias scratch).
	seedSite := prev.SiteRank.Clone()
	seedLocals := make([]matrix.Vector, len(prev.LocalRanks))
	coldLocalIters := 0
	for s, lr := range prev.LocalRanks {
		seedLocals[s] = lr.Clone()
		coldLocalIters += prev.LocalIterations[s]
	}
	coldSiteIters := prev.SiteIterations

	mutateSite(t, dg, 4)
	warm, err := rk.Rebuild([]graph.SiteID{4})
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	seeded := cfg
	seeded.SiteStart = seedSite
	seeded.LocalStarts = seedLocals
	wres, err := warm.Rank(seeded)
	if err != nil {
		t.Fatalf("seeded Rank: %v", err)
	}
	warmLocalIters := 0
	for _, it := range wres.LocalIterations {
		warmLocalIters += it
	}
	if wres.SiteIterations >= coldSiteIters {
		t.Errorf("seeded SiteRank took %d iterations, cold %d", wres.SiteIterations, coldSiteIters)
	}
	if warmLocalIters >= coldLocalIters {
		t.Errorf("seeded locals took %d iterations total, cold %d", warmLocalIters, coldLocalIters)
	}

	// The seeded solution still agrees with a cold rebuild.
	cold, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("cold NewRanker: %v", err)
	}
	cres, err := cold.Rank(cfg)
	if err != nil {
		t.Fatalf("cold Rank: %v", err)
	}
	if d := wres.DocRank.L1Diff(cres.DocRank); d >= 1e-9 {
		t.Errorf("‖seeded − cold‖₁ = %g, want < 1e-9", d)
	}

	// Wrong-shape seeds are hints, not inputs: ignored without error.
	bad := cfg
	bad.SiteStart = matrix.Vector{1}
	bad.LocalStarts = []matrix.Vector{{0.5, 0.5}}
	bres, err := warm.Share().Rank(bad)
	if err != nil {
		t.Fatalf("bad-shape seeds errored: %v", err)
	}
	if d := bres.DocRank.L1Diff(cres.DocRank); d >= 1e-9 {
		t.Errorf("bad-shape seeds shifted the ranking by %g", d)
	}
}

// The tests below pin the lmm half of Engine.Update: RebuildOn over a
// changed graph, then RankRefresh over the previous solution.

// churnWeb builds a deterministic 8-site web for update tests.
func churnWeb(t *testing.T) *graph.DocGraph {
	t.Helper()
	return randomWeb(rand.New(rand.NewSource(77)), 8, 80)
}

// churnStart returns the update tests' starting point: a Ranker over
// dg and its retained solution at cfg.
func churnStart(t *testing.T, dg *graph.DocGraph, cfg WebConfig) (*Ranker, *WebResult) {
	t.Helper()
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	prev, err := LayeredDocRank(dg, cfg)
	if err != nil {
		t.Fatalf("initial: %v", err)
	}
	return rk, prev
}

// refreshOn rebuilds rk over dg for the changed sites and refreshes
// prev's solution: changed sites re-solve warm, clean sites keep prev's
// vectors.
func refreshOn(t *testing.T, rk *Ranker, dg *graph.DocGraph, changed []graph.SiteID, prev *WebResult, cfg WebConfig) *WebResult {
	t.Helper()
	next, err := rk.RebuildOn(dg, changed)
	if err != nil {
		t.Fatalf("RebuildOn: %v", err)
	}
	cfg.SiteStart, cfg.LocalStarts = prev.SiteRank, prev.LocalRanks
	res, err := next.RankRefresh(changed, cfg)
	if err != nil {
		t.Fatalf("RankRefresh: %v", err)
	}
	return res
}

func TestUpdateMatchesFullRecomputeAfterEdgeChange(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	rk, prev := churnStart(t, dg, cfg)

	// Mutate site 2: add intra-site links between its first documents.
	work := dg.CloneCOW()
	docs := work.Sites[2].Docs
	if len(docs) < 2 {
		t.Skip("site 2 too small in this seed")
	}
	work.G.AddLink(int(docs[0]), int(docs[1]))
	work.G.AddLink(int(docs[1]), int(docs[0]))

	inc := refreshOn(t, rk, work, []graph.SiteID{2}, prev, cfg)
	full, err := LayeredDocRank(work, cfg)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if d := inc.DocRank.L1Diff(full.DocRank); d > 1e-8 {
		t.Errorf("incremental vs full: L1 = %g", d)
	}
	if d := inc.SiteRank.L1Diff(full.SiteRank); d > 1e-8 {
		t.Errorf("incremental vs full SiteRank: L1 = %g", d)
	}
}

func TestUpdateReusesUnchangedLocalRanks(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	rk, prev := churnStart(t, dg, cfg)
	work := dg.CloneCOW()
	docs := work.Sites[2].Docs
	if len(docs) < 2 {
		t.Skip("site 2 too small")
	}
	work.G.AddLink(int(docs[0]), int(docs[1]))
	inc := refreshOn(t, rk, work, []graph.SiteID{2}, prev, cfg)
	for s := range inc.LocalRanks {
		if s == 2 {
			continue
		}
		// Reused slices, not merely equal values.
		if &inc.LocalRanks[s][0] != &prev.LocalRanks[s][0] {
			t.Errorf("site %d local rank was recomputed", s)
		}
		if inc.LocalIterations[s] != 0 {
			t.Errorf("site %d recorded %d iterations for a reused rank", s, inc.LocalIterations[s])
		}
	}
	if inc.LocalIterations[2] == 0 {
		t.Error("changed site recorded no iterations")
	}
}

func TestUpdateWarmStartConverges(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	rk, prev := churnStart(t, dg, cfg)
	// No change at all: warm-started SiteRank should converge in far
	// fewer iterations than the cold run.
	inc := refreshOn(t, rk, dg.CloneCOW(), nil, prev, cfg)
	if inc.SiteIterations >= prev.SiteIterations {
		t.Errorf("warm SiteRank took %d iterations, cold %d", inc.SiteIterations, prev.SiteIterations)
	}
	if d := inc.DocRank.L1Diff(prev.DocRank); d > 1e-8 {
		t.Errorf("no-op update changed the ranking: %g", d)
	}
}

func TestUpdateHandlesNewSite(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-11}
	rk, prev := churnStart(t, dg, cfg)

	// A new site joins (P2P churn) and links to site 0.
	joined := rebuildWithNewSite(dg)
	inc := refreshOn(t, rk, joined, nil, prev, cfg) // new site auto-changed
	full, err := LayeredDocRank(joined, cfg)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if d := inc.DocRank.L1Diff(full.DocRank); d > 1e-8 {
		t.Errorf("incremental vs full after join: L1 = %g", d)
	}
}

// rebuildWithNewSite reconstructs dg with one extra site appended. The
// builder assigns new DocIDs after the existing ones, so earlier sites'
// rosters keep their shape.
func rebuildWithNewSite(dg *graph.DocGraph) *graph.DocGraph {
	b := copyIntoBuilder(dg)
	n1 := b.AddDocInSite("http://newpeer.example/", "newpeer.example")
	n2 := b.AddDocInSite("http://newpeer.example/about", "newpeer.example")
	b.LinkIDs(n1, n2)
	b.LinkIDs(n2, n1)
	first := dg.Sites[0].Docs[0]
	b.LinkIDs(n1, first)
	b.LinkIDs(first, n1)
	return b.Build()
}

func TestUpdateStaleDetection(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{Tol: 1e-10}
	rk, prev := churnStart(t, dg, cfg)
	// Grow site 1's roster but do not list it as changed.
	grown := rebuildWithExtraDoc(dg, 1)
	if _, err := rk.RebuildOn(grown, nil); !errors.Is(err, ErrStaleResult) {
		t.Fatalf("err = %v, want ErrStaleResult", err)
	}
	// Listing it as changed succeeds and matches a full recompute.
	inc := refreshOn(t, rk, grown, []graph.SiteID{1}, prev, cfg)
	full, err := LayeredDocRank(grown, cfg)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if d := inc.DocRank.L1Diff(full.DocRank); d > 1e-8 {
		t.Errorf("incremental vs full: %g", d)
	}
}

// rebuildWithExtraDoc reconstructs dg with one extra document in site s.
func rebuildWithExtraDoc(dg *graph.DocGraph, s graph.SiteID) *graph.DocGraph {
	b := copyIntoBuilder(dg)
	extra := b.AddDocInSite(
		fmt.Sprintf("http://%s/extra-page", dg.Sites[s].Name), dg.Sites[s].Name)
	home := dg.Sites[s].Docs[0]
	b.LinkIDs(extra, home)
	b.LinkIDs(home, extra)
	return b.Build()
}

// copyIntoBuilder registers every document of dg, in DocID order, in a
// fresh Builder and copies every edge with its multiplicity: one LinkIDs
// per unit of its (integer) weight, so a multi-edge keeps its weight and
// the copy differs from dg only by what the caller adds next.
func copyIntoBuilder(dg *graph.DocGraph) *graph.Builder {
	b := graph.NewBuilder()
	for _, doc := range dg.Docs {
		b.AddDocInSite(doc.URL, dg.Sites[doc.Site].Name)
	}
	dg.G.EachEdgeAll(func(from int, e graph.Edge) {
		if e.Weight != math.Trunc(e.Weight) {
			panic(fmt.Sprintf("copyIntoBuilder: edge %d→%d has non-integer weight %g", from, e.To, e.Weight))
		}
		for k := 0; k < int(e.Weight); k++ {
			b.LinkIDs(graph.DocID(from), graph.DocID(e.To))
		}
	})
	return b
}

func TestUpdateValidation(t *testing.T) {
	dg := churnWeb(t)
	cfg := WebConfig{}
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	for _, s := range []graph.SiteID{99, -1} {
		if _, err := rk.RebuildOn(dg.CloneCOW(), []graph.SiteID{s}); err == nil {
			t.Errorf("out-of-range changed site %d accepted", s)
		}
	}
	// Without a previous solution the refresh is a cold solve of every
	// site: bit-identical to Rank.
	want, err := rk.Rank(cfg)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	wantDoc := want.DocRank.Clone()
	got, err := rk.Share().RankRefresh(nil, cfg)
	if err != nil {
		t.Fatalf("RankRefresh: %v", err)
	}
	for d := range wantDoc {
		if got.DocRank[d] != wantDoc[d] {
			t.Fatalf("seedless refresh differs from Rank at doc %d: %g vs %g", d, got.DocRank[d], wantDoc[d])
		}
	}
}
