package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/webgen"
)

// ChurnResult measures the P2P churn path: a sequence of site-local link
// changes handled by the incremental refresh Engine.Update runs
// (Ranker.Rebuild of the changed site plus Ranker.RankRefresh: only that
// site's local DocRank re-solves, every other site keeps its vector
// verbatim) and by a seeded full solve (the same Rebuild plus a Rank
// warm-started from the previous solution, re-polishing every site),
// versus full recomputation. The layered structure is what makes the
// incremental paths possible at all — flat PageRank has no analogue of
// "only this site changed".
type ChurnResult struct {
	// Events is the number of site-mutation events simulated.
	Events int
	// IncrementalTotal and FullTotal are cumulative wall times of the
	// incremental refresh and of full recomputation over the whole event
	// sequence; EngineTotal is the seeded full solve over the same
	// events — what an Engine query with custom solver parameters runs
	// after an Update.
	IncrementalTotal, FullTotal, EngineTotal time.Duration
	// Speedup = FullTotal / IncrementalTotal; EngineSpeedup =
	// FullTotal / EngineTotal.
	Speedup, EngineSpeedup float64
	// MaxGap is the largest L1 distance between the incremental and the
	// fully recomputed ranking across all events (correctness bound);
	// EngineMaxGap is the same bound for the seeded full solve.
	MaxGap, EngineMaxGap float64
	// LocalSolvesIncremental and LocalSolvesFull count local PageRank
	// computations performed by each strategy (the work the paper's
	// decomposition localizes).
	LocalSolvesIncremental, LocalSolvesFull int
}

// RunChurn simulates events site mutations on a campus web and compares
// incremental refresh against full recomputation after every event.
func RunChurn(seed int64, events int) (*ChurnResult, error) {
	if events <= 0 {
		events = 25
	}
	cfg := webgen.Config{
		Seed: seed, Sites: 80, MeanSitePages: 25, AuthorityPages: 6,
		IntraLinksPerPage: 2, InterLinkFraction: 0.25,
		DynamicClusterPages: 300, DocClusterPages: 300,
	}
	web := webgen.Generate(cfg)
	dg := web.Graph
	rng := rand.New(rand.NewSource(seed + 1))
	webCfg := lmm.WebConfig{Tol: 1e-10}

	// Both incremental strategies start from one precomputed Ranker and
	// its solution, then each rebuilds its own Ranker per event and
	// carries its own previous solution forward, as a live system would.
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{})
	if err != nil {
		return nil, fmt.Errorf("experiments: churn ranker: %w", err)
	}
	rk.Prepare()
	prev, err := rk.Rank(webCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: churn initial rank: %w", err)
	}
	incRk, incSite, incLocals := rk, prev.SiteRank.Clone(), cloneVectors(prev.LocalRanks)
	seedRk, seedSite, seedLocals := rk, prev.SiteRank.Clone(), cloneVectors(prev.LocalRanks)

	out := &ChurnResult{Events: events}
	for e := 0; e < events; e++ {
		// Mutate one ordinary site: a few new intra-site links.
		site := graph.SiteID(rng.Intn(cfg.Sites))
		docs := dg.Sites[site].Docs
		if len(docs) < 2 {
			continue
		}
		for k := rng.Intn(4) + 2; k > 0; k-- {
			a := docs[rng.Intn(len(docs))]
			b := docs[rng.Intn(len(docs))]
			if a != b {
				dg.G.AddLink(int(a), int(b))
			}
		}
		// Merge the new links outside every timer: whichever strategy ran
		// first would otherwise pay the whole-graph dedupe for the others.
		dg.G.Dedupe()
		changed := []graph.SiteID{site}

		// Incremental refresh: what Engine.Update runs per churn batch.
		start := time.Now()
		incRk, err = incRk.Rebuild(changed)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn event %d rebuild: %w", e, err)
		}
		refresh := webCfg
		refresh.SiteStart, refresh.LocalStarts = incSite, incLocals
		inc, err := incRk.RankRefresh(changed, refresh)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn event %d incremental: %w", e, err)
		}
		out.IncrementalTotal += time.Since(start)
		out.LocalSolvesIncremental++ // exactly one site recomputed
		// Clean sites' vectors are incLocals' own; only the re-solved
		// site and the site layer alias the Ranker's scratch.
		incSite = inc.SiteRank.Clone()
		incLocals[site] = inc.LocalRanks[site].Clone()
		incDoc := inc.DocRank.Clone()

		// Seeded full solve: every site re-solves, warm-started.
		start = time.Now()
		seedRk, err = seedRk.Rebuild(changed)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn event %d rebuild: %w", e, err)
		}
		seeded := webCfg
		seeded.SiteStart, seeded.LocalStarts = seedSite, seedLocals
		served, err := seedRk.Rank(seeded)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn event %d serve: %w", e, err)
		}
		out.EngineTotal += time.Since(start)
		seedSite = served.SiteRank.Clone()
		seedLocals = cloneVectors(served.LocalRanks)
		servedDoc := served.DocRank.Clone()

		start = time.Now()
		full, err := lmm.LayeredDocRank(dg, webCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn event %d full: %w", e, err)
		}
		out.FullTotal += time.Since(start)
		out.LocalSolvesFull += dg.NumSites()

		if gap := incDoc.L1Diff(full.DocRank); gap > out.MaxGap {
			out.MaxGap = gap
		}
		if gap := servedDoc.L1Diff(full.DocRank); gap > out.EngineMaxGap {
			out.EngineMaxGap = gap
		}
	}
	if out.IncrementalTotal > 0 {
		out.Speedup = float64(out.FullTotal) / float64(out.IncrementalTotal)
	}
	if out.EngineTotal > 0 {
		out.EngineSpeedup = float64(out.FullTotal) / float64(out.EngineTotal)
	}
	return out, nil
}

// cloneVectors deep-copies a slice of vectors.
func cloneVectors(vs []matrix.Vector) []matrix.Vector {
	out := make([]matrix.Vector, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

// Format renders the churn table.
func (r *ChurnResult) Format() string {
	var b strings.Builder
	b.WriteString("Churn — incremental refresh vs full recomputation (P2P site updates)\n\n")
	fmt.Fprintf(&b, "events simulated:        %d (one site's links change per event)\n", r.Events)
	fmt.Fprintf(&b, "incremental total:       %v  (%d local solves)\n",
		r.IncrementalTotal.Round(time.Millisecond), r.LocalSolvesIncremental)
	fmt.Fprintf(&b, "full recompute total:    %v  (%d local solves)\n",
		r.FullTotal.Round(time.Millisecond), r.LocalSolvesFull)
	fmt.Fprintf(&b, "speedup:                 %.1fx\n", r.Speedup)
	fmt.Fprintf(&b, "max L1 gap vs full:      %.2e (incremental results chained event to event)\n", r.MaxGap)
	fmt.Fprintf(&b, "seeded full solve total: %v  (Ranker.Rebuild + warm-seeded Rank re-solving every site)\n",
		r.EngineTotal.Round(time.Millisecond))
	fmt.Fprintf(&b, "seeded speedup:          %.1fx   max L1 gap vs full: %.2e\n",
		r.EngineSpeedup, r.EngineMaxGap)
	b.WriteString("\n(the layered decomposition localizes each site's change to one local\n solve plus the small warm-started SiteRank)\n")
	return b.String()
}
