package lmm

import (
	"math/rand"
	"testing"

	"lmmrank/internal/graph"
	"lmmrank/internal/matrix"
)

func benchChurnWeb(b *testing.B) *graph.DocGraph {
	b.Helper()
	return randomWeb(rand.New(rand.NewSource(99)), 40, 2000)
}

func BenchmarkLayeredDocRank(b *testing.B) {
	dg := benchChurnWeb(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LayeredDocRank(dg, WebConfig{Tol: 1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGlobalPageRank(b *testing.B) {
	dg := benchChurnWeb(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GlobalPageRank(dg, WebConfig{Tol: 1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalUpdate compares churn handling: one site changes,
// and the incremental refresh Engine.Update runs (Rebuild of that site
// plus RankRefresh over the previous solution) races a full
// recomputation.
func BenchmarkIncrementalUpdate(b *testing.B) {
	dg := benchChurnWeb(b)
	cfg := WebConfig{Tol: 1e-9}
	rk, err := NewRanker(dg, RankerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rk.Prepare()
	prev, err := rk.Rank(cfg)
	if err != nil {
		b.Fatal(err)
	}
	seeded := cfg
	seeded.SiteStart = prev.SiteRank.Clone()
	seeded.LocalStarts = make([]matrix.Vector, len(prev.LocalRanks))
	for s, lr := range prev.LocalRanks {
		seeded.LocalStarts[s] = lr.Clone()
	}
	docs := dg.Sites[3].Docs
	dg.G.AddLink(int(docs[0]), int(docs[len(docs)-1]))
	dg.G.Dedupe()
	changed := []graph.SiteID{3}

	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			next, err := rk.Rebuild(changed)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := next.RankRefresh(changed, seeded); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LayeredDocRank(dg, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGlobalMatrixAssembly(b *testing.B) {
	m := PaperExample()
	local, err := LocalRanks(m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GlobalMatrix(m, local)
	}
}

func BenchmarkHierarchyRank(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	h := randomHierarchy(rng, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LayeredHierarchyRank(h, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
