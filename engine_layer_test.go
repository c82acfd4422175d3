package lmmrank

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"lmmrank/internal/lmm"
)

// layerShapes is every default-config query shape a snapshot's document
// layer serves: uniform, site-personalized, document-personalized (alone
// and with site personalization), three-layer and LocalRanks requests,
// each with a top-k table.
func layerShapes(dg *DocGraph) []Query {
	mixed := mixedQueries(dg)
	sitePers, docPers := mixed[1].SitePersonalization, mixed[2].DocPersonalization
	return []Query{
		{TopK: 10},
		{TopK: 10, SitePersonalization: sitePers},
		{TopK: 10, DocPersonalization: docPers},
		{TopK: 10, SitePersonalization: sitePers, DocPersonalization: docPers},
		{TopK: 10, ThreeLayer: true},
		{TopK: 10, ThreeLayer: true, DocPersonalization: docPers},
		{TopK: 10, WantLocalRanks: true},
	}
}

// freshRank answers q with a fresh lmm.Ranker — the full cold solve of
// every layer the reuse path must reproduce bit for bit.
func freshRank(t *testing.T, dg *DocGraph, q Query) (doc, site Vector, locals []Vector) {
	t.Helper()
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	cfg := q.webConfig(context.Background(), 0)
	if q.ThreeLayer {
		wr, err := rk.Rank3(q.DomainOf, cfg)
		if err != nil {
			t.Fatalf("Rank3: %v", err)
		}
		return wr.DocRank.Clone(), wr.SiteWeights, cloneVectors(wr.LocalRanks)
	}
	wr, err := rk.Rank(cfg)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	return wr.DocRank.Clone(), wr.SiteRank.Clone(), cloneVectors(wr.LocalRanks)
}

func bitEqual(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkBitIdentical compares an engine answer with the fresh full solve
// of the same query: DocRank, SiteRank, Top and LocalRanks bit for bit.
func checkBitIdentical(t *testing.T, dg *DocGraph, q Query, res *Result) {
	t.Helper()
	doc, site, locals := freshRank(t, dg, q)
	if !bitEqual(res.DocRank, doc) {
		t.Errorf("%+v: DocRank differs from a fresh solve (L1 %g)", q, res.DocRank.L1Diff(doc))
	}
	if !bitEqual(res.SiteRank, site) {
		t.Errorf("%+v: SiteRank differs from a fresh solve", q)
	}
	want := TopDocs(dg, doc, q.TopK)
	if len(res.Top) != len(want) {
		t.Fatalf("%+v: len(Top) = %d, want %d", q, len(res.Top), len(want))
	}
	for i := range want {
		if res.Top[i] != want[i] {
			t.Errorf("%+v: Top[%d] = %+v, want %+v", q, i, res.Top[i], want[i])
		}
	}
	if q.WantLocalRanks {
		for s := range locals {
			if !bitEqual(res.LocalRanks[s], locals[s]) {
				t.Errorf("%+v: LocalRanks[%d] differs from a fresh solve", q, s)
			}
		}
	}
}

// TestDocLayerReuseBitIdentical: before any Update, a plain engine fills
// its document layer on the first default-config query and every shape
// then composes over it — bit-identical to a fresh full solve, while
// only the sites a query personalizes report local iterations.
func TestDocLayerReuseBitIdentical(t *testing.T) {
	web := engineWeb()
	dg := web.Graph
	eng, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	if eng.snap.Load().layer.Load() != nil {
		t.Fatal("a plain engine solved its document layer at construction")
	}
	ctx := context.Background()
	for _, q := range layerShapes(dg) {
		res, err := eng.Rank(ctx, q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		checkBitIdentical(t, dg, q, res)
		for s, it := range res.LocalIterations {
			if _, personalized := q.DocPersonalization[SiteID(s)]; it != 0 && !personalized {
				t.Errorf("%+v: reused site %d reports %d local iterations", q, s, it)
			}
		}
	}
	if eng.snap.Load().layer.Load() == nil {
		t.Fatal("default-config queries left the document layer unfilled")
	}
}

// TestDocLayerCustomParamsSolveFully: queries with a custom damping,
// tolerance or iteration budget cannot reuse the default-config layer;
// they solve every site (and leave the layer unfilled).
func TestDocLayerCustomParamsSolveFully(t *testing.T) {
	web := engineWeb()
	dg := web.Graph
	eng, err := NewLocalEngine(dg, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	ctx := context.Background()
	for _, q := range []Query{
		{TopK: 5, Damping: 0.9},
		{TopK: 5, Tol: 1e-6},
		{TopK: 5, MaxIter: 500},
		{TopK: 5, Tol: 1e-8, ThreeLayer: true},
	} {
		res, err := eng.Rank(ctx, q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		checkBitIdentical(t, dg, q, res)
		for s, it := range res.LocalIterations {
			if it == 0 && dg.SiteSize(SiteID(s)) > 1 {
				t.Errorf("%+v: site %d reports no local iterations — not a full solve", q, s)
			}
		}
	}
	if eng.snap.Load().layer.Load() != nil {
		t.Error("custom-parameter queries filled the default-config document layer")
	}
}

// TestDocLayerChainedUpdatesMatchColdRebuild extends the churn
// acceptance pin to default-config queries: after a chain of Apply-path
// Updates — each re-solving only its changed site over the previous
// layer — every shape agrees with a cold engine over the served graph to
// < 1e-9, on a plain engine (filled by a query, or refreshed cold by an
// Update before any query) and on an index engine.
func TestDocLayerChainedUpdatesMatchColdRebuild(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		opts      EngineOptions
		queryInit bool
	}{
		{"plain", EngineOptions{}, true},
		{"plainNoQuery", EngineOptions{}, false},
		{"index", EngineOptions{TopKIndex: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewLocalEngine(churnTestWeb().Graph, tc.opts)
			if err != nil {
				t.Fatalf("NewLocalEngine: %v", err)
			}
			if tc.queryInit {
				if _, err := eng.Rank(ctx, Query{TopK: 3}); err != nil {
					t.Fatalf("pre-churn Rank: %v", err)
				}
			}
			for _, site := range []SiteID{4, 7, 4, 1, 9} {
				err := eng.Update(ctx, GraphDelta{
					ChangedSites: []SiteID{site},
					Apply: func(dg *DocGraph) error {
						editSite(t, dg, site)
						return nil
					},
				})
				if err != nil {
					t.Fatalf("Update site %d: %v", site, err)
				}
			}
			cold, err := NewLocalEngine(eng.DocGraph(), EngineOptions{})
			if err != nil {
				t.Fatalf("cold NewLocalEngine: %v", err)
			}
			for _, q := range layerShapes(eng.DocGraph()) {
				got, err := eng.Rank(ctx, q)
				if err != nil {
					t.Fatalf("%+v: %v", q, err)
				}
				want, err := cold.Rank(ctx, q)
				if err != nil {
					t.Fatalf("cold %+v: %v", q, err)
				}
				if d := got.DocRank.L1Diff(want.DocRank); d >= 1e-9 {
					t.Errorf("%+v: ‖updated − cold‖₁ = %g, want < 1e-9", q, d)
				}
				if d := got.SiteRank.L1Diff(want.SiteRank); d >= 1e-9 {
					t.Errorf("%+v: SiteRank ‖updated − cold‖₁ = %g, want < 1e-9", q, d)
				}
			}
		})
	}
}

// TestDocLayerRefreshKeepsCleanVectors: an Update's refresh carries
// every clean site's local DocRank into the next snapshot's layer by
// pointer — verbatim, not re-polished — and re-solves the changed site.
func TestDocLayerRefreshKeepsCleanVectors(t *testing.T) {
	eng, err := NewLocalEngine(churnTestWeb().Graph, EngineOptions{})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	ctx := context.Background()
	if _, err := eng.Rank(ctx, Query{}); err != nil {
		t.Fatalf("Rank: %v", err)
	}
	prev := eng.snap.Load().layer.Load()
	const site = SiteID(4)
	err = eng.Update(ctx, GraphDelta{
		ChangedSites: []SiteID{site},
		Apply: func(dg *DocGraph) error {
			editSite(t, dg, site)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	next := eng.snap.Load().layer.Load()
	if next == nil || !next.seed {
		t.Fatal("Update published no seeding document layer")
	}
	for s := range next.locals {
		shared := len(next.locals[s]) > 0 && &next.locals[s][0] == &prev.locals[s][0]
		if clean := SiteID(s) != site; clean != shared && len(next.locals[s]) > 1 {
			t.Errorf("site %d: shared=%v, want %v", s, shared, clean)
		}
	}
}

// errAfterCtx reports no error for its first n Err calls and
// context.Canceled afterwards: a deterministic cancellation that lands
// mid-solve, between power iterations.
type errAfterCtx struct {
	context.Context
	n atomic.Int64
}

func (c *errAfterCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestDocLayerFillCancelled: a query cancelled while it fills the
// snapshot's document layer returns exactly ctx.Err() and publishes
// nothing, so the next query fills the layer afresh and answers
// bit-identically to a fresh solve.
func TestDocLayerFillCancelled(t *testing.T) {
	web := engineWeb()
	dg := web.Graph
	eng, err := NewLocalEngine(dg, EngineOptions{Parallelism: 1})
	if err != nil {
		t.Fatalf("NewLocalEngine: %v", err)
	}
	for _, n := range []int64{1, 5, 40} {
		ctx := &errAfterCtx{Context: context.Background()}
		ctx.n.Store(n)
		_, err := eng.Rank(ctx, Query{TopK: 5})
		if err != context.Canceled {
			t.Fatalf("cancel after %d checks: err = %v, want exactly context.Canceled", n, err)
		}
		if eng.snap.Load().layer.Load() != nil {
			t.Fatalf("cancel after %d checks: a failed fill published a layer", n)
		}
	}
	q := Query{TopK: 5, SitePersonalization: mixedQueries(dg)[1].SitePersonalization}
	res, err := eng.Rank(context.Background(), q)
	if err != nil {
		t.Fatalf("Rank after cancelled fills: %v", err)
	}
	checkBitIdentical(t, dg, q, res)
}

// TestDocLayerConcurrentFill: concurrent first queries of every shape
// race on one snapshot's lazy fill; each answer is bit-identical to a
// fresh solve. The race legs run this at GOMAXPROCS 1 and 4.
func TestDocLayerConcurrentFill(t *testing.T) {
	web := engineWeb()
	dg := web.Graph
	shapes := layerShapes(dg)
	for round := 0; round < 3; round++ {
		eng, err := NewLocalEngine(dg, EngineOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("NewLocalEngine: %v", err)
		}
		results := make([]*Result, 2*len(shapes))
		errs := make([]error, len(results))
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				results[i], errs[i] = eng.Rank(context.Background(), shapes[i%len(shapes)])
			}(i)
		}
		close(start)
		wg.Wait()
		for i, res := range results {
			if errs[i] != nil {
				t.Fatalf("round %d query %d: %v", round, i, errs[i])
			}
			checkBitIdentical(t, dg, shapes[i%len(shapes)], res)
		}
	}
}

// TestTopDocsAllocs pins the selection's allocation budget: TopDocs
// allocates its two k-sized output tables and nothing of size N.
func TestTopDocsAllocs(t *testing.T) {
	web := engineWeb()
	res, err := LayeredDocRank(web.Graph, WebConfig{})
	if err != nil {
		t.Fatalf("LayeredDocRank: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() { TopDocs(web.Graph, res.DocRank, 10) })
	if allocs != 2 {
		t.Errorf("TopDocs allocated %v times per call, want 2", allocs)
	}
}
