package lmmrank

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestDistEngineLocalRankMemo drives the coordinator's local-DocRank
// memo through the Engine API: a warm DistEngine rank takes every local
// DocRank from the memo (0 local iterations, a sliver of the cold run's
// received bytes) and answers bitwise as the cold one; zeroing the
// LocalRanks a query returned leaves later answers unchanged; and after
// a 1-site Update the next rank solves exactly that site on the fleet,
// bitwise as a fresh engine over the evolved graph.
func TestDistEngineLocalRankMemo(t *testing.T) {
	ctx := context.Background()
	cl, err := StartCluster(2)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	eng, err := NewDistEngine(cl, churnTestWeb().Graph, DistConfig{})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}
	q := Query{TopK: 10, WantLocalRanks: true}
	cold, err := eng.Rank(ctx, q)
	if err != nil {
		t.Fatalf("cold Rank: %v", err)
	}
	want := cold.DocRank.Clone()
	for run := 0; run < 2; run++ {
		warm, err := eng.Rank(ctx, q)
		if err != nil {
			t.Fatalf("warm Rank %d: %v", run, err)
		}
		if !bitEqual(warm.DocRank, want) {
			t.Errorf("warm Rank %d differs from cold by %g, want bitwise equality", run, warm.DocRank.L1Diff(want))
		}
		for s, it := range warm.LocalIterations {
			if it != 0 {
				t.Errorf("warm Rank %d: site %d reports %d local iterations, want 0", run, s, it)
			}
		}
		if warm.Dist.BytesReceived*20 >= cold.Dist.BytesReceived {
			t.Errorf("warm Rank %d received %d bytes vs %d cold — local ranks still cross the wire",
				run, warm.Dist.BytesReceived, cold.Dist.BytesReceived)
		}
		// The caller owns what it got: scribbling over it must not
		// reach the memo the next rank reads.
		for _, v := range append(warm.LocalRanks, cold.LocalRanks...) {
			v.Fill(0)
		}
	}

	const site = SiteID(6)
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
	got, err := eng.Rank(ctx, q)
	if err != nil {
		t.Fatalf("Rank after Update: %v", err)
	}
	for s, it := range got.LocalIterations {
		if s == int(site) && it == 0 {
			t.Errorf("changed site %d was not re-solved", s)
		}
		if s != int(site) && it != 0 {
			t.Errorf("clean site %d re-solved (%d iterations), want it memo-served", s, it)
		}
	}
	fresh, err := NewDistEngine(cl, eng.DocGraph(), DistConfig{})
	if err != nil {
		t.Fatalf("fresh NewDistEngine: %v", err)
	}
	ref, err := fresh.Rank(ctx, q)
	if err != nil {
		t.Fatalf("fresh Rank: %v", err)
	}
	if !bitEqual(got.DocRank, ref.DocRank) {
		t.Errorf("‖updated − fresh‖₁ = %g, want bitwise equality", got.DocRank.L1Diff(ref.DocRank))
	}
}

// TestDistEngineLocalRankMemoConcurrent hammers the memo from several
// goroutines while Updates migrate it: every answer is a distribution,
// callers scribbling over their LocalRanks never reach it, and once the
// churn stops the engine answers bitwise as a fresh engine over the
// evolved graph. Run under -race via make race.
func TestDistEngineLocalRankMemoConcurrent(t *testing.T) {
	ctx := context.Background()
	cl, err := StartCluster(2)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()
	eng, err := NewDistEngine(cl, churnTestWeb().Graph, DistConfig{})
	if err != nil {
		t.Fatalf("NewDistEngine: %v", err)
	}

	const queriers = 3
	stop := make(chan struct{})
	errCh := make(chan error, queriers)
	var wg sync.WaitGroup
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := eng.Rank(ctx, Query{WantLocalRanks: true})
				if err != nil {
					errCh <- err
					return
				}
				if s := res.DocRank.Sum(); math.Abs(s-1) > 1e-6 {
					errCh <- fmt.Errorf("DocRank sums to %g", s)
					return
				}
				for _, v := range res.LocalRanks {
					v.Fill(0)
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		site := SiteID(2 * i)
		err := eng.Update(ctx, GraphDelta{
			ChangedSites: []SiteID{site},
			Apply: func(dg *DocGraph) error {
				editSite(t, dg, site)
				return nil
			},
		})
		if err != nil {
			t.Fatalf("concurrent Update %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("concurrent Rank: %v", err)
	default:
	}

	got, err := eng.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("Rank after churn: %v", err)
	}
	fresh, err := NewDistEngine(cl, eng.DocGraph(), DistConfig{})
	if err != nil {
		t.Fatalf("fresh NewDistEngine: %v", err)
	}
	ref, err := fresh.Rank(ctx, Query{})
	if err != nil {
		t.Fatalf("fresh Rank: %v", err)
	}
	if !bitEqual(got.DocRank, ref.DocRank) {
		t.Errorf("‖churned − fresh‖₁ = %g, want bitwise equality", got.DocRank.L1Diff(ref.DocRank))
	}
}
