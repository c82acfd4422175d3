package cluster

import (
	"testing"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
)

// TestLocalRankMemoWarmRun pins the coordinator's local-DocRank memo: a
// warm default-config RankPrepared run takes every site's local DocRank
// from the memo — 0 local iterations everywhere, and under a twentieth
// of a cold run's received bytes, which are mostly local-rank vectors —
// and its answer is bitwise the one-shot Rank's.
func TestLocalRankMemoWarmRun(t *testing.T) {
	web := testWeb()
	rk, err := lmm.NewRanker(web.Graph, lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	cl, err := StartLocal(2)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	oneShot, err := cl.Coord.Rank(web.Graph, coordinator.Config{})
	if err != nil {
		t.Fatalf("one-shot Rank: %v", err)
	}
	cold, err := cl.Coord.RankPrepared(rk, coordinator.Config{})
	if err != nil {
		t.Fatalf("cold RankPrepared: %v", err)
	}
	warm, err := cl.Coord.RankPrepared(rk, coordinator.Config{})
	if err != nil {
		t.Fatalf("warm RankPrepared: %v", err)
	}
	if sumInts(cold.LocalIterations) == 0 {
		t.Fatal("cold run reports no local iterations — the fleet solved nothing")
	}
	for s, it := range warm.LocalIterations {
		if it != 0 {
			t.Errorf("warm run: site %d reports %d local iterations, want 0 (memo-served)", s, it)
		}
	}
	if warm.DocRank.L1Diff(oneShot.DocRank) != 0 || cold.DocRank.L1Diff(oneShot.DocRank) != 0 {
		t.Errorf("memoized runs differ from one-shot Rank: cold by %g, warm by %g, want bitwise equality",
			cold.DocRank.L1Diff(oneShot.DocRank), warm.DocRank.L1Diff(oneShot.DocRank))
	}
	for s := range oneShot.LocalRanks {
		if warm.LocalRanks[s].L1Diff(oneShot.LocalRanks[s]) != 0 {
			t.Errorf("warm run: site %d local rank differs from the fleet's", s)
		}
	}
	if warm.Stats.BytesReceived*20 >= cold.Stats.BytesReceived {
		t.Errorf("warm run received %d bytes vs %d cold — local ranks still cross the wire",
			warm.Stats.BytesReceived, cold.Stats.BytesReceived)
	}
}

// TestLocalRankMemoAfterRebuild is the churn half: after Rebuild +
// RefreshPrepared of one site, the next default-config run asks the
// fleet to solve exactly that site, and its answer is bitwise a one-shot
// Rank of the edited graph.
func TestLocalRankMemoAfterRebuild(t *testing.T) {
	const site = graph.SiteID(3)
	edit := func(dg *graph.DocGraph) {
		docs := dg.Sites[site].Docs
		dg.G.AddLink(int(docs[0]), int(docs[2]))
		dg.G.AddLink(int(docs[2]), int(docs[0]))
	}
	web := testWeb()
	rk, err := lmm.NewRanker(web.Graph, lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	cl, err := StartLocal(3)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	if _, err := cl.Coord.RankPrepared(rk, coordinator.Config{}); err != nil {
		t.Fatalf("cold RankPrepared: %v", err)
	}
	edit(web.Graph)
	next, err := rk.Rebuild([]graph.SiteID{site})
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	cl.Coord.RefreshPrepared(rk, next, []graph.SiteID{site})
	res, err := cl.Coord.RankPrepared(next, coordinator.Config{})
	if err != nil {
		t.Fatalf("RankPrepared after Rebuild: %v", err)
	}
	for s, it := range res.LocalIterations {
		if s == int(site) && it == 0 {
			t.Errorf("changed site %d was not re-solved", s)
		}
		if s != int(site) && it != 0 {
			t.Errorf("clean site %d re-solved (%d iterations), want it memo-served", s, it)
		}
	}

	edited := testWeb().Graph
	edit(edited)
	ref, err := cl.Coord.Rank(edited, coordinator.Config{})
	if err != nil {
		t.Fatalf("one-shot Rank of the edited graph: %v", err)
	}
	if res.DocRank.L1Diff(ref.DocRank) != 0 {
		t.Errorf("‖refreshed − one-shot‖₁ = %g, want bitwise equality", res.DocRank.L1Diff(ref.DocRank))
	}
}

// TestLocalRankMemoSkipsCustomParams pins that a run at custom solver
// parameters neither reads the memo (the fleet solves every site, as a
// one-shot run at those parameters does) nor writes it (the default
// run after it still serves the default-config vectors, bitwise).
func TestLocalRankMemoSkipsCustomParams(t *testing.T) {
	web := testWeb()
	rk, err := lmm.NewRanker(web.Graph, lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	cl, err := StartLocal(2)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	custom := coordinator.Config{Damping: 0.7}
	oneShot, err := cl.Coord.Rank(web.Graph, custom)
	if err != nil {
		t.Fatalf("one-shot custom Rank: %v", err)
	}
	first, err := cl.Coord.RankPrepared(rk, coordinator.Config{})
	if err != nil {
		t.Fatalf("first default RankPrepared: %v", err)
	}
	mid, err := cl.Coord.RankPrepared(rk, custom)
	if err != nil {
		t.Fatalf("custom RankPrepared: %v", err)
	}
	if sumInts(mid.LocalIterations) == 0 {
		t.Error("custom run reports no local iterations — it read the default-config memo")
	}
	for s := range oneShot.LocalIterations {
		if mid.LocalIterations[s] != oneShot.LocalIterations[s] {
			t.Errorf("custom run: site %d did %d local iterations, a one-shot run %d",
				s, mid.LocalIterations[s], oneShot.LocalIterations[s])
		}
	}
	if mid.DocRank.L1Diff(oneShot.DocRank) != 0 {
		t.Errorf("custom run differs from one-shot by %g, want bitwise equality", mid.DocRank.L1Diff(oneShot.DocRank))
	}
	second, err := cl.Coord.RankPrepared(rk, coordinator.Config{})
	if err != nil {
		t.Fatalf("second default RankPrepared: %v", err)
	}
	if sumInts(second.LocalIterations) != 0 {
		t.Errorf("second default run did %d local iterations, want 0 (memo-served)", sumInts(second.LocalIterations))
	}
	if second.DocRank.L1Diff(first.DocRank) != 0 {
		t.Errorf("default runs around a custom run differ by %g — the custom run wrote the memo",
			second.DocRank.L1Diff(first.DocRank))
	}
}

// TestLocalRankMemoSurvivesWorkerLoss kills a worker between two warm
// runs: the loss surfaces in the shard negotiation, the dead peer's
// sites are reassigned, and — the local DocRanks coming from the memo —
// the answer is bitwise the pre-loss one.
func TestLocalRankMemoSurvivesWorkerLoss(t *testing.T) {
	web := testWeb()
	rk, err := lmm.NewRanker(web.Graph, lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	cl, err := StartLocal(3)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	if _, err := cl.Coord.RankPrepared(rk, coordinator.Config{}); err != nil {
		t.Fatalf("cold RankPrepared: %v", err)
	}
	before, err := cl.Coord.RankPrepared(rk, coordinator.Config{})
	if err != nil {
		t.Fatalf("warm RankPrepared: %v", err)
	}
	if err := cl.Kill(2); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	after, err := cl.Coord.RankPrepared(rk, coordinator.Config{
		Retry: coordinator.RetryPolicy{MaxWorkerFailures: 1},
	})
	if err != nil {
		t.Fatalf("RankPrepared after kill: %v", err)
	}
	if after.Stats.WorkersLost != 1 || after.Stats.Reassignments < 1 {
		t.Errorf("Stats after kill: lost=%d reassigned=%d, want 1 and >= 1",
			after.Stats.WorkersLost, after.Stats.Reassignments)
	}
	if after.DocRank.L1Diff(before.DocRank) != 0 {
		t.Errorf("‖post-kill − pre-kill‖₁ = %g, want bitwise equality", after.DocRank.L1Diff(before.DocRank))
	}
}

// TestLocalRankMemoResultsCallerOwned pins that memo-served results are
// copies: zeroing every LocalRanks vector a run returned leaves the next
// run's answer bitwise unchanged.
func TestLocalRankMemoResultsCallerOwned(t *testing.T) {
	web := testWeb()
	rk, err := lmm.NewRanker(web.Graph, lmm.RankerOptions{})
	if err != nil {
		t.Fatalf("NewRanker: %v", err)
	}
	cl, err := StartLocal(2)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer cl.Close()

	var want matrix.Vector
	for run := 0; run < 3; run++ {
		res, err := cl.Coord.RankPrepared(rk, coordinator.Config{})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if want == nil {
			want = res.DocRank
		} else if res.DocRank.L1Diff(want) != 0 {
			t.Errorf("run %d moved by %g after the caller zeroed an earlier result's local ranks",
				run, res.DocRank.L1Diff(want))
		}
		for _, v := range res.LocalRanks {
			v.Fill(0)
		}
	}
}
