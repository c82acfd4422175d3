package rankutil

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortTopK is the full-sort TopK the selection replaced, kept as the
// oracle: a stable sort of every index by (score desc, index asc).
func sortTopK(scores []float64, k int) []Entry {
	if k > len(scores) {
		k = len(scores)
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := make([]Entry, k)
	for i := 0; i < k; i++ {
		out[i] = Entry{Index: idx[i], Score: scores[idx[i]]}
	}
	return out
}

// sortRanks is Ranks over the oracle.
func sortRanks(scores []float64) []int {
	ranks := make([]int, len(scores))
	for pos, e := range sortTopK(scores, len(scores)) {
		ranks[e.Index] = pos
	}
	return ranks
}

// adversarialScores draws a finite vector that stresses the tie-break:
// planted runs of one repeated value, signed zeros, a block of equal
// scores at the top, denormals, and ordinary random values between.
func adversarialScores(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	pool := []float64{0, math.Copysign(0, -1), 5e-324, 1e-310, -1e-310, 1, -1, 0.5}
	for i := range v {
		switch rng.Intn(6) {
		case 0:
			v[i] = pool[rng.Intn(len(pool))]
		case 1:
			if i > 0 {
				v[i] = v[i-1] // extend a tie run
			}
		default:
			v[i] = rng.NormFloat64()
		}
	}
	// An equal-score block at the very top: every k cuts through it.
	if n > 0 {
		top := 1e9
		for i := 0; i < n; i += 1 + rng.Intn(3) {
			v[i] = top
		}
	}
	return v
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestTopKMatchesFullSort pins the selection against the full sort it
// replaced: bit-identical entries at every k, including the boundaries.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		scores := adversarialScores(rng, n)
		for _, k := range []int{0, 1, 10, n - 1, n, n + 5} {
			got, want := TopK(scores, k), sortTopK(scores, k)
			if !sameEntries(got, want) {
				t.Fatalf("trial %d n=%d k=%d:\n got %v\nwant %v", trial, n, k, got, want)
			}
		}
		ranks, want := Ranks(scores), sortRanks(scores)
		for i := range want {
			if ranks[i] != want[i] {
				t.Fatalf("trial %d: Ranks[%d] = %d, want %d", trial, i, ranks[i], want[i])
			}
		}
		other := adversarialScores(rng, n)
		flagged := make([]bool, n)
		for i := range flagged {
			flagged[i] = rng.Intn(3) == 0
		}
		for _, k := range []int{1, 10, n} {
			if got, want := OverlapAtK(scores, other, k), sortOverlapAtK(scores, other, k); got != want {
				t.Fatalf("trial %d k=%d: OverlapAtK = %v, want %v", trial, k, got, want)
			}
			if got, want := ContaminationAtK(scores, flagged, k), sortContaminationAtK(scores, flagged, k); got != want {
				t.Fatalf("trial %d k=%d: ContaminationAtK = %v, want %v", trial, k, got, want)
			}
		}
	}
	if TopK(nil, 3) != nil {
		t.Error("TopK of an empty vector should be nil")
	}
}

// sortOverlapAtK and sortContaminationAtK are the metrics computed over
// the oracle's tables.
func sortOverlapAtK(a, b []float64, k int) float64 {
	ta, tb := sortTopK(a, k), sortTopK(b, k)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	inA := make(map[int]bool, len(ta))
	for _, e := range ta {
		inA[e.Index] = true
	}
	var shared int
	for _, e := range tb {
		if inA[e.Index] {
			shared++
		}
	}
	return float64(shared) / float64(min(len(ta), len(tb)))
}

func sortContaminationAtK(scores []float64, flagged []bool, k int) float64 {
	top := sortTopK(scores, k)
	if len(top) == 0 {
		return 0
	}
	var bad int
	for _, e := range top {
		if flagged[e.Index] {
			bad++
		}
	}
	return float64(bad) / float64(len(top))
}
