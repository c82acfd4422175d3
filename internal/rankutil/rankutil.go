// Package rankutil provides ranking comparison utilities used by the
// evaluation harness: top-k extraction, rank-correlation coefficients
// (Kendall tau, Spearman rho and footrule), overlap measures, and the spam
// contamination metric that quantifies the paper's Figure 3 vs Figure 4
// comparison.
package rankutil

import (
	"fmt"
	"math"
	"slices"
)

// Entry pairs an item index with its score.
type Entry struct {
	Index int
	Score float64
}

// TopK returns the k highest-scoring indices in descending score order,
// ties broken toward the lower index (deterministic across runs). k is
// clamped to len(scores).
//
// Selection, not sorting: a bounded heap keeps the k best entries seen
// so far with the worst at its root, so the scan costs O(N·log k), and
// only the k survivors are sorted. The order is the same total order a
// full stable sort by (score desc, index asc) produces, so the entries
// are identical to sorting every score.
func TopK(scores []float64, k int) []Entry {
	if k > len(scores) {
		k = len(scores)
	}
	if k <= 0 {
		return nil
	}
	h := make([]Entry, 0, k)
	for i, s := range scores {
		if len(h) < k {
			h = append(h, Entry{Index: i, Score: s})
			siftUp(h, len(h)-1)
			continue
		}
		// Indices arrive ascending, so a later entry beats the current
		// worst only on a strictly greater score.
		if s > h[0].Score {
			h[0] = Entry{Index: i, Score: s}
			siftDown(h, 0)
		}
	}
	slices.SortFunc(h, func(a, b Entry) int {
		if before(a, b) {
			return -1
		}
		return 1
	})
	return h
}

// before reports whether a ranks ahead of b: higher score first, ties
// toward the lower index. Indices are distinct, so this is a total
// order.
func before(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Index < b.Index
}

// siftUp and siftDown maintain h as a heap whose root is the entry
// ranked last under before.
func siftUp(h []Entry, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !before(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []Entry, i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && before(h[worst], h[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// Ranks converts scores into 0-based rank positions (rank[i] = position of
// item i when sorted by descending score, ties toward lower index).
func Ranks(scores []float64) []int {
	top := TopK(scores, len(scores))
	ranks := make([]int, len(scores))
	for pos, e := range top {
		ranks[e.Index] = pos
	}
	return ranks
}

// KendallTau computes the Kendall rank-correlation coefficient τ between
// two score vectors over the same items: +1 for identical orders, −1 for
// reversed orders. Ties are handled by the tau-b correction. It panics on
// length mismatch; it returns 0 for fewer than 2 items.
func KendallTau(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("rankutil: KendallTau length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	if n < 2 {
		return 0
	}
	var concordant, discordant, tiesA, tiesB float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			switch {
			case da == 0 && db == 0:
				// Tied in both: excluded from all counts.
			case da == 0:
				tiesA++
			case db == 0:
				tiesB++
			case (da > 0) == (db > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	denom := (concordant + discordant + tiesA) * (concordant + discordant + tiesB)
	if denom == 0 {
		return 0
	}
	return (concordant - discordant) / math.Sqrt(denom)
}

// SpearmanRho computes Spearman's rank correlation: Pearson correlation of
// the two rank vectors. It panics on length mismatch and returns 0 for
// fewer than 2 items.
func SpearmanRho(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("rankutil: SpearmanRho length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	if n < 2 {
		return 0
	}
	ra, rb := Ranks(a), Ranks(b)
	mean := float64(n-1) / 2
	var cov, varA, varB float64
	for i := 0; i < n; i++ {
		da := float64(ra[i]) - mean
		db := float64(rb[i]) - mean
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 0
	}
	return cov / math.Sqrt(varA*varB)
}

// SpearmanFootrule computes the normalized Spearman footrule distance
// between the orders induced by two score vectors: Σ|rank_a(i) −
// rank_b(i)| divided by its maximum (n²/2 for even n, (n²−1)/2 for odd), so
// 0 means identical orders and 1 maximally displaced.
func SpearmanFootrule(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("rankutil: SpearmanFootrule length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	if n < 2 {
		return 0
	}
	ra, rb := Ranks(a), Ranks(b)
	var sum float64
	for i := 0; i < n; i++ {
		d := ra[i] - rb[i]
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	max := float64(n*n) / 2
	if n%2 == 1 {
		max = float64(n*n-1) / 2
	}
	return sum / max
}

// OverlapAtK returns |topK(a) ∩ topK(b)| / k, the fraction of shared items
// among the two top-k lists.
func OverlapAtK(a, b []float64, k int) float64 {
	ta := TopK(a, k)
	tb := TopK(b, k)
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
	k = len(ta)
	if len(tb) < k {
		k = len(tb)
	}
	return float64(shared) / float64(k)
}

// ContaminationAtK returns the fraction of the top-k items for which
// flagged[i] is true — with flagged marking spam documents, this is the
// spam contamination the paper's §3.3 discusses qualitatively (Figure 3's
// top list is dominated by agglomerate pages; Figure 4's is clean).
func ContaminationAtK(scores []float64, flagged []bool, k int) float64 {
	if len(scores) != len(flagged) {
		panic(fmt.Sprintf("rankutil: ContaminationAtK length mismatch %d vs %d", len(scores), len(flagged)))
	}
	top := TopK(scores, k)
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
