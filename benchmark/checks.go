package main

import (
	"fmt"
	"math"
	"sync"

	"lmmrank"
)

// Tolerances of the correctness checks.
const (
	// distTol bounds how far a DocRank's mass may stray from 1.
	distTol = 1e-9
	// exactTol bounds the L1 distance between an exact path's answer
	// and a cold reference solve of the same query.
	exactTol = 1e-9
	// solverTol is the L1 slack a warm or coalesced answer may carry on
	// top of its stated bound: the default power-method tolerance
	// (1e-10 per solve) summed over the site layer and the document
	// layers, with margin.
	solverTol = 1e-6
)

// checkResult verifies the invariants every answer must hold: DocRank
// is a probability distribution, and Top is sorted, holds at most k
// entries and scores each document exactly as DocRank does.
func checkResult(res *lmmrank.Result, k int) error {
	var sum float64
	for i, x := range res.DocRank {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("DocRank[%d] = %v", i, x)
		}
		sum += x
	}
	if math.Abs(sum-1) > distTol {
		return fmt.Errorf("DocRank mass %.15f", sum)
	}
	if k <= 0 {
		return nil
	}
	if len(res.Top) > k || len(res.Top) != min(k, len(res.DocRank)) {
		return fmt.Errorf("Top has %d entries for k=%d", len(res.Top), k)
	}
	for i, e := range res.Top {
		if int(e.Doc) < 0 || int(e.Doc) >= len(res.DocRank) {
			return fmt.Errorf("Top[%d] names document %d", i, e.Doc)
		}
		if e.Score != res.DocRank[e.Doc] {
			return fmt.Errorf("Top[%d] score %v != DocRank[%d] %v", i, e.Score, e.Doc, res.DocRank[e.Doc])
		}
		if i > 0 && e.Score > res.Top[i-1].Score {
			return fmt.Errorf("Top not sorted at %d", i)
		}
	}
	return nil
}

// sameTop reports whether two top-k tables are bit-identical.
func sameTop(a, b []lmmrank.DocScore) bool {
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

// l1 is the L1 distance between two vectors of equal length (+Inf when
// the lengths differ).
func l1(a, b lmmrank.Vector) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// checker counts checked answers and records failures from many
// goroutines.
type checker struct {
	mu     sync.Mutex
	rep    *report
	maxL1  map[string]float64
	checks int
}

func newChecker(rep *report) *checker {
	return &checker{rep: rep, maxL1: map[string]float64{}}
}

// result checks one answer's invariants; a violation is a failed
// operation.
func (c *checker) result(res *lmmrank.Result, k int) {
	err := checkResult(res, k)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks++
	if err != nil {
		c.rep.fail("invariant: %v", err)
	}
}

// compare is one verification against a reference: it counts as an
// attempted operation and fails when d exceeds bound.
func (c *checker) compare(name string, d, bound float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.attempted++
	if prev, seen := c.maxL1[name]; !seen || d > prev || math.IsNaN(d) {
		c.maxL1[name] = d
	}
	if !(d <= bound) {
		c.rep.fail("%s: L1 %.3g exceeds %.3g", name, d, bound)
	}
}

// flag records a verification that has no distance, such as a top-k
// table that must be bit-identical.
func (c *checker) flag(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.attempted++
	if !ok {
		c.rep.fail(format, args...)
	}
}

// attempt counts n attempted operations.
func (c *checker) attempt(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.attempted += n
}

// fail records an operation that returned an error.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.fail(format, args...)
}

// report sets the check.max_l1_* metrics of the verified paths.
func (c *checker) report() {
	for name, d := range c.maxL1 {
		c.rep.set("check.max_l1_"+name, d, 1)
	}
}
