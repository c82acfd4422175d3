package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule returns the due offsets of a Poisson arrival process
// at rate per second over d.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// opFunc runs operation i of a schedule. It returns when the operation
// finished, as seen by its caller, and its error; work done after that
// instant (answer checks, trace replay) is not part of the latency.
type opFunc func(ctx context.Context, i int) (done time.Time, err error)

// loadResult is what one open-loop phase measured.
type loadResult struct {
	latMS []float64 // latency of operation i from its due time; NaN if it failed
	errs  []error   // one per failed operation
	lagMS []float64 // how late the generator issued each operation
}

// ok returns the latencies of the operations that succeeded, in
// schedule order.
func (r loadResult) ok() []float64 {
	out := make([]float64, 0, len(r.latMS))
	for _, l := range r.latMS {
		if !math.IsNaN(l) {
			out = append(out, l)
		}
	}
	return out
}

// openLoop issues one operation per schedule entry at its due time, each
// on its own goroutine, whatever the state of earlier ones, and waits
// for all of them. Latency runs from the due time, so a stall that
// delays later operations counts against them too.
func openLoop(ctx context.Context, sched []time.Duration, op opFunc) loadResult {
	res := loadResult{lagMS: make([]float64, len(sched)), latMS: make([]float64, len(sched))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, due := range sched {
		at := t0.Add(due)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		res.lagMS[i] = ms(time.Since(at))
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			done, err := op(ctx, i)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				res.errs = append(res.errs, err)
				res.latMS[i] = math.NaN()
				return
			}
			res.latMS[i] = ms(done.Sub(at))
		}(i, at)
	}
	wg.Wait()
	return res
}

// ladderRate is rung k of the fixed geometric rate ladder of an open
// loop: 5% steps around the nominal rate (rung 0).
func ladderRate(nominal float64, k int) float64 { return nominal * math.Pow(1.05, float64(k)) }

const (
	ladderLow  = -8 // lowest rung probed
	ladderHigh = 32 // highest rung probed (4.8× nominal)
)

// probeResult is one ladder probe's verdict.
type probeResult struct {
	Rung  int     `json:"rung"`
	Rate  float64 `json:"rate_qps"`
	P99MS float64 `json:"p99_ms"`
	N     int     `json:"n"`
	OK    bool    `json:"ok"`
}

// meetsLimit reports whether a phase kept its p99 under the limit with
// no growing backlog. Failed or refused operations count as misses: a
// phase passes only if at most 1% of attempts failed or ran past the
// limit, and the tenth of its operations due last alone also meets the
// limit (a growing queue shows there first).
func meetsLimit(sched []time.Duration, r loadResult, limitMS float64) (p99 float64, ok bool) {
	n := len(sched)
	if n == 0 {
		return 0, false
	}
	lat := r.ok()
	miss := len(r.errs)
	for _, l := range lat {
		if l > limitMS {
			miss++
		}
	}
	p99 = quantile(lat, 0.99)
	if float64(miss) > 0.01*float64(n) {
		return p99, false
	}
	tail := lat[len(lat)*9/10:] // the operations due last
	return p99, quantile(tail, 0.99) <= limitMS
}

// ladder finds the highest rung whose probe meets the limit, by
// bisection between a passing and a failing rung, assuming a rung
// passes whenever a higher one does. Rung 0 takes the nominal phase's
// verdict; probe runs one phase at a rate and returns what it measured.
func ladder(nominal, limitMS float64, nominalOK bool, probe func(rate float64) ([]time.Duration, loadResult)) (best probeResult, probes []probeResult) {
	lo, hi := ladderLow-1, ladderHigh+1 // virtual pass and fail bounds
	if nominalOK {
		lo = 0
	} else {
		hi = 0
	}
	for hi-lo > 1 {
		k := (lo + hi) / 2
		rate := ladderRate(nominal, k)
		sched, r := probe(rate)
		p99, ok := meetsLimit(sched, r, limitMS)
		probes = append(probes, probeResult{Rung: k, Rate: rate, P99MS: p99, N: len(sched), OK: ok})
		if ok {
			lo = k
		} else {
			hi = k
		}
	}
	return probeResult{Rung: lo, Rate: ladderRate(nominal, lo), OK: lo >= ladderLow}, probes
}
