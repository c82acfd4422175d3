package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1) by linear
// interpolation between closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windows is how many consecutive windows a timed series is cut into
// for windowedQuantile.
const windows = 5

// windowedQuantile cuts xs (in time order) into consecutive windows,
// takes the q-quantile of each and returns their median: a transient
// stall of the host moves one window, not the result.
func windowedQuantile(xs []float64, q float64) float64 {
	if len(xs) < windows {
		return quantile(xs, q)
	}
	per := make([]float64, windows)
	for w := range per {
		per[w] = quantile(xs[w*len(xs)/windows:(w+1)*len(xs)/windows], q)
	}
	return median(per)
}

// supportedQuantile is the highest of the wanted quantile and lower
// ones that keeps at least ten samples beyond it: a tail percentile
// read from fewer samples than that is mostly noise. It returns the
// quantile used.
func supportedQuantile(n int, want float64) float64 {
	if n <= 0 {
		return want
	}
	limit := 1 - 10/float64(n)
	if limit < 0.5 {
		limit = 0.5
	}
	return math.Min(want, limit)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runtimeSample snapshots the runtime/metrics the benchmark reports:
// GC pause and scheduling latency histograms and the GC cycle count.
type runtimeSample struct {
	pauses, sched *metrics.Float64Histogram
	gcCycles      uint64
}

var runtimeMetricNames = []string{
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		pauses:   s[0].Value.Float64Histogram(),
		sched:    s[1].Value.Float64Histogram(),
		gcCycles: s[2].Value.Uint64(),
	}
}

// histQuantile returns the q-quantile, in seconds, of the events that
// landed in histogram b but not in the earlier snapshot a (same bucket
// layout), reading each bucket at its upper bound; 0 when nothing
// landed.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= target {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// setupReps is how many times a run sets its engine up; setup_s is the
// median.
const setupReps = 15

// liveHeapMB returns the live heap in MiB after two forced collections:
// the second also drops what sync.Pools kept from the first, so pooled
// scratch left over from load peaks does not count.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// cpuTime returns the CPU time (user + system) this process has used.
// Unlike wall-clock time it does not grow while the hypervisor runs
// another guest on this VM's CPUs, so costs measured with it stay put
// on a noisy shared host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
