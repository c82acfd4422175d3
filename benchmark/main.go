// Command benchmark is lmmrank's benchmark of record. It replays one
// seeded workload against the public engines, checks every answer, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a separate traced run) as the last line of its output:
//
//	bash benchmark/run.sh --workload serve-index --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and the layer-to-metric
// map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef names one metric the benchmark can print.
type metricDef struct {
	name, unit string
	// endToEnd metrics print with --trace 0, per-layer ones with --trace 1.
	endToEnd bool
	// workloads the metric applies to; nil = all.
	workloads []string
	// report marks an end-to-end metric that is printed in the report
	// line only, not in the gated result line: it is not defined on
	// every workload, is zero by design, or spreads across runs on a
	// small shared host by more than any bound could absorb (see
	// README.md).
	report bool
}

const (
	wlIndex = "serve-index"
	wlSolve = "serve-solve"
	wlDist  = "dist-churn"
)

var (
	openLoops = []string{wlIndex, wlSolve}
	withIndex = []string{wlIndex}
	fleetOnly = []string{wlDist}
)

// catalog lists every metric in print order.
var catalog = []metricDef{
	{name: "setup_s", unit: "s", endToEnd: true},
	{name: "rank_p50_ms", unit: "ms", endToEnd: true},
	{name: "cpu_ms_per_rank", unit: "ms", endToEnd: true},
	{name: "update_cpu_ms", unit: "ms", endToEnd: true},
	{name: "heap_live_mb", unit: "MiB", endToEnd: true},
	{name: "update_p50_ms", unit: "ms", endToEnd: true, report: true},
	{name: "rank_p99_ms", unit: "ms", endToEnd: true, report: true},
	{name: "max_rate_qps", unit: "1/s", endToEnd: true, report: true},
	{name: "update_p95_ms", unit: "ms", endToEnd: true, report: true},
	{name: "rank_qps", unit: "1/s", endToEnd: true, report: true, workloads: fleetOnly},
	{name: "wire_kb_per_rank", unit: "KiB", endToEnd: true, report: true, workloads: fleetOnly},
	{name: "error_frac", unit: "frac", endToEnd: true, report: true},

	{name: "lmmrank.index_share", unit: "frac"},
	{name: "lmmrank.coalesce_share", unit: "frac"},
	{name: "lmmrank.overload_share", unit: "frac"},
	{name: "lmmrank.front_self_us", unit: "us"},
	{name: "lmmrank.allocs_per_rank", unit: "count"},
	{name: "lmmrank.alloc_kb_per_rank", unit: "KiB"},
	{name: "lmmrank.update_self_ms", unit: "ms"},
	{name: "lmmrank.topdocs_us", unit: "us"},
	{name: "lmm.site_solve_us", unit: "us"},
	{name: "lmm.site_iters", unit: "count"},
	{name: "lmm.local_solve_ms", unit: "ms"},
	{name: "lmm.local_iters", unit: "count"},
	{name: "lmm.rank3_ms", unit: "ms"},
	{name: "lmm.compose_us", unit: "us"},
	{name: "lmm.rebuild_ms", unit: "ms"},
	{name: "lmm.refresh_ms", unit: "ms"},
	{name: "lmm.refresh_sites_solved", unit: "count"},
	{name: "pagerank.slowest_site_ms", unit: "ms"},
	{name: "matrix.spmv_ns_per_nnz", unit: "ns"},
	{name: "matrix.bytes_per_spmv_computed", unit: "B"},
	{name: "matrix.ops_per_byte_computed", unit: "flop/B"},
	{name: "graph.clonecow_us", unit: "us"},
	{name: "graph.sitegraph_ms", unit: "ms"},
	{name: "partition.assign_ms", unit: "ms", workloads: fleetOnly},
	{name: "partition.cut_frac", unit: "frac", workloads: fleetOnly},
	{name: "coordinator.load_ms", unit: "ms", workloads: fleetOnly},
	{name: "coordinator.localrank_ms", unit: "ms", workloads: fleetOnly},
	{name: "coordinator.siterank_ms", unit: "ms", workloads: fleetOnly},
	{name: "coordinator.messages_per_rank", unit: "count", workloads: fleetOnly},
	{name: "coordinator.bytes_sent_per_rank", unit: "B", workloads: fleetOnly},
	{name: "coordinator.bytes_recv_per_rank", unit: "B", workloads: fleetOnly},
	{name: "coordinator.shards_reshipped_per_update", unit: "count", workloads: fleetOnly},
	{name: "coordinator.cache_hit_frac", unit: "frac", workloads: fleetOnly},
	{name: "coordinator.digest_kb_per_rank", unit: "KiB", workloads: fleetOnly},
	{name: "coordinator.retries", unit: "count", workloads: fleetOnly},
	{name: "wire.gob_encode_us_per_kb", unit: "us/KiB", workloads: fleetOnly},
	{name: "wire.gob_decode_us_per_kb", unit: "us/KiB", workloads: fleetOnly},
	{name: "wire.flate_ratio", unit: "frac", workloads: fleetOnly},
	{name: "runtime.gc_pause_p99_us", unit: "us"},
	{name: "runtime.sched_latency_p99_us", unit: "us"},
	{name: "runtime.gc_cycles_per_kop", unit: "count"},
	{name: "harness.gen_lag_p99_ms", unit: "ms"},
	{name: "harness.trace_overhead_frac", unit: "frac"},
	{name: "check.max_l1_exact", unit: "L1", workloads: openLoops},
	{name: "check.max_l1_index", unit: "L1", workloads: withIndex},
	{name: "check.max_l1_coalesced", unit: "L1", workloads: withIndex},
	{name: "check.max_l1_dist", unit: "L1", workloads: fleetOnly},
}

func (d metricDef) appliesTo(workload string) bool {
	if d.workloads == nil {
		return true
	}
	for _, w := range d.workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// sample is one metric value with the number of samples behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// report accumulates a run's metrics, operation counts and check
// failures.
type report struct {
	workload  string
	metrics   map[string]sample
	attempted int
	failed    int
	failures  []string
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: make(map[string]sample)}
}

func (r *report) set(name string, v float64, n int) {
	for _, d := range catalog {
		if d.name == name {
			r.metrics[name] = sample{Value: v, Unit: d.unit, N: n}
			return
		}
	}
	panic("benchmark: metric not in catalog: " + name)
}

// fail records a failed operation or check. The first few reasons are
// kept for the report.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: serve-index, serve-solve or dist-churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds of the run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "where the traced run writes its spans")
	flag.Parse()
	o.trace = trace == 1
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints the report and result lines. A
// failed operation or check makes it return an error after printing.
func run(w io.Writer, o options) error {
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	rep := newReport(o.workload)
	steal0, total0 := cpuSteal()
	params, err := wl(o, rep)
	if err != nil {
		return err
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// Time the hypervisor ran someone else on this VM's CPUs: a
		// run with a high share measured a noisy host.
		params["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	if rep.attempted > 0 {
		rep.set("error_frac", float64(rep.failed)/float64(rep.attempted), rep.attempted)
	}
	return printResult(w, o, params, rep)
}

func printResult(w io.Writer, o options, params map[string]any, rep *report) error {
	var names []string
	inMode := func(d metricDef) bool { return d.endToEnd != o.trace }
	for _, d := range catalog {
		if inMode(d) && d.appliesTo(o.workload) {
			names = append(names, d.name)
		}
	}
	full := make(map[string]sample)
	result := make(map[string]any)
	for _, name := range names {
		s, ok := rep.metrics[name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("metric %s was not measured", name)
		}
		full[name] = s
		fmt.Fprintf(w, "# %-40s %14.6g %-7s n=%d\n", name, s.Value, s.Unit, s.N)
	}
	for _, d := range catalog {
		if !inMode(d) || d.report {
			continue
		}
		s, ok := full[d.name]
		if !ok {
			// A per-layer metric of a layer this workload never enters.
			s = sample{Unit: d.unit}
		}
		result[d.name] = map[string]any{"value": s.Value, "unit": s.Unit}
	}
	for _, f := range rep.failures {
		fmt.Fprintln(w, "# FAILED:", f)
	}
	line, err := json.Marshal(map[string]any{
		"meta":    runMeta(o, params),
		"metrics": full,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	line, err = json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   result,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if rep.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
	}
	return nil
}

// runMeta describes the host, toolchain, code and workload a result
// came from.
func runMeta(o options, params map[string]any) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
		"params":     params,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSteal returns the host's cumulative steal and total CPU ticks
// from /proc/stat (zeros where unavailable).
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git work tree.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under the working
// directory (the checkout root), so a result names the code it measured
// even where no VCS revision is available.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if len(paths) == 0 {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// workloads maps each workload name to its runner. Each returns the
// workload parameters for the run metadata.
var workloads = map[string]func(options, *report) (map[string]any, error){
	wlIndex: func(o options, rep *report) (map[string]any, error) { return runLocal(serveIndexSpec, o, rep) },
	wlSolve: func(o options, rep *report) (map[string]any, error) { return runLocal(serveSolveSpec, o, rep) },
	wlDist:  runDist,
}
