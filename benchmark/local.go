package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lmmrank"
	"lmmrank/internal/graph"
)

// localSpec defines an open-loop workload against a LocalEngine. The
// nominal rate sits near half the capacity measured on a 2-vCPU host,
// and the p99 limit is 50× the unloaded p50 there: loose enough that
// the rate ladder finds where the backlog starts to grow.
type localSpec struct {
	opts       lmmrank.EngineOptions
	nominalQPS float64
	p99LimitMS float64
	// updateEvery is the writer's period during the load (0 = no
	// writer); postUpdates is the number of quiesced Updates after the
	// load, whose CPU cost update_cpu_ms reports (and whose latency
	// update_p50_ms reports when there is no writer).
	updateEvery time.Duration
	postUpdates int
	// sampleEvery is the traced run's replay sampling period.
	sampleEvery int
	// gen draws the next request.
	gen func(rng *rand.Rand, dg *graph.DocGraph, pool profilePool) request
}

const topK = 10

// serveIndexSpec: four tenants, half uniform and half profile-
// personalized top-k queries, served by the TopKIndex serving kit while
// a writer publishes 1-site Updates.
var serveIndexSpec = localSpec{
	opts: lmmrank.EngineOptions{
		Parallelism:    1,
		TopKIndex:      true,
		Coalesce:       true,
		CoalesceTol:    0.01,
		MaxInFlight:    64,
		TenantQuota:    16,
		RejectOverload: true,
	},
	nominalQPS:  600,
	p99LimitMS:  50,
	updateEvery: 50 * time.Millisecond,
	postUpdates: 100,
	sampleEvery: 10,
	gen: func(rng *rand.Rand, dg *graph.DocGraph, pool profilePool) request {
		q := lmmrank.Query{Tenant: fmt.Sprintf("tenant-%d", rng.Intn(4)), TopK: topK}
		if rng.Intn(2) == 0 {
			q.SitePersonalization = pool.draw(rng, 0.002)
		}
		return request{q: q, path: pathIndex}
	},
}

// serveSolveSpec: cold full solves on a plain engine. Every query
// carries a fresh site-personalization vector, a fifth also personalize
// the document layer of three sites and a tenth are three-layer.
var serveSolveSpec = localSpec{
	nominalQPS:  35,
	p99LimitMS:  800,
	postUpdates: 200,
	sampleEvery: 4,
	gen: func(rng *rand.Rand, dg *graph.DocGraph, _ profilePool) request {
		q := lmmrank.Query{TopK: topK}
		switch r := rng.Intn(10); {
		case r == 0:
			q.ThreeLayer = true
			return request{q: q, path: pathThree}
		case r <= 2:
			q.DocPersonalization = map[lmmrank.SiteID]lmmrank.Vector{}
			for len(q.DocPersonalization) < 3 {
				s := lmmrank.SiteID(rng.Intn(dg.NumSites()))
				if n := dg.SiteSize(s); n >= 2 {
					q.DocPersonalization[s] = freshVector(rng, n)
				}
			}
		}
		q.SitePersonalization = freshVector(rng, dg.NumSites())
		return request{q: q, path: pathExact}
	},
}

// localRun is the state of one local workload run.
type localRun struct {
	spec   localSpec
	o      options
	rep    *report
	chk    *checker
	eng    *lmmrank.LocalEngine
	mirror *graph.DocGraph // the served graph's replica, for the reference
	edits  *editSource
	pool   profilePool
	qrng   *rand.Rand

	tr     *tracer
	rp     *replayer
	jobs   chan replayJob
	reqID  atomic.Int64
	traced atomic.Bool
	// inline replays each Update right after it returns instead of
	// queueing it: for the quiesced Updates, which nothing overlaps.
	inline bool
}

func (r *localRun) requests(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = r.spec.gen(r.qrng, r.mirror, r.pool)
	}
	return out
}

// op serves reqs[i] and checks the answer; in the traced phase every
// sampleEvery-th request is also queued for replay.
func (r *localRun) op(reqs []request) opFunc {
	return func(ctx context.Context, i int) (time.Time, error) {
		rq := &reqs[i]
		start := time.Now()
		res, err := r.eng.Rank(ctx, rq.q)
		done := time.Now()
		if err != nil {
			return done, err
		}
		r.chk.result(res, rq.q.TopK)
		if r.traced.Load() && i%r.spec.sampleEvery == 0 {
			req := r.reqID.Add(1)
			root := r.tr.add(spanRank, req, 0, start, done, 0)
			select {
			case r.jobs <- replayJob{req: req, root: root, rq: rq}:
			default: // the replay is behind; skip this sample
			}
		}
		return done, nil
	}
}

// update publishes one edit, mirrors it and, when traced, queues its
// replay.
func (r *localRun) update(ctx context.Context) (time.Duration, error) {
	e := r.edits.next()
	start := time.Now()
	err := r.eng.Update(ctx, e.delta())
	end := time.Now()
	if err != nil {
		return 0, err
	}
	e.apply(r.mirror)
	if r.traced.Load() {
		req := r.reqID.Add(1)
		root := r.tr.add(spanUpdate, req, 0, start, end, 0)
		if r.inline {
			r.rp.update(req, root, e)
		} else {
			r.jobs <- replayJob{req: req, root: root, e: &e}
		}
	}
	return end.Sub(start), nil
}

// writer publishes Updates on a fixed period until stopped; latencies
// are kept while recording is on.
type writer struct {
	stop, done chan struct{}
	recording  atomic.Bool
	mu         sync.Mutex
	latMS      []float64
}

func (r *localRun) startWriter(every time.Duration) *writer {
	w := &writer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
			d, err := r.update(context.Background())
			r.chk.attempt(1)
			if err != nil {
				r.chk.fail("update: %v", err)
				continue
			}
			if w.recording.Load() {
				w.mu.Lock()
				w.latMS = append(w.latMS, ms(d))
				w.mu.Unlock()
			}
		}
	}()
	return w
}

func (w *writer) halt() {
	if w == nil {
		return
	}
	close(w.stop)
	<-w.done
}

// phase runs one open-loop phase at rate for d. In strict phases every
// error is a failed operation; in ladder probes an admission refusal or
// a cut-off at the probe's deadline is the miss being measured, and
// only other errors fail.
func (r *localRun) phase(ctx context.Context, rate float64, d time.Duration, rng *rand.Rand, strict bool) ([]time.Duration, loadResult) {
	sched := poissonSchedule(rng, rate, d)
	reqs := r.requests(len(sched))
	res := openLoop(ctx, sched, r.op(reqs))
	r.chk.attempt(len(sched))
	for _, err := range res.errs {
		if strict || !(errors.Is(err, lmmrank.ErrOverloaded) || errors.Is(err, context.DeadlineExceeded)) {
			r.chk.fail("rank: %v", err)
		}
	}
	return sched, res
}

// startReplay starts a replayer over a fresh replica of the served
// graph (the seed's web plus every edit so far) and turns tracing on.
func (r *localRun) startReplay() (done chan struct{}, err error) {
	dg := genWeb(r.o.seed)
	for _, e := range r.edits.log {
		e.apply(dg)
	}
	r.rp, err = newReplayer(r.tr, dg, true, r.spec.opts.TopKIndex, r.spec.opts.TopKIndex, r.spec.opts.Parallelism)
	if err != nil {
		return nil, err
	}
	r.jobs = make(chan replayJob, 256) // room for a burst of samples; beyond it samples are skipped
	done = make(chan struct{})
	go r.rp.run(r.jobs, done)
	r.traced.Store(true)
	return done, nil
}

func runLocal(spec localSpec, o options, rep *report) (map[string]any, error) {
	dg := genWeb(o.seed)
	r := &localRun{
		spec:   spec,
		o:      o,
		rep:    rep,
		chk:    newChecker(rep),
		mirror: genWeb(o.seed),
		qrng:   rand.New(rand.NewSource(o.seed + 1)),
		tr:     newTracer(),
	}
	r.edits = newEditSource(o.seed+2, r.mirror)
	r.pool = newProfilePool(rand.New(rand.NewSource(o.seed+3)), dg.NumSites(), 8)
	srng := rand.New(rand.NewSource(o.seed + 4))
	bg := context.Background()

	// Set-up: the web handed to the engine until it is ready to serve.
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		r.eng = nil
		runtime.GC()
		t := time.Now()
		eng, err := lmmrank.NewLocalEngine(dg, spec.opts)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		r.eng = eng
	}
	rep.set("setup_s", median(setups), reps)

	// Warm-up, untimed: fill the engine's pool of scratch rankers.
	warm := r.requests(32)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(warm); i += 2 {
				if res, err := r.eng.Rank(bg, warm[i].q); err == nil {
					r.chk.result(res, topK)
				} else {
					r.chk.fail("warm-up rank: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	rep.attempted += len(warm)

	params := map[string]any{
		"nominal_qps":  spec.nominalQPS,
		"p99_limit_ms": spec.p99LimitMS,
		"docs":         dg.NumDocs(),
		"sites":        dg.NumSites(),
		"engine":       fmt.Sprintf("%+v", spec.opts),
	}
	var w *writer
	if spec.updateEvery > 0 {
		w = r.startWriter(spec.updateEvery)
		params["update_every_ms"] = ms(spec.updateEvery)
	}
	total := time.Duration(o.seconds) * time.Second
	limit := time.Duration(spec.p99LimitMS * float64(time.Millisecond))
	var updMS []float64
	var replayDone chan struct{}
	if !o.trace {
		if w != nil {
			w.recording.Store(true)
		}
		cpu0 := cpuTime()
		sched, nominal := r.phase(bg, spec.nominalQPS, total*2/3, srng, true)
		cpu := cpuTime() - cpu0
		if w != nil {
			w.recording.Store(false)
		}
		p99, ok := meetsLimit(sched, nominal, spec.p99LimitMS)
		params["gen_lag_p99_ms"] = quantile(nominal.lagMS, 0.99)
		probeDur := total / 3 / 5
		best, probes := ladder(spec.nominalQPS, spec.p99LimitMS, ok, func(rate float64) ([]time.Duration, loadResult) {
			ctx, cancel := context.WithTimeout(bg, probeDur+2*limit)
			defer cancel()
			return r.phase(ctx, rate, probeDur, srng, false)
		})
		params["ladder"] = probes
		if !best.OK {
			fmt.Fprintf(os.Stderr, "benchmark: no ladder rung met the p99 limit\n")
		}
		lat := nominal.ok()
		params["nominal_p99_ms"] = p99
		rep.set("rank_p50_ms", median(lat), len(lat))
		rep.set("rank_p99_ms", windowedQuantile(lat, 0.99), len(lat))
		rep.set("max_rate_qps", best.Rate, len(probes)+1)
		rep.set("cpu_ms_per_rank", ms(cpu)/float64(len(lat)), len(lat))
		w.halt()
		if w != nil {
			updMS = w.latMS
		}
	} else {
		stats0 := r.eng.ServingStats()
		rt0 := readRuntime()
		sched, untraced := r.phase(bg, spec.nominalQPS, total/2, srng, true)
		rt1 := readRuntime()
		runtimeMetrics(rep, rt0, rt1, len(sched))
		rep.set("harness.gen_lag_p99_ms", quantile(untraced.lagMS, 0.99), len(sched))
		// Bring a replayer in step with the engine, then trace the
		// second half.
		w.halt()
		var err error
		if replayDone, err = r.startReplay(); err != nil {
			return nil, err
		}
		if spec.updateEvery > 0 {
			w = r.startWriter(spec.updateEvery)
		}
		sched2, traced := r.phase(bg, spec.nominalQPS, total/2, srng, true)
		w.halt()
		stats := r.eng.ServingStats()
		ranks := float64(stats.Ranks - stats0.Ranks)
		rep.set("lmmrank.index_share", float64(stats.TopKIndexServes-stats0.TopKIndexServes)/ranks, int(ranks))
		rep.set("lmmrank.coalesce_share", float64(stats.CoalesceShared-stats0.CoalesceShared)/ranks, int(ranks))
		rep.set("lmmrank.overload_share", float64(stats.Overloads-stats0.Overloads)/float64(len(sched)+len(sched2)), len(sched)+len(sched2))
		rep.set("harness.trace_overhead_frac", median(traced.ok())/median(untraced.ok())-1, len(traced.latMS))
		close(r.jobs)
		<-replayDone
		r.inline = true
	}

	// Quiesced Updates. Their latency stands for Update latency only
	// on a workload without a writer.
	cpu0 := cpuTime()
	var quiesced []float64
	for i := 0; i < spec.postUpdates; i++ {
		d, err := r.update(bg)
		rep.attempted++
		if err != nil {
			r.chk.fail("update: %v", err)
			continue
		}
		quiesced = append(quiesced, ms(d))
	}
	if w == nil {
		updMS = quiesced
	}
	if !o.trace {
		rep.set("update_cpu_ms", ms(cpuTime()-cpu0)/float64(len(quiesced)), len(quiesced))
		q := supportedQuantile(len(updMS), 0.95)
		rep.set("update_p50_ms", median(updMS), len(updMS))
		rep.set("update_p95_ms", windowedQuantile(updMS, q), len(updMS))
		params["update_p95_quantile"] = q
		rep.set("heap_live_mb", liveHeapMB(), 1)
		runtime.KeepAlive(r.eng)
	} else {
		r.traced.Store(false)
		if err := r.layerMetrics(dg); err != nil {
			return nil, err
		}
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	r.chk.report()
	return params, nil
}

// layerMetrics reduces the traced run's spans and takes the layer
// micro-measurements.
func (r *localRun) layerMetrics(dg *graph.DocGraph) error {
	v := r.tr.view()
	rankN := len(v.byName[spanRank])
	updN := len(v.byName[spanUpdate])
	r.rep.set("lmmrank.front_self_us", medianOr0(v.selfTimes(spanRank, time.Microsecond)), rankN)
	r.rep.set("lmmrank.update_self_ms", medianOr0(v.selfTimes(spanUpdate, time.Millisecond)), updN)
	r.rep.set("lmmrank.topdocs_us", medianOr0(v.durations(spanTopDocs, time.Microsecond)), len(v.byName[spanTopDocs]))
	r.rep.set("lmm.site_solve_us", medianOr0(v.durations(spanSites, time.Microsecond)), len(v.byName[spanSites]))
	r.rep.set("lmm.site_iters", medianOr0(v.counts(spanSites)), len(v.byName[spanSites]))
	r.rep.set("lmm.local_solve_ms", medianOr0(v.perRoot(spanRank, spanLocals, time.Millisecond)), rankN)
	r.rep.set("lmm.local_iters", medianOr0(v.perRootCount(spanRank, spanLocals)), rankN)
	r.rep.set("pagerank.slowest_site_ms", medianOr0(v.slowestLeaf(spanRank, spanLocals, spanLocal, time.Millisecond)), rankN)
	r.rep.set("lmm.rank3_ms", medianOr0(v.durations(spanRank3, time.Millisecond)), len(v.byName[spanRank3]))
	r.rep.set("lmm.compose_us", medianOr0(v.durations(spanCompose, time.Microsecond)), len(v.byName[spanCompose]))
	r.rep.set("lmm.rebuild_ms", medianOr0(v.durations(spanRebuild, time.Millisecond)), updN)
	refresh := spanFullRank
	if r.spec.opts.TopKIndex {
		refresh = spanRefresh
	}
	r.rep.set("lmm.refresh_ms", medianOr0(v.durations(refresh, time.Millisecond)), updN)
	r.rep.set("lmm.refresh_sites_solved", medianOr0(v.counts(refresh)), updN)
	r.rep.set("graph.clonecow_us", medianOr0(v.durations(spanCloneCOW, time.Microsecond)), updN)
	if err := r.tr.write(r.o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", r.rep.workload, r.o.seed)); err != nil {
		return err
	}

	reqs := r.requests(200)
	if err := allocProbe(r.rep, len(reqs), func(i int) error {
		_, err := r.eng.Rank(context.Background(), reqs[i].q)
		return err
	}); err != nil {
		return err
	}
	r.rep.attempted += len(reqs)
	measureSpMV(r.rep, r.rp.rk)
	measureSiteGraph(r.rep, dg)
	return nil
}

// verify quiesces the engine and checks one query of each path it
// serves against a cold reference LocalEngine built on a replica of the
// served graph.
func (r *localRun) verify() error {
	ref, err := lmmrank.NewLocalEngine(r.mirror, lmmrank.EngineOptions{})
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	ctx := context.Background()
	vrng := rand.New(rand.NewSource(r.o.seed + 5))
	exact := func(q lmmrank.Query) (*lmmrank.Result, error) {
		q.Tenant = ""
		res, err := ref.Rank(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("reference rank: %w", err)
		}
		return res, nil
	}
	rank := func(q lmmrank.Query) *lmmrank.Result {
		res, err := r.eng.Rank(ctx, q)
		r.chk.attempt(1)
		if err != nil {
			r.chk.fail("verify rank: %v", err)
			return nil
		}
		r.chk.result(res, q.TopK)
		return res
	}
	served := r.eng.DocGraph()
	if r.spec.opts.TopKIndex {
		for _, q := range []lmmrank.Query{
			{TopK: topK},
			{TopK: topK, SitePersonalization: r.pool.draw(vrng, 0)},
		} {
			before := r.eng.ServingStats().TopKIndexServes
			res := rank(q)
			if res == nil {
				continue
			}
			r.chk.flag(r.eng.ServingStats().TopKIndexServes == before+1, "index path not taken")
			r.chk.flag(sameTop(res.Top, lmmrank.TopDocs(served, res.DocRank, q.TopK)), "index Top differs from TopDocs of its DocRank")
			want, err := exact(q)
			if err != nil {
				return err
			}
			r.chk.compare("index", l1(res.DocRank, want.DocRank), solverTol)
		}
		// Similar queries in one burst may share one solve; each answer
		// must stay within CoalesceTol of its own exact answer.
		burst := make([]lmmrank.Query, 8)
		for i := range burst {
			burst[i] = lmmrank.Query{TopK: topK, SitePersonalization: r.pool.draw(vrng, 0.002)}
		}
		got := make([]*lmmrank.Result, len(burst))
		var wg sync.WaitGroup
		for i := range burst {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], _ = r.eng.Rank(ctx, burst[i])
			}(i)
		}
		wg.Wait()
		for i, res := range got {
			r.chk.attempt(1)
			if res == nil {
				r.chk.fail("verify coalesced rank %d failed", i)
				continue
			}
			r.chk.result(res, topK)
			want, err := exact(burst[i])
			if err != nil {
				return err
			}
			r.chk.compare("coalesced", l1(res.DocRank, want.DocRank), r.spec.opts.CoalesceTol+solverTol)
		}
	}
	// Exact paths: a full two-layer solve (document-layer
	// personalization takes it on every engine), and a three-layer one.
	sp := serveSolveSpec.gen
	var two, three *request
	for two == nil || three == nil {
		rq := sp(vrng, r.mirror, r.pool)
		switch {
		case rq.path == pathThree && three == nil:
			three = &rq
		case rq.path == pathExact && rq.q.DocPersonalization != nil && two == nil:
			two = &rq
		}
	}
	for _, rq := range []*request{two, three} {
		res := rank(rq.q)
		if res == nil {
			continue
		}
		want, err := exact(rq.q)
		if err != nil {
			return err
		}
		r.chk.compare("exact", l1(res.DocRank, want.DocRank), exactTol)
	}
	return nil
}
