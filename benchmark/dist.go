package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lmmrank"
)

// distUpdateEvery makes every 5th operation of the fleet workload an
// Update.
const distUpdateEvery = 5

// distRun is the state of one dist-churn run: a single client in a
// closed loop, because the coordinator serializes runs and its callers
// wait for replies.
type distRun struct {
	o      options
	rep    *report
	chk    *checker
	cl     *lmmrank.Cluster
	eng    *lmmrank.DistEngine
	mirror *lmmrank.DocGraph
	edits  *editSource
	pool   profilePool
	qrng   *rand.Rand
	tr     *tracer
	rp     *replayer
	reqID  int64

	rankMS, updMS []float64
	stats         []lmmrank.DistStats
	updates       int
	updCPU        time.Duration // process CPU spent inside Update calls
}

// setup starts a loopback fleet of one worker per CPU and a DistEngine
// over it, then serves the first cold rank, which ships every shard.
func (r *distRun) setup(dg *lmmrank.DocGraph) (time.Duration, error) {
	t := time.Now()
	cl, err := lmmrank.StartCluster(runtime.NumCPU())
	if err != nil {
		return 0, fmt.Errorf("start cluster: %w", err)
	}
	eng, err := lmmrank.NewDistEngine(cl, dg, lmmrank.DistConfig{})
	if err != nil {
		cl.Close()
		return 0, fmt.Errorf("dist engine: %w", err)
	}
	res, err := eng.Rank(context.Background(), lmmrank.Query{TopK: topK})
	d := time.Since(t)
	r.chk.attempt(1)
	if err != nil {
		cl.Close()
		return 0, fmt.Errorf("first rank: %w", err)
	}
	r.chk.result(res, topK)
	r.cl, r.eng = cl, eng
	return d, nil
}

func (r *distRun) query() request {
	q := lmmrank.Query{TopK: topK}
	if r.qrng.Intn(2) == 0 {
		q.SitePersonalization = r.pool.draw(r.qrng, 0.002)
	}
	return request{q: q, path: pathDist}
}

// loop runs the closed loop for d; with trace set, every sampled rank
// and every Update is replayed inline after it returns.
func (r *distRun) loop(d time.Duration, trace bool, sampleEvery int) (ranks int, elapsed time.Duration) {
	ctx := context.Background()
	t0 := time.Now()
	// Run at least one Update even when d is shorter than the first
	// few operations.
	for i := 0; time.Since(t0) < d || i < distUpdateEvery; i++ {
		r.chk.attempt(1)
		if i%distUpdateEvery == distUpdateEvery-1 {
			e := r.edits.next()
			cpu0 := cpuTime()
			start := time.Now()
			err := r.eng.Update(ctx, e.delta())
			end := time.Now()
			r.updCPU += cpuTime() - cpu0
			if err != nil {
				r.chk.fail("update: %v", err)
				continue
			}
			e.apply(r.mirror)
			r.updMS = append(r.updMS, ms(end.Sub(start)))
			r.updates++
			if trace {
				r.reqID++
				root := r.tr.add(spanUpdate, r.reqID, 0, start, end, 0)
				r.rp.update(r.reqID, root, e)
			}
			continue
		}
		rq := r.query()
		start := time.Now()
		res, err := r.eng.Rank(ctx, rq.q)
		end := time.Now()
		if err != nil {
			r.chk.fail("rank: %v", err)
			continue
		}
		r.chk.result(res, topK)
		r.rankMS = append(r.rankMS, ms(end.Sub(start)))
		r.stats = append(r.stats, *res.Dist)
		ranks++
		if trace && ranks%sampleEvery == 0 {
			r.reqID++
			root := r.tr.add(spanRank, r.reqID, 0, start, end, 0)
			r.rp.rank(r.reqID, root, rq)
		}
	}
	return ranks, time.Since(t0)
}

func runDist(o options, rep *report) (map[string]any, error) {
	dg := genWeb(o.seed)
	r := &distRun{
		o:      o,
		rep:    rep,
		chk:    newChecker(rep),
		mirror: genWeb(o.seed),
		qrng:   rand.New(rand.NewSource(o.seed + 1)),
		tr:     newTracer(),
	}
	r.edits = newEditSource(o.seed+2, r.mirror)
	r.pool = newProfilePool(rand.New(rand.NewSource(o.seed+3)), dg.NumSites(), 8)

	reps := setupReps
	if o.trace {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if r.cl != nil {
			r.cl.Close()
			r.cl, r.eng = nil, nil
		}
		runtime.GC()
		d, err := r.setup(dg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { r.cl.Close() }()
	rep.set("setup_s", median(setups), reps)
	params := map[string]any{
		"workers":      runtime.NumCPU(),
		"update_every": distUpdateEvery,
		"docs":         dg.NumDocs(),
		"sites":        dg.NumSites(),
	}

	total := time.Duration(o.seconds) * time.Second
	if !o.trace {
		cpu0 := cpuTime()
		ranks, elapsed := r.loop(total, false, 0)
		cpu := cpuTime() - cpu0
		qps := float64(ranks) / elapsed.Seconds()
		// The closed loop's CPU per rank includes its share of Updates
		// (every 5th operation), as the open loops' includes the writer.
		rep.set("cpu_ms_per_rank", ms(cpu)/float64(ranks), ranks)
		rep.set("update_cpu_ms", ms(r.updCPU)/float64(r.updates), r.updates)
		rep.set("rank_p50_ms", median(r.rankMS), len(r.rankMS))
		rep.set("rank_p99_ms", windowedQuantile(r.rankMS, 0.99), len(r.rankMS))
		rep.set("rank_qps", qps, ranks)
		// The coordinator serializes runs, so the closed loop's rate is
		// the fleet's capacity.
		rep.set("max_rate_qps", qps, ranks)
		q := supportedQuantile(len(r.updMS), 0.95)
		params["update_p95_quantile"] = q
		rep.set("update_p50_ms", median(r.updMS), len(r.updMS))
		rep.set("update_p95_ms", windowedQuantile(r.updMS, q), len(r.updMS))
		var bytes uint64
		for _, s := range r.stats {
			bytes += s.BytesSent + s.BytesReceived
		}
		rep.set("wire_kb_per_rank", float64(bytes)/1024/float64(len(r.stats)), len(r.stats))
		rep.set("heap_live_mb", liveHeapMB(), 1)
		runtime.KeepAlive(r.eng)
	} else {
		if err := r.traced(total); err != nil {
			return nil, err
		}
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	r.chk.report()
	return params, nil
}

// traced runs the traced dist-churn: an untraced half, then a half with
// every Update and every 4th rank replayed through the layers.
func (r *distRun) traced(total time.Duration) error {
	rt0 := readRuntime()
	ranks, _ := r.loop(total/2, false, 0)
	rt1 := readRuntime()
	runtimeMetrics(r.rep, rt0, rt1, ranks+r.updates)
	untracedP50 := median(r.rankMS)
	n0 := len(r.rankMS)

	dg := genWeb(r.o.seed)
	for _, e := range r.edits.log {
		e.apply(dg)
	}
	rp, err := newReplayer(r.tr, dg, false, false, false, 0)
	if err != nil {
		return err
	}
	r.rp = rp
	r.loop(total/2, true, 4)
	r.rep.set("harness.trace_overhead_frac", median(r.rankMS[n0:])/untracedP50-1, len(r.rankMS)-n0)
	r.rep.set("harness.gen_lag_p99_ms", 0, 0) // a closed loop has no schedule to lag

	v := r.tr.view()
	rankN := len(v.byName[spanRank])
	updN := len(v.byName[spanUpdate])
	r.rep.set("lmmrank.front_self_us", medianOr0(v.selfTimes(spanRank, time.Microsecond)), rankN)
	r.rep.set("lmmrank.update_self_ms", medianOr0(v.selfTimes(spanUpdate, time.Millisecond)), updN)
	r.rep.set("lmmrank.topdocs_us", medianOr0(v.durations(spanTopDocs, time.Microsecond)), rankN)
	r.rep.set("lmm.site_solve_us", medianOr0(v.durations(spanSites, time.Microsecond)), rankN)
	r.rep.set("lmm.site_iters", medianOr0(v.counts(spanSites)), rankN)
	r.rep.set("lmm.local_solve_ms", medianOr0(v.perRoot(spanRank, spanLocals, time.Millisecond)), rankN)
	r.rep.set("lmm.local_iters", medianOr0(v.perRootCount(spanRank, spanLocals)), rankN)
	r.rep.set("pagerank.slowest_site_ms", medianOr0(v.slowestLeaf(spanRank, spanLocals, spanDistLocal, time.Millisecond)), rankN)
	r.rep.set("lmm.rank3_ms", 0, 0)
	r.rep.set("lmm.compose_us", medianOr0(v.durations(spanCompose, time.Microsecond)), rankN)
	r.rep.set("lmm.rebuild_ms", medianOr0(v.durations(spanRebuild, time.Millisecond)), updN)
	r.rep.set("lmm.refresh_ms", 0, 0)
	r.rep.set("lmm.refresh_sites_solved", 0, 0)
	r.rep.set("graph.clonecow_us", medianOr0(v.durations(spanCloneCOW, time.Microsecond)), updN)
	if err := r.tr.write(r.o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", r.rep.workload, r.o.seed)); err != nil {
		return err
	}

	var load, local, site []float64
	var msgs, sent, recv, hits, misses, digest, retries, reshipped float64
	for _, s := range r.stats {
		load = append(load, ms(s.LoadDuration))
		local = append(local, ms(s.LocalRankDuration))
		site = append(site, ms(s.SiteRankDuration))
		msgs += float64(s.Messages)
		sent += float64(s.BytesSent)
		recv += float64(s.BytesReceived)
		hits += float64(s.CacheHits)
		misses += float64(s.CacheMisses)
		digest += float64(s.DigestBytesHashed)
		retries += float64(s.Retries)
		reshipped += float64(s.ShardsReshipped)
	}
	n := len(r.stats)
	fn := float64(n)
	r.rep.set("coordinator.load_ms", median(load), n)
	r.rep.set("coordinator.localrank_ms", median(local), n)
	r.rep.set("coordinator.siterank_ms", median(site), n)
	r.rep.set("coordinator.messages_per_rank", msgs/fn, n)
	r.rep.set("coordinator.bytes_sent_per_rank", sent/fn, n)
	r.rep.set("coordinator.bytes_recv_per_rank", recv/fn, n)
	r.rep.set("coordinator.shards_reshipped_per_update", reshipped/float64(max(r.updates, 1)), r.updates)
	r.rep.set("coordinator.cache_hit_frac", hits/(hits+misses), n)
	r.rep.set("coordinator.digest_kb_per_rank", digest/1024/fn, n)
	r.rep.set("coordinator.retries", retries, n)
	r.rep.set("lmmrank.index_share", 0, n)
	st := r.eng.ServingStats()
	r.rep.set("lmmrank.coalesce_share", float64(st.CoalesceShared)/float64(st.Ranks), int(st.Ranks))
	r.rep.set("lmmrank.overload_share", float64(st.Overloads)/float64(st.Ranks), int(st.Ranks))

	probe := make([]request, 50)
	for i := range probe {
		probe[i] = r.query()
	}
	if err := allocProbe(r.rep, len(probe), func(i int) error {
		_, err := r.eng.Rank(context.Background(), probe[i].q)
		return err
	}); err != nil {
		return err
	}
	r.chk.attempt(len(probe))
	measureSpMV(r.rep, rp.rk)
	measureSiteGraph(r.rep, dg)
	measurePartition(r.rep, rp.rk, runtime.NumCPU())
	return measureWire(r.rep, rp.rk)
}

// verify checks the fleet against a cold reference LocalEngine on a
// replica of the served graph.
func (r *distRun) verify() error {
	ref, err := lmmrank.NewLocalEngine(r.mirror, lmmrank.EngineOptions{})
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	ctx := context.Background()
	vrng := rand.New(rand.NewSource(r.o.seed + 5))
	for _, q := range []lmmrank.Query{
		{TopK: topK},
		{TopK: topK, SitePersonalization: freshVector(vrng, r.mirror.NumSites())},
	} {
		res, err := r.eng.Rank(ctx, q)
		r.chk.attempt(1)
		if err != nil {
			r.chk.fail("verify rank: %v", err)
			continue
		}
		r.chk.result(res, topK)
		want, err := ref.Rank(ctx, q)
		if err != nil {
			return fmt.Errorf("reference rank: %w", err)
		}
		r.chk.compare("dist", l1(res.DocRank, want.DocRank), exactTol)
	}
	return nil
}
