package coordinator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
	"lmmrank/internal/pagerank"
)

// run is the state of one distributed ranking: the immutable per-site
// shard payloads, and the mutable fleet view (who is alive, who owns
// which site) that loss recovery rewrites mid-flight.
type run struct {
	c     *Coordinator
	ctx   context.Context
	cfg   Config
	rk    *lmm.Ranker
	ns    int
	stats *Stats
	// memoize marks runs over a caller-held Ranker (RankPrepared):
	// only those may usefully populate the coordinator's shard memo —
	// a one-shot Rank's throwaway Ranker can never hit again, and
	// storing it would both pin the payloads and evict a warm memo.
	memoize bool
	// locals are the memo entry's local DocRank slots (see
	// preparedShards.locals) when this run may read and fill them: a
	// memoized run at the default damping, tolerance and budget. nil
	// otherwise, and the fleet then solves every site.
	locals []matrix.Vector
	// tele is the normalized site-layer teleport (nil = uniform), shared
	// by every SiteRank mode so central, unbatched and batched runs
	// apply the same personalization vector.
	tele matrix.Vector

	// Per-site payloads, built once from the Ranker's precomputation.
	shards []wire.SiteShard
	refs   []wire.ShardRef
	sizes  []int
	// chain is the replicated site chain (round batching only).
	chain    *wire.SiteChain
	chainRef wire.Digest

	// Fleet view. alive/owner/load change on loss; initialized and
	// hasChain record which peers completed their first Load (and hold
	// the chain), so recovery shipments skip the Reset and the chain.
	alive       []bool
	nAlive      int
	owner       []int
	load        []int
	initialized []bool
	hasChain    []bool
	budget      int

	// Re-admission (RetryPolicy.MaxRedials > 0). A redialer goroutine
	// per lost worker delivers fresh connections on rejoinCh; the
	// sequential phase code admits them at loop heads — safe points
	// where no partial results are in flight. redialing marks workers
	// with an active redialer (sequential access only); rejoining marks
	// workers mid-readmission for shipTo's byte accounting (r.mu).
	rejoinCh   chan rejoin
	redialStop chan struct{}
	redialWG   sync.WaitGroup
	redialing  []bool
	rejoining  map[int]bool
	inReadmit  bool

	// mu guards stats mutations from the concurrent per-worker
	// shipments (phase bookkeeping is otherwise sequential), and the
	// rejoining set they read.
	mu sync.Mutex
}

// rejoin is one successfully redialed worker awaiting re-admission.
type rejoin struct {
	idx  int
	conn net.Conn
}

// rankPrepared runs one ranking; the caller holds runMu. memoize marks
// runs whose Ranker the caller retains (see run.memoize).
func (c *Coordinator) rankPrepared(ctx context.Context, rk *lmm.Ranker, cfg Config, memoize bool) (*Result, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, errors.New("coordinator: closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A Ranker whose graph mutated after precomputation would ship stale
	// shards (and, via the digest memo, stale digests); refuse exactly
	// like the in-process query paths do. Recover with lmm.Ranker.Rebuild
	// + RefreshPrepared, or DistEngine.Update, which does both.
	if rk.Stale() {
		return nil, fmt.Errorf("coordinator: %w", lmm.ErrGraphMutated)
	}
	// Validate damping up front so the distributed SiteRank path rejects
	// bad values exactly like the central pagerank path does.
	if f := cfg.damping(); f <= 0 || f >= 1 {
		return nil, fmt.Errorf("coordinator: %w: damping %g outside (0,1)", pagerank.ErrBadConfig, f)
	}
	if cfg.SiteRank < SiteRankAuto || cfg.SiteRank > SiteRankAsync {
		return nil, fmt.Errorf("coordinator: %w: unknown SiteRank mode %d", pagerank.ErrBadConfig, int(cfg.SiteRank))
	}
	mode := cfg.mode()
	if cfg.ThreeLayer {
		if mode.distributed() {
			return nil, fmt.Errorf("coordinator: %w: ThreeLayer computes its site weights centrally and cannot combine with a distributed SiteRank mode", pagerank.ErrBadConfig)
		}
		if cfg.SitePersonalization != nil {
			return nil, fmt.Errorf("coordinator: %w: ThreeLayer replaces the site layer and cannot combine with SitePersonalization", pagerank.ErrBadConfig)
		}
	}

	startMsgs, startOut, startIn := c.counters.Messages(), c.counters.BytesSent(), c.counters.BytesReceived()
	res := &Result{}
	dg := rk.DocGraph()

	r := &run{
		c:           c,
		ctx:         ctx,
		cfg:         cfg,
		rk:          rk,
		ns:          dg.NumSites(),
		stats:       &res.Stats,
		memoize:     memoize,
		alive:       make([]bool, len(c.workers)),
		load:        make([]int, len(c.workers)),
		initialized: make([]bool, len(c.workers)),
		hasChain:    make([]bool, len(c.workers)),
		budget:      cfg.Retry.MaxWorkerFailures,
	}
	if cfg.SitePersonalization != nil {
		if len(cfg.SitePersonalization) != r.ns {
			return nil, fmt.Errorf("coordinator: %w: site personalization length %d vs %d sites",
				pagerank.ErrBadConfig, len(cfg.SitePersonalization), r.ns)
		}
		if !cfg.SitePersonalization.IsDistribution(1e-6) {
			return nil, fmt.Errorf("coordinator: %w: site personalization is not a probability distribution",
				pagerank.ErrBadConfig)
		}
		r.tele = cfg.SitePersonalization.Clone().Normalize()
	}
	for i, w := range c.workers {
		if !w.isBroken() {
			r.alive[i] = true
			r.nAlive++
		}
	}
	if r.nAlive == 0 {
		return nil, errors.New("coordinator: no live workers (every connection is broken)")
	}
	// Arm re-admission before the first shipment: a worker that died in
	// an earlier run (or dies in this one) is redialed in the background
	// and folded back in at the next phase boundary.
	r.startRedialers()
	defer r.stopRedialers()

	// Partition and ship: the configured strategy (or pinned
	// assignment) places sites over the live fleet, delivered through
	// the workers' digest caches.
	loadStart := time.Now()
	r.buildShards()
	r.owner = r.assignOwners()
	r.computeCutStats()
	need := make(map[int]struct{}, r.ns)
	for s := 0; s < r.ns; s++ {
		need[s] = struct{}{}
	}
	if err := r.ship(need); err != nil {
		return nil, err
	}
	res.Stats.LoadDuration = time.Since(loadStart)

	// Step 3 on the fleet: local DocRanks.
	localStart := time.Now()
	localRanks, localIters, err := r.localPhase(dg)
	if err != nil {
		return nil, err
	}
	res.Stats.LocalRankDuration = time.Since(localStart)

	// Step 4: the upper layer(s) — three-layer weights, central SiteRank,
	// decentralized one-round-at-a-time, or decentralized with round
	// batching.
	siteStart := time.Now()
	var siteRank matrix.Vector
	switch {
	case cfg.ThreeLayer:
		tl, err := rk.ThreeLayerWeights(cfg.DomainOf, lmm.WebConfig{
			Damping: cfg.Damping,
			Tol:     cfg.Tol,
			MaxIter: cfg.MaxIter,
			Ctx:     ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("coordinator: %w", err)
		}
		// ThreeLayerWeights allocates fresh vectors — no cloning needed.
		siteRank = tl.SiteWeights
		res.Domains = tl.Domains
		res.DomainRank = tl.DomainRank
		res.DomainOfSite = tl.DomainOfSite
		res.SiteEntry = tl.SiteEntry
	case mode == SiteRankCentral:
		scores, rounds, err := rk.RankSites(lmm.WebConfig{
			Damping:             cfg.Damping,
			Tol:                 cfg.Tol,
			MaxIter:             cfg.MaxIter,
			SitePersonalization: r.tele,
			Ctx:                 ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("coordinator: %w", err)
		}
		// RankSites aliases the Ranker's scratch; the Result outlives
		// this run, so copy the small site vector out.
		siteRank = scores.Clone()
		res.Stats.SiteRankRounds = rounds
	case mode == SiteRankBatched:
		var rounds int
		siteRank, rounds, err = r.batchedSiteRank()
		if err != nil {
			return nil, err
		}
		res.Stats.SiteRankRounds = rounds
	case mode == SiteRankAsync:
		var rounds int
		siteRank, rounds, err = r.asyncSiteRank()
		if err != nil {
			return nil, err
		}
		res.Stats.SiteRankRounds = rounds
	default:
		var rounds int
		siteRank, rounds, err = r.distributedSiteRank()
		if err != nil {
			return nil, err
		}
		res.Stats.SiteRankRounds = rounds
	}
	res.Stats.SiteRankDuration = time.Since(siteStart)

	// Step 5: composition by the Partition Theorem, shared with the
	// in-process pipeline.
	res.SiteRank = siteRank
	res.DocRank = lmm.ComposeDocRank(dg, siteRank, localRanks)
	if r.locals != nil {
		// The memo keeps its vectors; the caller gets copies.
		for s, v := range localRanks {
			localRanks[s] = v.Clone()
		}
	}
	res.LocalRanks = localRanks
	res.LocalIterations = localIters

	res.Stats.Messages = c.counters.Messages() - startMsgs
	res.Stats.BytesSent = c.counters.BytesSent() - startOut
	res.Stats.BytesReceived = c.counters.BytesReceived() - startIn
	return res, nil
}

// buildShards materializes every site's wire payload from the Ranker's
// precomputed subgraphs, plus each shard's content digest for the cache
// negotiation. Site-chain rows ride inside the shards only when a
// row-partitioned SiteRank (synchronous one-round-at-a-time or
// asynchronous sweeps) will consume them; round batching ships the
// whole chain separately instead, and central mode ships no site-layer
// data at all.
//
// The payloads are memoized on the Coordinator per (Ranker, protocol
// shape), LRU-bounded across several prepared graphs: a warm
// RankPrepared run reuses every edge list and SHA-256 digest instead of
// recomputing them — Stats.DigestBytesHashed stays at zero — and, at the
// default solver parameters, every local DocRank the fleet already
// returned; this is sound because a Ranker's graph is immutable by
// contract (mutation is detected and refused upstream). An entry
// migrated across an incremental Rebuild by RefreshPrepared is partial:
// only its dirty slots (and the small site chain) are rebuilt and
// re-hashed here, so churn costs digest work proportional to what
// changed.
func (r *run) buildShards() {
	mode := r.cfg.mode()
	wantRows := mode == SiteRankSync || mode == SiteRankAsync
	withChain := mode == SiteRankBatched
	p := r.c.lookupPrep(r.rk, wantRows, withChain)
	if p != nil && p.complete() {
		r.use(p)
		return
	}
	if p == nil {
		p = &preparedShards{
			rk: r.rk, wantRows: wantRows, withChain: withChain,
			shards: make([]wire.SiteShard, r.ns),
			refs:   make([]wire.ShardRef, r.ns),
			sizes:  make([]int, r.ns),
			built:  make([]bool, r.ns),
			locals: make([]matrix.Vector, r.ns),
		}
	}

	sg := r.rk.SiteGraph()
	for s := 0; s < r.ns; s++ {
		if p.built[s] {
			continue
		}
		sub, _ := r.rk.LocalSubgraph(graph.SiteID(s))
		shard := wire.SiteShard{Site: s, NumDocs: sub.NumNodes()}
		sub.EachEdgeAll(func(from int, e graph.Edge) {
			shard.Edges = append(shard.Edges, wire.Edge{From: from, To: e.To, Weight: e.Weight})
		})
		if wantRows {
			if total := sg.G.OutWeight(s); total > 0 {
				sg.G.EachEdge(s, func(e graph.Edge) {
					shard.RowCols = append(shard.RowCols, e.To)
					shard.RowVals = append(shard.RowVals, e.Weight/total)
				})
			}
		}
		p.shards[s] = shard
		p.refs[s] = wire.ShardRef{Site: s, Digest: shard.ContentDigest()}
		p.sizes[s] = shard.NumDocs
		p.built[s] = true
		r.stats.DigestBytesHashed += shard.DigestInputBytes()
	}
	if withChain && p.chain == nil {
		chain := &wire.SiteChain{NumSites: r.ns, RowPtr: make([]int, r.ns+1)}
		for s := 0; s < r.ns; s++ {
			if total := sg.G.OutWeight(s); total > 0 {
				sg.G.EachEdge(s, func(e graph.Edge) {
					chain.Cols = append(chain.Cols, e.To)
					chain.Vals = append(chain.Vals, e.Weight/total)
				})
			}
			chain.RowPtr[s+1] = len(chain.Cols)
		}
		p.chain = chain
		p.chainRef = chain.ContentDigest()
		r.stats.DigestBytesHashed += chain.DigestInputBytes()
	}
	r.use(p)
	if r.memoize {
		r.c.storePrep(p)
	}
}

// use points the run at a memo entry's payloads, and at its local
// DocRank slots when the run may reuse them.
func (r *run) use(p *preparedShards) {
	r.shards, r.refs, r.sizes = p.shards, p.refs, p.sizes
	r.chain, r.chainRef = p.chain, p.chainRef
	if r.memoize && r.cfg.defaultSolve() {
		r.locals = p.locals
	}
}

// aliveIdxs returns the live fleet indices in ascending order — the
// fixed reduce order that keeps float summation deterministic.
func (r *run) aliveIdxs() []int {
	idxs := make([]int, 0, r.nAlive)
	for i, a := range r.alive {
		if a {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// lightestAlive returns the live worker with the least assigned
// document load (ties toward the lower index).
func (r *run) lightestAlive() int {
	best := -1
	for i, a := range r.alive {
		if !a {
			continue
		}
		if best < 0 || r.load[i] < r.load[best] {
			best = i
		}
	}
	return best
}

// lose marks worker idx dead for the rest of the run, charges the retry
// budget, and (when reassign is set) moves every site it owned to the
// lightest surviving workers. It returns the moved sites — the caller
// re-ships and re-runs exactly those. Batched SiteRank failover passes
// reassign=false: the chain is replicated, so nothing needs to move.
// Callers must invoke lose sequentially (after joining a parallel
// wave), never from inside one.
func (r *run) lose(idx int, cause error, reassign bool) (map[int]struct{}, error) {
	if !r.alive[idx] {
		// A second failure report for the same wave (e.g. two phases
		// racing is impossible, but two calls in one wave are not).
		return nil, nil
	}
	r.alive[idx] = false
	r.nAlive--
	r.stats.WorkersLost++
	addr := r.c.workers[idx].addr
	if r.budget <= 0 {
		return nil, fmt.Errorf("coordinator: worker %s lost with retry budget exhausted (RetryPolicy.MaxWorkerFailures=%d): %w",
			addr, r.cfg.Retry.MaxWorkerFailures, cause)
	}
	r.budget--
	if r.nAlive == 0 {
		return nil, fmt.Errorf("coordinator: all workers lost: %w", cause)
	}
	r.spawnRedialer(idx)
	if !reassign {
		return nil, nil
	}
	moved := make(map[int]struct{})
	for s, w := range r.owner {
		if w != idx {
			continue
		}
		nw := r.lightestAlive()
		r.owner[s] = nw
		r.load[nw] += r.sizes[s]
		moved[s] = struct{}{}
		r.stats.Reassignments++
	}
	r.load[idx] = 0
	return moved, nil
}

// startRedialers arms the re-admission machinery when the policy asks
// for it, spawning a redialer for every worker already broken when the
// run began (a peer that died in a previous run gets its chance back
// too, not just mid-run casualties).
func (r *run) startRedialers() {
	if r.cfg.Retry.MaxRedials <= 0 {
		return
	}
	r.rejoinCh = make(chan rejoin, len(r.c.workers))
	r.redialStop = make(chan struct{})
	r.redialing = make([]bool, len(r.c.workers))
	r.rejoining = make(map[int]bool)
	for i, a := range r.alive {
		if !a {
			r.spawnRedialer(i)
		}
	}
}

// spawnRedialer starts the background redial loop for a lost worker:
// jittered exponential backoff between attempts, at most MaxRedials
// attempts, delivering at most one fresh connection to rejoinCh. Called
// only from the sequential phase code (run start, lose, readmit).
func (r *run) spawnRedialer(idx int) {
	if r.rejoinCh == nil || r.redialing[idx] {
		return
	}
	r.redialing[idx] = true
	addr := r.c.workers[idx].addr
	pol := r.cfg.Retry
	r.redialWG.Add(1)
	go func() {
		defer r.redialWG.Done()
		for attempt := 0; attempt < pol.MaxRedials; attempt++ {
			select {
			case <-time.After(backoffDelay(pol.redialBase(), pol.redialMax(), attempt)):
			case <-r.redialStop:
				return
			case <-r.ctx.Done():
				return
			}
			r.mu.Lock()
			r.stats.RedialAttempts++
			r.mu.Unlock()
			conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
			if err != nil {
				continue
			}
			// The channel holds one slot per worker and a worker has at
			// most one redialer, so this send never blocks.
			select {
			case r.rejoinCh <- rejoin{idx: idx, conn: conn}:
			default:
				conn.Close()
			}
			return
		}
	}()
}

// stopRedialers tears the re-admission machinery down at run end. A
// connection that arrived too late to be admitted into this run is not
// wasted: it is installed on the coordinator's remote, so the next run
// starts with the peer alive again.
func (r *run) stopRedialers() {
	if r.rejoinCh == nil {
		return
	}
	close(r.redialStop)
	r.redialWG.Wait()
	for {
		select {
		case rj := <-r.rejoinCh:
			r.c.mu.Lock()
			closed := r.c.closed
			r.c.mu.Unlock()
			if closed {
				rj.conn.Close()
			} else {
				r.c.workers[rj.idx].reconnect(rj.conn, &r.c.counters)
			}
		default:
			return
		}
	}
}

// maybeReadmit admits any rejoined workers waiting on the channel. It
// is called at phase loop heads — the safe points where no partial
// results are in flight — and never reentrantly (a readmission's own
// shipping must not trigger another).
func (r *run) maybeReadmit() error {
	if r.rejoinCh == nil || r.inReadmit {
		return nil
	}
	r.inReadmit = true
	defer func() { r.inReadmit = false }()
	for {
		select {
		case rj := <-r.rejoinCh:
			if err := r.readmit(rj); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// readmit re-admits one redialed worker mid-run: probe the fresh
// connection, restore the worker to the fleet view, rebalance its
// ideal share of sites back to it (delivered through the digest-cache
// negotiation — a warm rejoiner re-ships ~0 bytes), and unload the
// moved sites from their interim owners so the unbatched power round
// never reduces a chain row twice.
func (r *run) readmit(rj rejoin) error {
	idx := rj.idx
	w := r.c.workers[idx]
	w.reconnect(rj.conn, &r.c.counters)
	// Probe before committing: a connection that dies immediately costs
	// a respawned redialer, not a loss-budget charge.
	if _, err := w.call(r.ctx, &wire.Request{Kind: wire.KindPing}, &r.c.counters, r.c.callTimeout()); err != nil {
		if errors.Is(err, errLost) {
			r.redialing[idx] = false
			r.spawnRedialer(idx)
			return nil
		}
		return err
	}
	r.redialing[idx] = false
	r.alive[idx] = true
	r.nAlive++
	r.initialized[idx] = false
	r.hasChain[idx] = false
	r.load[idx] = 0
	r.stats.WorkersRejoined++

	// Rebalance back: recompute the ideal placement over the restored
	// fleet and move exactly the sites whose ideal owner is the
	// rejoiner. Strategies are deterministic (and a pinned assignment
	// is fixed outright), so when the fleet's liveness returns to what
	// it was at run start these are precisely the sites the rejoiner
	// held before it died — warm in its digest cache.
	ideal := r.idealOwners()
	moved := make(map[int]struct{})
	prevOwner := make(map[int][]int)
	for s := 0; s < r.ns; s++ {
		if ideal[s] != idx || r.owner[s] == idx {
			continue
		}
		prev := r.owner[s]
		prevOwner[prev] = append(prevOwner[prev], s)
		r.load[prev] -= r.sizes[s]
		r.owner[s] = idx
		r.load[idx] += r.sizes[s]
		moved[s] = struct{}{}
	}
	r.mu.Lock()
	r.rejoining[idx] = true
	r.mu.Unlock()
	// ship also initializes a shardless rejoiner (Reset + Load carrying
	// the dimension, and the chain when batching), so it can serve
	// power rounds even when the ideal assignment hands it nothing.
	err := r.ship(moved)
	r.mu.Lock()
	delete(r.rejoining, idx)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return r.unloadFrom(prevOwner)
}

// unloadFrom drops the rebalanced-back sites from their interim
// owners' sessions (the digest caches keep the shards). A worker lost
// during its unload goes through the normal loss path — its remaining
// sites reassign and re-ship. The prevOwner map was captured before
// the rejoin ship, and that ship can itself lose the rejoiner and hand
// a moved site straight back to its interim owner — so each site is
// re-checked against the current assignment and never unloaded from
// the worker that owns it now.
func (r *run) unloadFrom(prevOwner map[int][]int) error {
	idxs := make([]int, 0, len(prevOwner))
	for idx := range prevOwner {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		if !r.alive[idx] {
			continue // a dead session is never polled; nothing to unload
		}
		sites := make([]int, 0, len(prevOwner[idx]))
		for _, s := range prevOwner[idx] {
			if r.owner[s] != idx {
				sites = append(sites, s)
			}
		}
		if len(sites) == 0 {
			continue
		}
		sort.Ints(sites)
		_, err := r.c.workers[idx].call(r.ctx, &wire.Request{Kind: wire.KindUnload, Sites: sites}, &r.c.counters, r.c.callTimeout())
		if err == nil {
			continue
		}
		if !errors.Is(err, errLost) {
			return err
		}
		moved, lerr := r.lose(idx, err, true)
		if lerr != nil {
			return lerr
		}
		if len(moved) > 0 {
			if serr := r.ship(moved); serr != nil {
				return serr
			}
		}
		r.stats.Retries++
	}
	return nil
}

// ship delivers the needed sites to their current owners and leaves
// every live worker initialized (a shardless worker still receives a
// Load so it learns the site-space dimension — and the chain, when
// batching). Worker losses during shipping reassign and loop until
// every needed shard has landed.
func (r *run) ship(need map[int]struct{}) error {
	for {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		pending := make(map[int][]int)
		for s := range need {
			pending[r.owner[s]] = append(pending[r.owner[s]], s)
		}
		for idx := range r.c.workers {
			if r.alive[idx] && !r.initialized[idx] {
				if _, ok := pending[idx]; !ok {
					pending[idx] = nil
				}
			}
		}
		if len(pending) == 0 {
			return nil
		}
		idxs := make([]int, 0, len(pending))
		for idx := range pending {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		errs := make([]error, len(idxs))
		var wg sync.WaitGroup
		for i, idx := range idxs {
			sites := pending[idx]
			sort.Ints(sites)
			wg.Add(1)
			go func(i, idx int, sites []int) {
				defer wg.Done()
				errs[i] = r.shipTo(idx, sites)
			}(i, idx, sites)
		}
		wg.Wait()
		for i, idx := range idxs {
			err := errs[i]
			if err == nil {
				r.initialized[idx] = true
				for _, s := range pending[idx] {
					delete(need, s)
				}
				continue
			}
			if !errors.Is(err, errLost) {
				return err
			}
			// Every site the dead worker owned — already delivered in an
			// earlier wave or still pending — moves to a survivor and
			// must ship (again) to its new owner on the next pass.
			moved, lerr := r.lose(idx, err, true)
			if lerr != nil {
				return lerr
			}
			for s := range moved {
				need[s] = struct{}{}
			}
			r.stats.Retries++
		}
	}
}

// shipTo delivers one worker's shard batch through the cache protocol:
// Reset on first contact, then Offer (which shards do you already
// hold?), then Load carrying only the misses in full. Entries evicted
// between the offer and the load come back in Response.Missing and are
// re-shipped in full immediately.
func (r *run) shipTo(idx int, sites []int) error {
	w := r.c.workers[idx]
	timeout := r.c.callTimeout()
	if !r.initialized[idx] {
		if _, err := w.call(r.ctx, &wire.Request{Kind: wire.KindReset}, &r.c.counters, timeout); err != nil {
			return err
		}
	}
	needChain := r.chain != nil && !r.hasChain[idx]
	refs := make([]wire.ShardRef, len(sites))
	for i, s := range sites {
		refs[i] = r.refs[s]
	}
	have := make(map[int]bool)
	chainHit := false
	if len(refs) > 0 || needChain {
		req := &wire.Request{Kind: wire.KindOffer, Refs: refs}
		if needChain {
			req.HasChain = true
			req.ChainDigest = r.chainRef
		}
		resp, err := w.call(r.ctx, req, &r.c.counters, timeout)
		if err != nil {
			return err
		}
		offered := make(map[int]bool, len(sites))
		for _, s := range sites {
			offered[s] = true
		}
		for _, s := range resp.HaveSites {
			if !offered[s] {
				return fmt.Errorf("coordinator: %s claims unoffered site %d in cache", w.addr, s)
			}
			have[s] = true
		}
		chainHit = needChain && resp.HaveChain
	}

	var full []wire.SiteShard
	var cached []wire.ShardRef
	for _, s := range sites {
		if have[s] {
			cached = append(cached, r.refs[s])
		} else {
			full = append(full, r.shards[s])
		}
	}
	req := &wire.Request{Kind: wire.KindLoad, NumSites: r.ns, Cached: cached}
	if err := r.packShards(req, full); err != nil {
		return err
	}
	if needChain {
		req.HasChain = true
		req.ChainDigest = r.chainRef
		if !chainHit {
			req.Chain = r.chain
		}
	}
	resp, err := w.call(r.ctx, req, &r.c.counters, timeout)
	if err != nil {
		return err
	}
	wasCached := make(map[int]bool, len(cached))
	for _, ref := range cached {
		wasCached[ref.Site] = true
	}
	for _, s := range resp.Missing {
		if !wasCached[s] {
			return fmt.Errorf("coordinator: %s reports un-requested site %d missing", w.addr, s)
		}
	}

	// Cache accounting: hits are the refs the worker honored, misses
	// everything shipped in full (now or in the eviction follow-up).
	r.mu.Lock()
	r.stats.CacheMisses += len(full) + len(resp.Missing)
	r.stats.CacheHits += len(cached) - len(resp.Missing)
	r.stats.ShardsReshipped += len(full) + len(resp.Missing)
	r.stats.ShardsReused += len(cached) - len(resp.Missing)
	if r.rejoining[idx] {
		// Shard payloads this re-admission had to move in full — ~0 for
		// a warm rejoiner, whose shards all hit its digest cache.
		for i := range full {
			r.stats.RejoinShardBytes += full[i].EstWireSize()
		}
		for _, s := range resp.Missing {
			r.stats.RejoinShardBytes += r.shards[s].EstWireSize()
		}
	}
	missing := make(map[int]bool, len(resp.Missing))
	for _, s := range resp.Missing {
		missing[s] = true
	}
	for _, ref := range cached {
		if !missing[ref.Site] {
			r.stats.ShardBytesSaved += r.shards[ref.Site].EstWireSize()
		}
	}
	if needChain {
		if chainHit && !resp.MissingChain {
			r.stats.CacheHits++
			r.stats.ShardBytesSaved += r.chain.EstWireSize()
		} else {
			r.stats.CacheMisses++
		}
	}
	r.mu.Unlock()

	if len(resp.Missing) > 0 || (needChain && resp.MissingChain) {
		req2 := &wire.Request{Kind: wire.KindLoad, NumSites: r.ns}
		var evicted []wire.SiteShard
		for _, s := range resp.Missing {
			evicted = append(evicted, r.shards[s])
		}
		if err := r.packShards(req2, evicted); err != nil {
			return err
		}
		if needChain && resp.MissingChain {
			req2.HasChain = true
			req2.ChainDigest = r.chainRef
			req2.Chain = r.chain
		}
		resp2, err := w.call(r.ctx, req2, &r.c.counters, timeout)
		if err != nil {
			return err
		}
		if len(resp2.Missing) > 0 || resp2.MissingChain {
			return fmt.Errorf("coordinator: %s rejected fully shipped shards as missing", w.addr)
		}
	}
	if r.chain != nil {
		r.hasChain[idx] = true
	}
	return nil
}

// packShards places the fully shipped shard batch into a KindLoad
// request — plainly, or flate-compressed when Config.Compress is on,
// recording raw vs compressed bytes. Called from concurrent per-worker
// shipments, hence the stats lock.
func (r *run) packShards(req *wire.Request, full []wire.SiteShard) error {
	if len(full) == 0 {
		return nil
	}
	if !r.cfg.Compress {
		req.Shards = full
		return nil
	}
	z, raw, err := wire.CompressShards(full)
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	req.ShardsZ = z
	r.mu.Lock()
	r.stats.ShardBytesRaw += uint64(raw)
	r.stats.ShardBytesCompressed += uint64(len(z))
	r.mu.Unlock()
	return nil
}

// localPhase gathers every site's local DocRank from its owner,
// re-ranking only reassigned sites when a worker dies mid-phase. A run
// with memo slots (r.locals) takes the filled ones as they are — those
// sites report 0 iterations — asks the fleet only for the rest, and
// fills their slots once every answer has checked out. The returned
// vectors then alias the memo.
func (r *run) localPhase(dg *graph.DocGraph) ([]matrix.Vector, []int, error) {
	localRanks := make([]matrix.Vector, r.ns)
	localIters := make([]int, r.ns)
	done := make([]bool, r.ns)
	for s, v := range r.locals {
		if v != nil {
			localRanks[s] = v
			done[s] = true
		}
	}
	for {
		if err := r.ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := r.maybeReadmit(); err != nil {
			return nil, nil, err
		}
		targets := make(map[int][]int)
		for s := 0; s < r.ns; s++ {
			if !done[s] {
				targets[r.owner[s]] = append(targets[r.owner[s]], s)
			}
		}
		if len(targets) == 0 {
			break
		}
		idxs := make([]int, 0, len(targets))
		for idx := range targets {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		resps := make([]*wire.Response, len(idxs))
		errs := make([]error, len(idxs))
		var wg sync.WaitGroup
		for i, idx := range idxs {
			wg.Add(1)
			go func(i, idx int) {
				defer wg.Done()
				resps[i], errs[i] = r.c.workers[idx].call(r.ctx, &wire.Request{
					Kind:    wire.KindRankLocal,
					Damping: r.cfg.Damping,
					Tol:     r.cfg.Tol,
					MaxIter: r.cfg.MaxIter,
					Sites:   targets[idx],
				}, &r.c.counters, r.c.callTimeout())
			}(i, idx)
		}
		wg.Wait()
		var lostIdxs []int
		for i, idx := range idxs {
			if err := errs[i]; err != nil {
				if errors.Is(err, errLost) {
					lostIdxs = append(lostIdxs, idx)
					continue
				}
				return nil, nil, err
			}
			want := make(map[int]bool, len(targets[idx]))
			for _, s := range targets[idx] {
				want[s] = true
			}
			got := 0
			for _, lr := range resps[i].Local {
				if lr.Site < 0 || lr.Site >= r.ns || !want[lr.Site] {
					return nil, nil, fmt.Errorf("coordinator: %s returned rank for site %d it was not asked for",
						r.c.workers[idx].addr, lr.Site)
				}
				if done[lr.Site] {
					continue
				}
				localRanks[lr.Site] = lr.Scores
				localIters[lr.Site] = lr.Iterations
				done[lr.Site] = true
				got++
			}
			if got != len(targets[idx]) {
				return nil, nil, fmt.Errorf("coordinator: %s answered %d of %d requested local ranks",
					r.c.workers[idx].addr, got, len(targets[idx]))
			}
		}
		// Re-ship only what the survivors will actually use: sites whose
		// local ranks are still pending, plus — in the modes where chain
		// rows ride inside the shards (synchronous unbatched and async) —
		// every moved site, since the power sweeps will need its row. In
		// central and batched modes a completed site's shard is dead
		// weight and stays unshipped.
		mode := r.cfg.mode()
		needRows := mode == SiteRankSync || mode == SiteRankAsync
		for _, idx := range lostIdxs {
			moved, lerr := r.lose(idx, errs[indexOf(idxs, idx)], true)
			if lerr != nil {
				return nil, nil, lerr
			}
			for s := range moved {
				if done[s] && !needRows {
					delete(moved, s)
				}
			}
			if len(moved) > 0 {
				if err := r.ship(moved); err != nil {
					return nil, nil, err
				}
			}
			r.stats.Retries++
		}
	}
	for s := 0; s < r.ns; s++ {
		want := dg.SiteSize(graph.SiteID(s))
		if localRanks[s] == nil && want > 0 {
			return nil, nil, fmt.Errorf("coordinator: no local rank received for site %d", s)
		}
		if len(localRanks[s]) != want {
			return nil, nil, fmt.Errorf("coordinator: site %d local rank has %d entries, want %d",
				s, len(localRanks[s]), want)
		}
	}
	for s, v := range r.locals {
		if v == nil {
			if localRanks[s] == nil {
				// An empty site's rank decodes as nil; keep it non-nil
				// so the slot reads as filled.
				localRanks[s] = matrix.Vector{}
			}
			r.locals[s] = localRanks[s]
		}
	}
	return localRanks, localIters, nil
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// distributedSiteRank runs the damped power method x' ← x'Mˆ(G_S)
// without ever holding M(G_S) product-side: each round, every worker
// returns the partial product over the rows it owns plus its dangling
// mass; the coordinator sums partials in fixed worker order (float
// determinism), applies the teleport correction exactly as the central
// pagerank.Operator does, and normalizes. The per-round exchange is a
// vector of N_S floats each way — the paper's small site-layer cost. A
// worker dying mid-round gets its rows reassigned (they ride inside the
// shards) and the round is redone against the surviving fleet.
func (r *run) distributedSiteRank() (matrix.Vector, int, error) {
	f := r.cfg.damping()
	tol := r.cfg.tol()
	maxIter := r.cfg.maxIter()
	uniform := 1.0 / float64(r.ns)

	x, startRound, ckpt, ckptDigest, err := r.resumeSiteRank(maxIter)
	if err != nil {
		return nil, 0, err
	}
	next := matrix.NewVector(r.ns)
	partials := make([][]float64, len(r.c.workers))
	dangling := make([]float64, len(r.c.workers))

	for round := startRound + 1; round <= maxIter; round++ {
		var idxs []int
		for {
			if err := r.ctx.Err(); err != nil {
				return nil, round - startRound, err
			}
			if err := r.maybeReadmit(); err != nil {
				return nil, round - startRound, err
			}
			idxs = r.aliveIdxs()
			resps := make([]*wire.Response, len(idxs))
			errs := make([]error, len(idxs))
			var wg sync.WaitGroup
			for i, idx := range idxs {
				wg.Add(1)
				go func(i, idx int) {
					defer wg.Done()
					resps[i], errs[i] = r.c.workers[idx].call(r.ctx, &wire.Request{
						Kind:     wire.KindPowerRound,
						NumSites: r.ns,
						X:        x,
					}, &r.c.counters, r.c.callTimeout())
				}(i, idx)
			}
			wg.Wait()
			var lostIdxs []int
			var lostErr error
			for i, idx := range idxs {
				if err := errs[i]; err != nil {
					if errors.Is(err, errLost) {
						lostIdxs = append(lostIdxs, idx)
						lostErr = err
						continue
					}
					return nil, round, err
				}
				if len(resps[i].Partial) != r.ns {
					return nil, round, fmt.Errorf("coordinator: %s returned partial of length %d, want %d",
						r.c.workers[idx].addr, len(resps[i].Partial), r.ns)
				}
				partials[idx] = resps[i].Partial
				dangling[idx] = resps[i].DanglingMass
			}
			if len(lostIdxs) == 0 {
				break
			}
			// Reassign the dead workers' rows and redo this round: the
			// surviving partials are from the same iterate, but the
			// reduce must cover every row exactly once.
			for _, idx := range lostIdxs {
				moved, lerr := r.lose(idx, lostErr, true)
				if lerr != nil {
					return nil, round, lerr
				}
				if len(moved) > 0 {
					if err := r.ship(moved); err != nil {
						return nil, round, err
					}
				}
			}
			r.stats.Retries++
		}

		// Reduce in worker order, then apply Mˆ's rank-one terms:
		// y = f·(x'M) + (f·danglingMass + (1−f)·Σx)·v, with v the
		// (possibly personalized) teleport distribution.
		next.Fill(0)
		var dangMass float64
		for _, idx := range idxs {
			next.AddScaled(1, partials[idx])
			dangMass += dangling[idx]
		}
		coeff := f*dangMass + (1-f)*x.Sum()
		if r.tele == nil {
			for t := range next {
				next[t] = f*next[t] + coeff*uniform
			}
		} else {
			for t := range next {
				next[t] = f*next[t] + coeff*r.tele[t]
			}
		}
		next.Normalize()
		residual := next.L1Diff(x)
		x, next = next, x
		if residual <= tol {
			if ckpt != nil {
				if err := ckpt.Clear(); err != nil {
					return nil, round - startRound, err
				}
			}
			return x, round - startRound, nil
		}
		if ckpt != nil && round%r.cfg.checkpointEvery() == 0 {
			if err := ckpt.Save(&CheckpointState{Digest: ckptDigest, Round: round, X: x}); err != nil {
				return nil, round - startRound, err
			}
		}
	}
	return x, maxIter - startRound, fmt.Errorf("coordinator: distributed siterank: %w after %d rounds",
		matrix.ErrNotConverged, maxIter)
}

// resumeSiteRank seeds the site-layer power iteration: from a
// checkpointed snapshot when one exists and its digest matches this
// computation — the resumed run then continues the exact float sequence
// the interrupted run was producing — or from the uniform vector. A
// snapshot from a different graph, mode or parameterization (digest
// mismatch), a malformed one, or one at or past the round budget is
// ignored rather than trusted.
func (r *run) resumeSiteRank(maxIter int) (x matrix.Vector, startRound int, ckpt Checkpoint, digest wire.Digest, err error) {
	x = matrix.Uniform(r.ns)
	if r.cfg.Checkpoint == nil {
		return x, 0, nil, digest, nil
	}
	ckpt = r.cfg.Checkpoint
	digest = r.checkpointDigest()
	st, err := ckpt.Load()
	if err != nil {
		return nil, 0, nil, digest, err
	}
	if st != nil && st.Digest == digest && st.valid() && len(st.X) == r.ns && st.Round < maxIter {
		x = append(matrix.Vector(nil), st.X...)
		startRound = st.Round
		r.stats.ResumedFromRound = st.Round
	}
	return x, startRound, ckpt, digest, nil
}

// batchedSiteRank drives the round-batched SiteRank: each exchange asks
// one live worker (rotating for load spread) to run up to BatchRounds
// damped power rounds against its replicated chain. K rounds cost one
// message instead of K×NumWorkers; a worker dying mid-batch is simply
// skipped — every peer holds the chain, so failover needs no
// reassignment and the batch restarts from the last confirmed iterate.
func (r *run) batchedSiteRank() (matrix.Vector, int, error) {
	maxIter := r.cfg.maxIter()
	batch := r.cfg.batchRounds()

	x, startRound, ckpt, ckptDigest, err := r.resumeSiteRank(maxIter)
	if err != nil {
		return nil, 0, err
	}
	rounds := startRound
	exchanges := 0
	cursor := 0
	for rounds < maxIter {
		if err := r.ctx.Err(); err != nil {
			return nil, rounds - startRound, err
		}
		if err := r.maybeReadmit(); err != nil {
			return nil, rounds - startRound, err
		}
		k := batch
		if rounds+k > maxIter {
			k = maxIter - rounds
		}
		idx := r.nextAlive(&cursor)
		resp, err := r.c.workers[idx].call(r.ctx, &wire.Request{
			Kind:     wire.KindBatchRounds,
			NumSites: r.ns,
			X:        x,
			V:        r.tele,
			Rounds:   k,
			Damping:  r.cfg.Damping,
			Tol:      r.cfg.Tol,
		}, &r.c.counters, r.c.callTimeout())
		if err != nil {
			if errors.Is(err, errLost) {
				// The chain is replicated: fail over to the next live
				// worker, no shard movement needed. The in-flight batch
				// is re-run from the last confirmed iterate.
				if _, lerr := r.lose(idx, err, false); lerr != nil {
					return nil, rounds, lerr
				}
				r.stats.Retries++
				continue
			}
			return nil, rounds, err
		}
		exchanges++
		if len(resp.X) != r.ns {
			return nil, rounds, fmt.Errorf("coordinator: %s returned iterate of length %d, want %d",
				r.c.workers[idx].addr, len(resp.X), r.ns)
		}
		if resp.Rounds < 1 || resp.Rounds > k || (resp.Rounds < k && !resp.Converged) {
			return nil, rounds, fmt.Errorf("coordinator: %s ran %d of %d batched rounds without converging",
				r.c.workers[idx].addr, resp.Rounds, k)
		}
		for _, v := range resp.X {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, rounds, fmt.Errorf("coordinator: %s returned a non-finite iterate", r.c.workers[idx].addr)
			}
		}
		x = resp.X
		rounds += resp.Rounds
		if resp.Converged {
			if ckpt != nil {
				if err := ckpt.Clear(); err != nil {
					return nil, rounds - startRound, err
				}
			}
			r.stats.BatchMessagesSaved = (rounds-startRound)*r.nAlive - exchanges
			return x, rounds - startRound, nil
		}
		// One exchange is the batched save cadence: it already covers up
		// to BatchRounds rounds, so CheckpointEvery's round granularity
		// is subsumed by the exchange grain.
		if ckpt != nil {
			if err := ckpt.Save(&CheckpointState{Digest: ckptDigest, Round: rounds, X: x}); err != nil {
				return nil, rounds - startRound, err
			}
		}
		cursor++
	}
	r.stats.BatchMessagesSaved = (rounds-startRound)*r.nAlive - exchanges
	return x, maxIter - startRound, fmt.Errorf("coordinator: distributed siterank: %w after %d rounds",
		matrix.ErrNotConverged, maxIter)
}

// nextAlive returns the next live worker at or after *cursor (mod the
// fleet), advancing the rotation. At least one worker is always alive —
// lose() errors out before the fleet can empty.
func (r *run) nextAlive(cursor *int) int {
	n := len(r.c.workers)
	for i := 0; i < n; i++ {
		idx := (*cursor + i) % n
		if r.alive[idx] {
			*cursor = idx
			return idx
		}
	}
	return -1
}
