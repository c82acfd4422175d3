package worker

import (
	"container/list"
	"sync"

	"lmmrank/internal/dist/wire"
	"lmmrank/internal/graph"
	"lmmrank/internal/lmm"
	"lmmrank/internal/matrix"
)

// cacheEntry is one cached shard: the rebuilt local subgraph, its row of
// the site chain, and a lazily built solver whose scratch is reused by
// every RankLocal that hits this entry. Entries are immutable after
// construction except for the solver, which mu guards — two sessions
// (two coordinators sharing the worker) may rank the same entry
// concurrently, and the solver is not goroutine-safe.
type cacheEntry struct {
	digest  wire.Digest
	numDocs int
	sub     *graph.Digraph
	rowCols []int
	rowVals []float64
	// refs counts the session site bindings to this entry (guarded by
	// shardCache.mu; see rebind).
	refs int

	mu     sync.Mutex
	solver *lmm.SubgraphSolver
}

// rank computes the entry's local DocRank, building the solver on first
// use and cloning the result out of the solver's scratch (the clone is
// what crosses sessions and the wire; the scratch stays entry-private).
func (e *cacheEntry) rank(cfg lmm.WebConfig) (matrix.Vector, int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.solver == nil {
		e.solver = lmm.NewSubgraphSolver(e.sub)
	}
	scores, iters, err := e.solver.Rank(cfg)
	if err != nil {
		return nil, 0, err
	}
	return scores.Clone(), iters, nil
}

// shardCache is the worker-global digest-keyed store that makes
// repeated coordinator runs cheap: shards (and site chains) survive
// KindReset and even coordinator reconnects, so an unchanged graph is
// never re-shipped and its solvers keep their warm scratch.
//
// Shard retention is bounded by aggregate document count (maxDocs) with
// least-recently-used eviction; chains by entry count. Evicting an
// entry does not invalidate sessions already holding it — they keep
// their pointer — it only stops future Offer hits.
type shardCache struct {
	mu        sync.Mutex
	shards    map[wire.Digest]*list.Element // values: *cacheEntry
	shardLRU  *list.List                    // front = most recently used
	totalDocs int
	maxDocs   int

	chains    map[wire.Digest]*list.Element // values: *chainEntry
	chainLRU  *list.List
	maxChains int
}

// chainEntry pairs a validated site chain with its digest.
type chainEntry struct {
	digest wire.Digest
	chain  *wire.SiteChain
}

func newShardCache() *shardCache {
	return &shardCache{
		shards:    make(map[wire.Digest]*list.Element),
		shardLRU:  list.New(),
		maxDocs:   wire.MaxShardDocs,
		chains:    make(map[wire.Digest]*list.Element),
		chainLRU:  list.New(),
		maxChains: 4,
	}
}

// lookupShard returns the cached entry for digest (touching its LRU
// position) or nil.
func (c *shardCache) lookupShard(d wire.Digest) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.shards[d]
	if !ok {
		return nil
	}
	c.shardLRU.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// addShard caches the entry under its digest, evicting least-recently
// used entries until the document budget holds. An entry already cached
// under the same digest is returned instead (the caller's duplicate is
// dropped), so identical shards across sites and sessions share one
// subgraph and one warm solver.
func (c *shardCache) addShard(e *cacheEntry) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.shards[e.digest]; ok {
		c.shardLRU.MoveToFront(el)
		return el.Value.(*cacheEntry)
	}
	c.shards[e.digest] = c.shardLRU.PushFront(e)
	c.totalDocs += e.numDocs
	for c.totalDocs > c.maxDocs && c.shardLRU.Len() > 1 {
		oldest := c.shardLRU.Back()
		old := oldest.Value.(*cacheEntry)
		c.shardLRU.Remove(oldest)
		delete(c.shards, old.digest)
		c.totalDocs -= old.numDocs
	}
	return e
}

// lookupChain returns the cached chain for digest (touching LRU) or nil.
func (c *shardCache) lookupChain(d wire.Digest) *wire.SiteChain {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.chains[d]
	if !ok {
		return nil
	}
	c.chainLRU.MoveToFront(el)
	return el.Value.(*chainEntry).chain
}

// addChain caches a validated chain, keeping at most maxChains.
func (c *shardCache) addChain(d wire.Digest, chain *wire.SiteChain) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.chains[d]; ok {
		c.chainLRU.MoveToFront(el)
		return
	}
	c.chains[d] = c.chainLRU.PushFront(&chainEntry{digest: d, chain: chain})
	for c.chainLRU.Len() > c.maxChains {
		oldest := c.chainLRU.Back()
		c.chainLRU.Remove(oldest)
		delete(c.chains, oldest.Value.(*chainEntry).digest)
	}
}

// rebind records that a session's site moved from hosting prev (nil if
// the site was unbound) to hosting e. A replaced entry that no session
// binds any more holds content its site has moved past — the graph
// changed under it — so it leaves the cache at once. Left to the LRU,
// whose document budget is sized for the largest legal load, every
// graph update would strand one superseded shard and its solver in
// memory. Entries whose sessions merely ended stay cached: that is what
// keeps a rejoining coordinator's re-ship near zero.
func (c *shardCache) rebind(prev, e *cacheEntry) {
	if prev == e {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e.refs++
	if prev == nil {
		return
	}
	prev.refs--
	if prev.refs > 0 {
		return
	}
	// The digest may name a newer entry with the same content (prev was
	// evicted and re-shipped); only prev itself goes.
	if el, ok := c.shards[prev.digest]; ok && el.Value.(*cacheEntry) == prev {
		c.shardLRU.Remove(el)
		delete(c.shards, prev.digest)
		c.totalDocs -= prev.numDocs
	}
}

// release drops a closed session's bindings without evicting anything.
func (c *shardCache) release(bound map[int]*cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range bound {
		e.refs--
	}
}

// gauges reports the cache's current occupancy for Stats.
func (c *shardCache) gauges() (entries, docs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shardLRU.Len(), c.totalDocs
}
