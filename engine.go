package lmmrank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"lmmrank/internal/dist/coordinator"
	"lmmrank/internal/lmm"
	"lmmrank/internal/partition"
)

// Query is the unified serving request every Engine answers: one struct
// covers uniform rankings, site- and document-layer personalization
// (§3.2's two-layer personalization), top-k tables and the three-layer
// domain → site → page model. The zero value asks for the standard
// uniform two-layer ranking with default damping, tolerance and
// iteration budget.
type Query struct {
	// Tenant names the caller for admission accounting: with
	// EngineOptions.TenantQuota (or the DistConfig equivalent) set, each
	// distinct Tenant gets its own concurrency quota beneath the
	// engine-wide cap, so one flooding tenant exhausts only its own
	// slots. The empty string is itself a tenant (the "anonymous" one).
	// Tenant never affects the ranking answer and is excluded from the
	// coalescing fingerprint — queries from different tenants may share
	// one computation; each still receives its own copy.
	Tenant string
	// Damping is the PageRank damping factor / gatekeeper α. Zero is a
	// sentinel selecting the default 0.85 — an explicit damping of
	// exactly 0 cannot be requested, tiny positive values are honored.
	Damping float64
	// Tol and MaxIter bound every power-method run (0 = package
	// defaults).
	Tol     float64
	MaxIter int
	// SitePersonalization biases the site layer: the teleport
	// distribution over sites (length NumSites; nil = uniform).
	// Incompatible with ThreeLayer, which replaces the site layer.
	SitePersonalization Vector
	// DocPersonalization biases individual sites' document layers:
	// per-site teleport vectors in local-index order; missing sites use
	// uniform. Served by LocalEngine only — DistEngine rejects it with
	// ErrUnsupportedQuery (per-site teleports are not part of the wire
	// protocol).
	DocPersonalization map[SiteID]Vector
	// ThreeLayer selects the three-layer (domain → site → page) model;
	// DomainOf groups sites into domains (nil = the registrable-domain
	// default). The Result gains Domains, DomainRank, DomainOfSite and
	// SiteEntry, and its SiteRank holds the per-site composition
	// weights DomainRank·SiteEntry. A query with a non-nil DomainOf is
	// never coalesced (function identity is not fingerprintable).
	ThreeLayer bool
	DomainOf   func(siteName string) string
	// TopK, when positive, fills Result.Top with the k best documents
	// and their URLs in descending score order.
	TopK int
	// WantLocalRanks asks for Result.LocalRanks (each site's local
	// DocRank). Serving clients rarely need them; leaving this false
	// keeps the per-query copying to the global vectors.
	WantLocalRanks bool
}

// Result is a ranking answer. Every slice is freshly allocated and
// caller-owned: mutate it, retain it across queries, hand it to another
// goroutine — nothing aliases engine internals. (Scratch aliasing is an
// internal/ concern; it stops at this boundary.)
type Result struct {
	// DocRank is the global ranking per DocID, a probability
	// distribution.
	DocRank Vector
	// SiteRank is the site-layer distribution πS per SiteID — or, for a
	// ThreeLayer query, the per-site composition weights
	// DomainRank(dom(s))·SiteEntry(s).
	SiteRank Vector
	// Domains, DomainRank, DomainOfSite and SiteEntry carry the upper
	// layers of a ThreeLayer query (nil otherwise): the distinct domain
	// names in first-seen order, the top-layer distribution per domain
	// index, each site's domain index, and each site's entry
	// probability within its domain.
	Domains      []string
	DomainRank   Vector
	DomainOfSite []int
	SiteEntry    Vector
	// LocalRanks holds each site's local DocRank in local-index order;
	// filled only when Query.WantLocalRanks was set.
	LocalRanks []Vector
	// Top is the TopK table (nil when Query.TopK <= 0).
	Top []DocScore
	// SiteIterations and LocalIterations record the query's own
	// power-method work: site-layer iterations (or distributed rounds)
	// and per-site local iterations. A default-config query reuses the
	// engine's document layer, so every site it did not personalize
	// reports 0 local iterations — on LocalEngine the snapshot's layer,
	// on DistEngine the sites the fleet already solved for this graph —
	// and on LocalEngine so does the site layer of a uniform query.
	SiteIterations  int
	LocalIterations []int
	// Dist carries the transport/cache statistics of a distributed
	// query (nil for LocalEngine results).
	Dist *DistStats
}

// GraphDelta describes one batch of graph churn for Engine.Update: which
// sites' content changed, and the mutation itself.
//
// ChangedSites must list every site whose pages or links Apply changes —
// including links *from* its documents to other sites' documents; sites
// appended beyond the previous roster are implicitly changed. The
// layered decomposition makes this list the whole cost model: only the
// listed sites' subgraphs, transition matrices and solvers are rebuilt
// (and, distributedly, re-shipped), everything else is reused.
//
// Apply receives a copy-on-write working clone of the served graph —
// never the serving snapshot itself. The engine rebuilds off to the side
// and publishes the clone atomically, so in-flight queries keep reading
// the old, untouched graph. Mutate only the *dg passed in; a captured
// outer pointer still names the old serving graph, and every successful
// Update serves a new clone, so re-fetch the graph with DocGraph()
// afterwards. A nil Apply mutates nothing: the Update re-publishes the
// served graph with the listed sites rebuilt.
type GraphDelta struct {
	ChangedSites []SiteID
	Apply        func(dg *DocGraph) error
}

// Engine is the serving surface of the layered ranking model: one
// interface over the in-process and distributed backends. Rank answers
// one Query; implementations are safe for concurrent use, results are
// caller-owned, and a cancelled or expired context aborts the query
// mid-computation — between power iterations locally, between wire
// exchanges (or by interrupting a blocked one) distributedly —
// returning ctx.Err().
//
// Update makes graph churn a first-class serving operation, with one
// path on both backends: it applies a GraphDelta to a copy-on-write
// clone of the graph, rebuilds only the changed sites' precomputed
// structure, reuses whatever the backend can (locally only the changed
// sites' local DocRanks re-solve, clean sites keep theirs verbatim;
// distributed runs re-ship only the changed shards), and publishes the
// result as a new immutable snapshot with one atomic pointer store.
// Rank never waits for Update and Update never waits for Rank:
// in-flight queries — however slow — complete on the snapshot they
// started on, bit-identical to an uncontended run, and the first Rank
// after Update sees the new graph. A failed Update is always a no-op:
// nothing is published and the engine serves exactly as before.
//
// Mutating the served graph *outside* Update is detected: queries fail
// with ErrGraphMutated instead of silently serving stale rankings, and
// since the engine cannot know which sites such an edit touched, the
// next Update rebuilds every site.
type Engine interface {
	Rank(ctx context.Context, q Query) (*Result, error)
	Update(ctx context.Context, delta GraphDelta) error
}

// ErrUnsupportedQuery marks queries a backend cannot serve (e.g.
// document-layer personalization on the distributed engine). Check with
// errors.Is.
var ErrUnsupportedQuery = errors.New("lmmrank: unsupported query")

// EngineOptions fixes the graph-derivation, execution and admission
// choices an engine precomputes.
type EngineOptions struct {
	// SiteGraph controls SiteLink aggregation (§3.1), baked into the
	// precomputed structure.
	SiteGraph SiteGraphOptions
	// Parallelism caps the per-query local-DocRank fan-out
	// (0 = GOMAXPROCS). Concurrent serving under load usually wants 1 —
	// the cores are already busy answering distinct queries — while a
	// single caller wants the default.
	Parallelism int
	// MaxInFlight caps concurrently admitted Rank calls (0 = no cap).
	// Excess calls queue for a slot, honoring ctx cancellation — unless
	// RejectOverload is set, in which case they fail fast with
	// ErrOverloaded for the caller to shed or retry elsewhere.
	MaxInFlight    int
	RejectOverload bool
	// TenantQuota caps each Query.Tenant's concurrently admitted Rank
	// calls (0 = no keyed admission). The tenant slot is taken before
	// the engine-wide slot, so a tenant can never hold more than
	// TenantQuota of the MaxInFlight budget: size MaxInFlight ≥ the sum
	// of active tenants' quotas (or leave it 0) and no tenant can starve
	// another. Over-quota calls queue or fail fast per RejectOverload,
	// exactly as at the engine-wide gate.
	TenantQuota int
	// Coalesce merges concurrent identical queries: when several Rank
	// calls with the same fingerprint overlap, one computes and the
	// rest wait for it, each receiving its own caller-owned copy.
	// Queries with a custom DomainOf are never coalesced.
	Coalesce bool
	// CoalesceTol widens Coalesce from identical to *similar* queries:
	// personalization vectors are L1-normalized and bucketed to a grid
	// of step CoalesceTol/len(v), so two queries landing in the same
	// buckets share one solve. Personalized PageRank is 1-Lipschitz in
	// the L1 norm of its teleport vector, so every coalesced caller's
	// answer is within CoalesceTol (plus solver tolerance) of its exact
	// one. 0 (the default) coalesces only bit-identical vectors.
	CoalesceTol float64
	// TopKIndex adds per-site posting lists over each snapshot's shared
	// document layer (the default-config local DocRanks every engine
	// caches and reuses). The layer is solved at construction instead of
	// on the first query, each Update patches only the changed sites'
	// lists, and eligible TopK queries — two-layer, default
	// damping/tolerance/budget, no document-layer personalization, no
	// LocalRanks request — take their Top table from a threshold merge
	// over the lists instead of a selection over every document. The
	// table is bit-identical to selecting from the composed DocRank.
	// LocalEngine only; DistEngine ignores it (its snapshots hold no
	// local solutions to index — the fleet owns them).
	TopKIndex bool
}

// validate rejects query-shape combinations no backend serves, keeping
// the two engines' contracts identical. Malformed personalization
// vectors are rejected here, at the serving boundary, before admission,
// rather than left to the solvers: a NaN or infinity would otherwise
// surface as a solver failure deep inside the run — or, distributedly,
// propagate through a barrier-free merge unchecked — and a vector that
// is not a distribution would fail there with ErrBadConfig.
func (q Query) validate() error {
	if q.ThreeLayer && q.SitePersonalization != nil {
		return fmt.Errorf("%w: ThreeLayer replaces the site layer and cannot combine with SitePersonalization", ErrUnsupportedQuery)
	}
	if q.SitePersonalization != nil {
		if err := teleportable(q.SitePersonalization); err != nil {
			return fmt.Errorf("%w: SitePersonalization %s", ErrUnsupportedQuery, err)
		}
	}
	for site, v := range q.DocPersonalization {
		if err := teleportable(v); err != nil {
			return fmt.Errorf("%w: DocPersonalization[%d] %s", ErrUnsupportedQuery, site, err)
		}
	}
	return nil
}

// validateSites rejects document-layer personalization keyed by a site
// outside [0, numSites) of the graph the query is pinned to. The solvers
// walk their own sites and look each one up in the map, so such a key
// would never be read and the query would silently get the
// unpersonalized answer.
func (q Query) validateSites(numSites int) error {
	for site := range q.DocPersonalization {
		if site < 0 || int(site) >= numSites {
			return fmt.Errorf("%w: DocPersonalization names site %d, but the graph has %d sites",
				ErrUnsupportedQuery, site, numSites)
		}
	}
	return nil
}

// teleportTol is how far a personalization vector's mass may stray from
// 1 — the bound every solver (pagerank.Config, the coordinator) applies.
const teleportTol = 1e-6

// teleportable reports whether v can serve as a teleport bias: every
// entry finite and nonnegative, summing to 1 within teleportTol. The
// solvers demand a distribution; they only absorb rounding.
func teleportable(v Vector) error {
	var mass float64
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("entry %d is not finite", i)
		}
		if x < 0 {
			return fmt.Errorf("entry %d is negative", i)
		}
		mass += x
	}
	if mass == 0 {
		return errors.New("has no mass")
	}
	if math.Abs(mass-1) > teleportTol {
		return fmt.Errorf("sums to %g, not 1: personalization must be a probability distribution", mass)
	}
	return nil
}

// webConfig maps a Query onto the internal pipeline configuration.
func (q Query) webConfig(ctx context.Context, parallelism int) lmm.WebConfig {
	return lmm.WebConfig{
		Damping:             q.Damping,
		Tol:                 q.Tol,
		MaxIter:             q.MaxIter,
		SitePersonalization: q.SitePersonalization,
		DocPersonalization:  q.DocPersonalization,
		Parallelism:         parallelism,
		Ctx:                 ctx,
	}
}

// snapCore is the part of a serving snapshot the front itself reads,
// whichever backend built it: the graph, the Ranker precomputed for
// exactly that graph, and the in-flight table coalescing queries
// against it. Both backends' snapshots embed it.
type snapCore struct {
	dg      *DocGraph
	rk      *lmm.Ranker
	flights *flightGroup
}

func (c *snapCore) core() *snapCore { return c }

// snapshotPtr constrains a front's snapshot type S: *S exposes the
// snapCore it embeds.
type snapshotPtr[S any] interface {
	*S
	core() *snapCore
}

// backend is what an engine adds to the serving front: its own query
// phase and its own rebuild.
type backend[S any] interface {
	// reject refuses a valid query this backend cannot serve. It runs
	// before admission, so a refused query takes no slot and no count.
	reject(q Query) error
	// rank answers q against a pinned snapshot whose Ranker is current.
	rank(ctx context.Context, snap *S, q Query) (*Result, error)
	// rebuild builds the snapshot that follows cur over dg, rebuilding
	// the listed sites' structure. The front publishes only what it
	// returns, so a failed rebuild must leave nothing a later query or
	// Update could observe.
	rebuild(ctx context.Context, cur *S, dg *DocGraph, changed []SiteID) (*S, error)
}

// front is the serving front both engines embed: admission, the serving
// counters, coalescing, the snapshot pointer and the Update path, over a
// backend that supplies only rank and rebuild.
//
// Serving is lock-free multi-version: the whole serving state lives in
// one atomic pointer to an immutable snapshot. Rank loads it once and
// never looks back; Update builds the next snapshot off to the side and
// publishes it with a single store, so queries never block an Update
// and an Update never blocks a query.
type front[S any, P snapshotPtr[S]] struct {
	be          backend[S]
	admit       *admitGate
	coalesce    bool
	coalesceTol float64
	stats       servingCounters
	snap        atomic.Pointer[S]
	// updateMu serializes Updates against each other; queries never
	// take it.
	updateMu sync.Mutex
}

// publish makes snap the serving state. It gets a fresh flight table,
// so queries only ever coalesce onto work against their own snapshot.
func (f *front[S, P]) publish(snap *S) {
	c := P(snap).core()
	c.flights = newFlightGroup()
	c.flights.shared = &f.stats.coalesced
	f.snap.Store(snap)
}

// Rank answers one query. Safe for concurrent use; the result is
// caller-owned; a cancelled ctx aborts mid-computation with ctx.Err().
// A query neither engine serves, or this backend cannot, fails with
// ErrUnsupportedQuery before admission. With MaxInFlight or TenantQuota
// set the call then takes its admission slots (queueing, or failing with
// ErrOverloaded per RejectOverload); with Coalesce set it may share one
// computation with concurrent similar queries.
func (f *front[S, P]) Rank(ctx context.Context, q Query) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	if err := f.be.reject(q); err != nil {
		return nil, err
	}
	if err := f.admit.acquire(ctx, q.Tenant); err != nil {
		if errors.Is(err, ErrOverloaded) {
			f.stats.overload(q.Tenant)
		}
		return nil, err
	}
	defer f.admit.release(q.Tenant)
	f.stats.ranks.Add(1)
	// One load pins the whole serving state. An Update publishing
	// mid-query swaps the pointer for *later* queries; this one finishes
	// on the snapshot it started on.
	snap := f.snap.Load()
	c := P(snap).core()
	// Checked here rather than left to the backend: a query answered
	// from a cached document layer may never call into the Ranker, which
	// is where staleness would otherwise surface.
	if c.rk.Stale() {
		return nil, ErrGraphMutated
	}
	if err := q.validateSites(c.dg.NumSites()); err != nil {
		return nil, err
	}
	if f.coalesce {
		if key, ok := q.fingerprint(f.coalesceTol); ok {
			return c.flights.do(ctx, key, func() (*Result, error) {
				return f.be.rank(ctx, snap, q)
			})
		}
	}
	return f.be.rank(ctx, snap, q)
}

// Update applies one batch of graph churn and publishes the next
// serving snapshot: delta.Apply (if any) runs against a copy-on-write
// clone of the served graph, the backend rebuilds the changed sites
// against the clone, and one pointer store publishes the result.
// In-flight queries are never drained: they complete on the snapshot
// they started on while the rebuild proceeds beside them.
//
// If the served graph was mutated outside Update, the engine cannot
// know which sites the edit touched, so this Update rebuilds every site
// whatever delta.ChangedSites lists. A failed Update — Apply's error, a
// cancelled ctx, a rebuild error — publishes nothing: the engine serves
// exactly as before, and a pending out-of-band edit still forces the
// next Update to rebuild every site.
func (f *front[S, P]) Update(ctx context.Context, delta GraphDelta) error {
	f.updateMu.Lock()
	defer f.updateMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	cur := f.snap.Load()
	c := P(cur).core()
	work := c.dg.CloneCOW()
	if delta.Apply != nil {
		if err := delta.Apply(work); err != nil {
			return fmt.Errorf("lmmrank: update apply: %w", err)
		}
	}
	changed := delta.ChangedSites
	if c.rk.Stale() {
		changed = make([]SiteID, work.NumSites())
		for s := range changed {
			changed[s] = SiteID(s)
		}
	}
	next, err := f.be.rebuild(ctx, cur, work, changed)
	if err != nil {
		return err
	}
	f.publish(next)
	return nil
}

// DocGraph returns the graph this engine currently serves. Every
// successful Update publishes a new copy-on-write clone, so the pointer
// changes across Updates — re-fetch it after updating rather than
// caching the construction-time pointer.
func (f *front[S, P]) DocGraph() *DocGraph { return P(f.snap.Load()).core().dg }

// ServingStats returns a point-in-time copy of the engine's cumulative
// serving counters: admitted queries, admission rejections (total and
// per tenant), coalesced shares and top-k index serves (always 0 on
// DistEngine, which keeps no index).
func (f *front[S, P]) ServingStats() ServingStats { return f.stats.snapshot() }

// docLayer is the default-configuration document layer of one serving
// snapshot: the uniform SiteRank and every site's local DocRank at the
// default damping, tolerance and iteration budget. By the Partition
// Theorem a site's local DocRank depends only on that site's subgraph,
// so these vectors serve every default-config query on the snapshot —
// site-layer personalization and the three-layer model only re-weight
// them, and document-layer personalization replaces just the listed
// sites. Immutable once published; an Update's layer shares clean
// sites' vectors with its predecessor by pointer.
type docLayer struct {
	site   Vector
	locals []Vector
	// seed marks a layer solved at construction or by an Update refresh:
	// its vectors then also warm-start whatever a query still solves. A
	// layer filled lazily by a query seeds nothing, so every answer
	// before the first Update is bit-identical to a fresh cold solve.
	seed bool
}

// engineSnapshot is one immutable serving state of a LocalEngine: the
// snapCore (graph, Ranker, flight table), the pooled scratch-private
// clones of the Ranker, and the document layer solved on that graph.
// Everything a query touches lives here, so a query that loaded a
// snapshot is completely insulated from any later Update.
type engineSnapshot struct {
	snapCore
	pool *sync.Pool
	// topk is the maintained top-k index over the layer's locals (nil
	// unless EngineOptions.TopKIndex): immutable like everything else
	// here, and sharing clean sites' posting lists with the previous
	// snapshot.
	topk *topkIndex
	// layer is set when the snapshot is built by construction of an
	// index engine or by an Update; otherwise the first query that can
	// use it fills it. fill is a one-slot semaphore serializing that
	// fill; waiting on it honors the waiter's ctx.
	layer atomic.Pointer[docLayer]
	fill  chan struct{}
}

func newEngineSnapshot(dg *DocGraph, rk *lmm.Ranker, layer *docLayer, topk *topkIndex) *engineSnapshot {
	snap := &engineSnapshot{
		snapCore: snapCore{dg: dg, rk: rk},
		pool:     newRankerPool(rk),
		topk:     topk,
		fill:     make(chan struct{}, 1),
	}
	if layer != nil {
		snap.layer.Store(layer)
	}
	return snap
}

// LocalEngine serves queries from one process: an lmm.Ranker core
// (SiteGraph, subgraphs, CSR matrices, dangling lists) precomputed once
// at construction, fronted by a sync.Pool of scratch-private Rankers.
// Concurrent goroutines serve in parallel — each Rank loads the current
// snapshot, borrows a pooled Ranker, runs the query phase against the
// shared immutable core, copies the result out and returns the scratch.
//
// Each snapshot owns its document layer: the default-config local
// DocRanks are solved once per snapshot (on the first query that can
// use them, or by the Update that built it) and every default-config
// query — uniform, site- or document-personalized, three-layer — solves
// only the site layer and the sites it personalizes, then composes over
// the cached vectors. Queries with a custom damping, tolerance or
// iteration budget solve every layer.
//
// Update refreshes that layer: only the changed sites' structure
// rebuilds and only their local DocRanks re-solve (warm-started from the
// previous layer), every clean site keeps its vector verbatim, and the
// site layer re-solves warm. Rankings served after Update agree with a
// cold rebuild to solver tolerance (pinned < 1e-9 in the tests). An
// index engine additionally patches only the changed sites' posting
// lists. MaxInFlight/RejectOverload add an admission cap in front and
// Coalesce folds concurrent identical queries into one computation (see
// EngineOptions).
type LocalEngine struct {
	front[engineSnapshot, *engineSnapshot]
	parallelism int
}

var _ Engine = (*LocalEngine)(nil)

// newRankerPool wraps a prepared Ranker in a pool of scratch-private
// Share() clones — the pool lives inside one snapshot, so stale scratch
// can never serve a rebuilt core.
func newRankerPool(base *lmm.Ranker) *sync.Pool {
	return &sync.Pool{New: func() any { return base.Share() }}
}

// NewLocalEngine validates dg and precomputes the serving structure:
// the SiteGraph and every local subgraph with their transition matrices
// and PageRank chains, built eagerly (in parallel) so that queries only
// ever read shared state. The graph is captured by reference; change it
// through Update (or build a new engine) — a mutation outside Update
// turns every later query into ErrGraphMutated until the next Update.
// After an Update the engine serves an evolved copy of the graph; read
// it back with DocGraph().
func NewLocalEngine(dg *DocGraph, opts EngineOptions) (*LocalEngine, error) {
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{SiteGraph: opts.SiteGraph})
	if err != nil {
		return nil, err
	}
	rk.Prepare()
	e := &LocalEngine{parallelism: opts.Parallelism}
	e.be = e
	e.admit = newAdmitGate(opts.MaxInFlight, opts.TenantQuota, opts.RejectOverload)
	e.coalesce, e.coalesceTol = opts.Coalesce, opts.CoalesceTol
	var (
		layer *docLayer
		topk  *topkIndex
	)
	if opts.TopKIndex {
		// The index needs a document layer to index, so an index engine
		// front-loads the layer to construction time; a plain engine
		// leaves it to the first query that can use it.
		layer, err = e.solveLayer(context.Background(), rk, nil, nil)
		if err != nil {
			return nil, err
		}
		layer.seed = true
		topk = newTopkIndex(dg, layer.locals)
	}
	e.publish(newEngineSnapshot(dg, rk, layer, topk))
	return e, nil
}

// solveLayer runs the refresh solve over rk at the default query
// parameters and returns it as a caller-owned document layer. With a
// previous layer, sites not listed in changed keep prev's vectors (by
// pointer — layers are immutable) and every solve warm-starts from prev;
// without one every site solves cold.
func (e *LocalEngine) solveLayer(ctx context.Context, rk *lmm.Ranker, prev *docLayer, changed []SiteID) (*docLayer, error) {
	cfg := lmm.WebConfig{Parallelism: e.parallelism, Ctx: ctx}
	var prevLocals []Vector
	if prev != nil {
		cfg.SiteStart, cfg.LocalStarts = prev.site, prev.locals
		prevLocals = prev.locals
	}
	wr, err := rk.RankRefresh(changed, cfg)
	if err != nil {
		return nil, normalizeCtxErr(ctx, err)
	}
	locals := make([]Vector, len(wr.LocalRanks))
	for s, v := range wr.LocalRanks {
		if s < len(prevLocals) && len(v) > 0 && len(v) == len(prevLocals[s]) && &v[0] == &prevLocals[s][0] {
			locals[s] = v // carried verbatim from prev
		} else {
			locals[s] = v.Clone()
		}
	}
	return &docLayer{site: wr.SiteRank.Clone(), locals: locals}, nil
}

// loadLayer returns the snapshot's document layer, filling it on first
// use. Concurrent first queries wait for one fill instead of racing
// their own; a fill that fails (a cancelled ctx, say) publishes nothing,
// so the next query fills afresh rather than inheriting the failure.
func (e *LocalEngine) loadLayer(ctx context.Context, snap *engineSnapshot) (*docLayer, error) {
	if l := snap.layer.Load(); l != nil {
		return l, nil
	}
	select {
	case snap.fill <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-snap.fill }()
	if l := snap.layer.Load(); l != nil {
		return l, nil
	}
	rk := snap.pool.Get().(*lmm.Ranker)
	defer snap.pool.Put(rk)
	l, err := e.solveLayer(ctx, rk, nil, nil)
	if err != nil {
		return nil, err
	}
	snap.layer.Store(l)
	return l, nil
}

// reject refuses nothing: LocalEngine serves every valid query.
func (e *LocalEngine) reject(Query) error { return nil }

// rebuild builds the next snapshot over dg: the changed sites' structure
// rebuilds, and a refresh solve builds its document layer from cur's —
// changed sites re-solve warm, clean sites keep their vectors. A
// snapshot no query has filled yet refreshes cold; changed sites whose
// roster grew start cold automatically (seeds are shape-checked hints).
func (e *LocalEngine) rebuild(ctx context.Context, cur *engineSnapshot, dg *DocGraph, changed []SiteID) (*engineSnapshot, error) {
	next, err := cur.rk.RebuildOn(dg, changed)
	if err != nil {
		return nil, err
	}
	next.Prepare()
	layer, err := e.solveLayer(ctx, next.Share(), cur.layer.Load(), changed)
	if err != nil {
		return nil, err
	}
	layer.seed = true
	var topk *topkIndex
	if cur.topk != nil {
		changedSet := make(map[SiteID]bool, len(changed))
		for _, s := range changed {
			changedSet[s] = true
		}
		topk = cur.topk.patch(dg, layer.locals, changedSet)
	}
	return newEngineSnapshot(dg, next, layer, topk), nil
}

// rank runs one query against a pinned snapshot.
func (e *LocalEngine) rank(ctx context.Context, snap *engineSnapshot, q Query) (*Result, error) {
	if !q.defaultSolve() {
		return e.rankFull(ctx, snap, q)
	}
	layer, err := e.loadLayer(ctx, snap)
	if err != nil {
		return nil, err
	}
	return e.rankOver(ctx, snap, layer, q)
}

// defaultSolve reports whether q runs at the default damping, tolerance
// and iteration budget — the parameters a snapshot's document layer was
// solved at, and so the queries that can reuse it.
func (q Query) defaultSolve() bool {
	return q.Damping == 0 && q.Tol == 0 && q.MaxIter == 0
}

// indexEligible reports whether q's Top table can come from the
// snapshot's maintained top-k index: a two-layer default-config TopK
// query with no document-layer personalization and no LocalRanks
// request. Site-layer personalization is eligible: the Partition
// Theorem composes DocRank as siteWeight·localRank, so the posting
// lists are valid under any site weighting.
func (snap *engineSnapshot) indexEligible(q Query) bool {
	return snap.topk != nil && q.TopK > 0 && !q.ThreeLayer &&
		q.DocPersonalization == nil && !q.WantLocalRanks && q.defaultSolve()
}

// rankOver answers a default-config query over the snapshot's document
// layer: only the site layer (or the three-layer weights) and the sites
// the query personalizes are solved; every other site's local DocRank
// is the layer's vector, and the composition is the Partition Theorem's
// siteWeight·localRank. A personalized solve starts from the layer when
// it seeds, cold otherwise — each site contributes the same bits a full
// solve on this snapshot would. Index-eligible Top tables come from a
// threshold merge over the index's posting lists, bit-identical to
// sorting the composed DocRank.
func (e *LocalEngine) rankOver(ctx context.Context, snap *engineSnapshot, layer *docLayer, q Query) (*Result, error) {
	rk := snap.pool.Get().(*lmm.Ranker)
	defer snap.pool.Put(rk)
	cfg := q.webConfig(ctx, e.parallelism)
	if layer.seed {
		cfg.SiteStart, cfg.LocalStarts = layer.site, layer.locals
	}
	res := &Result{}
	switch {
	case q.ThreeLayer:
		tl, err := rk.ThreeLayerWeights(q.DomainOf, cfg)
		if err != nil {
			return nil, normalizeCtxErr(ctx, err)
		}
		// The domain-layer vectors (SiteWeights included) are freshly
		// allocated per query — already caller-owned.
		res.SiteRank = tl.SiteWeights
		res.Domains, res.DomainRank = tl.Domains, tl.DomainRank
		res.DomainOfSite, res.SiteEntry = tl.DomainOfSite, tl.SiteEntry
	case q.SitePersonalization != nil:
		sr, iters, err := rk.RankSites(cfg)
		if err != nil {
			return nil, normalizeCtxErr(ctx, err)
		}
		// sr aliases the pooled Ranker's scratch; privatize it before the
		// deferred Put can hand that scratch to another query.
		res.SiteRank = sr.Clone()
		res.SiteIterations = iters
	default:
		res.SiteRank = layer.site.Clone()
	}
	locals := layer.locals
	if len(q.DocPersonalization) > 0 {
		solve := make([]SiteID, 0, len(q.DocPersonalization))
		for s := range q.DocPersonalization {
			solve = append(solve, s)
		}
		ls, iters, err := rk.RankLocalsOver(layer.locals, solve, cfg)
		if err != nil {
			return nil, normalizeCtxErr(ctx, err)
		}
		locals = ls
		res.LocalIterations = append([]int(nil), iters...)
	} else {
		res.LocalIterations = make([]int, len(locals))
	}
	res.DocRank = lmm.ComposeDocRank(snap.dg, res.SiteRank, locals)
	if q.WantLocalRanks {
		res.LocalRanks = cloneVectors(locals)
	}
	switch {
	case q.TopK <= 0:
	case snap.indexEligible(q):
		e.stats.topkIndex.Add(1)
		res.Top = snap.topk.top(snap.dg, res.SiteRank, q.TopK)
	default:
		res.Top = TopDocs(snap.dg, res.DocRank, q.TopK)
	}
	return res, nil
}

// rankFull answers a query with custom solver parameters: every layer
// solves under them, warm-started from the snapshot's layer when it
// seeds. The site seed is a two-layer πS and stays out of three-layer
// queries: their upper stack ranks domains and entry nodes, where a
// same-length site vector would be a wrong-distribution seed, not a
// warm start. The local seeds apply to both models — the document
// layer is identical in both.
func (e *LocalEngine) rankFull(ctx context.Context, snap *engineSnapshot, q Query) (*Result, error) {
	rk := snap.pool.Get().(*lmm.Ranker)
	defer snap.pool.Put(rk)
	cfg := q.webConfig(ctx, e.parallelism)
	if layer := snap.layer.Load(); layer != nil && layer.seed {
		if !q.ThreeLayer {
			cfg.SiteStart = layer.site
		}
		cfg.LocalStarts = layer.locals
	}

	var res *Result
	if q.ThreeLayer {
		wr, err := rk.Rank3(q.DomainOf, cfg)
		if err != nil {
			return nil, normalizeCtxErr(ctx, err)
		}
		res = &Result{
			DocRank: wr.DocRank.Clone(),
			// The domain-layer vectors (SiteWeights included) are
			// freshly allocated per query — already caller-owned.
			SiteRank:        wr.SiteWeights,
			Domains:         wr.Domains,
			DomainRank:      wr.DomainRank,
			DomainOfSite:    wr.DomainOfSite,
			SiteEntry:       wr.SiteEntry,
			LocalIterations: append([]int(nil), wr.LocalIterations...),
		}
		if q.WantLocalRanks {
			res.LocalRanks = cloneVectors(wr.LocalRanks)
		}
	} else {
		wr, err := rk.Rank(cfg)
		if err != nil {
			return nil, normalizeCtxErr(ctx, err)
		}
		res = &Result{
			DocRank:         wr.DocRank.Clone(),
			SiteRank:        wr.SiteRank.Clone(),
			SiteIterations:  wr.SiteIterations,
			LocalIterations: append([]int(nil), wr.LocalIterations...),
		}
		if q.WantLocalRanks {
			res.LocalRanks = cloneVectors(wr.LocalRanks)
		}
	}
	if q.TopK > 0 {
		res.Top = TopDocs(snap.dg, res.DocRank, q.TopK)
	}
	return res, nil
}

// cloneVectors deep-copies a slice of score vectors.
func cloneVectors(vs []Vector) []Vector {
	out := make([]Vector, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

// normalizeCtxErr maps a cancelled query's failure to the context's own
// error — the Engine contract — but only when the failure actually is a
// context abort somewhere down its chain. A query that died for its own
// reason (say ErrGraphMutated) keeps that error even if the context has
// since expired: a deadline must not mask a real fault.
func normalizeCtxErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// distSnapshot is one immutable serving state of a DistEngine: the
// snapCore (graph, structural Ranker, flight table) and — when a
// partition strategy is configured — the pinned site→shard assignment
// every query under this snapshot serves with, plus the cut fraction
// measured when that assignment was last (re)computed. baseCut is the
// drift baseline: Update compares the carried assignment's cut against
// it to decide whether churn has degraded the placement enough to
// repartition online.
type distSnapshot struct {
	snapCore
	asg     partition.Assignment
	baseCut float64
}

// DistEngine serves the same queries from a distributed fleet: local
// DocRanks run on the workers (through the coordinator's shard caches,
// loss recovery and optional compression), the small site layer runs
// centrally or as distributed power rounds, and the composed result
// comes back caller-owned with transport statistics attached. Rank
// calls are safe for concurrent use — the coordinator serializes runs —
// but do not overlap on the wire; for query-level concurrency put a
// LocalEngine replica next to the coordinator instead, or turn on
// Coalesce so identical concurrent queries share one wire run.
//
// The coordinator's digest memo holds the engine's document layer: each
// site's default-config local DocRank, solved on the fleet once per
// shard version. A default-config query (zero Damping, Tol and MaxIter)
// takes every memoized site as is — reporting 0 local iterations for
// it, as on LocalEngine — so a warm query costs the shard negotiation
// plus the site layer; queries with custom solver parameters solve
// every site on the fleet.
//
// It shares LocalEngine's serving front — admission, coalescing, the
// atomic snapshot and the Update path. Its rebuild rebuilds the changed
// sites' structure and migrates the coordinator's digest memo, so the
// next Rank re-hashes and, through the workers' digest caches, re-ships
// only the changed shards: a 1-site edit on an N-site web moves ~1/N of
// a cold load's bytes (Result.Dist.ShardsReused / ShardsReshipped
// account for it per run), and re-solves only the changed sites' local
// DocRanks. Under the synchronous and asynchronous distributed SiteRank
// modes the memo entry is dropped on Update instead (their shards embed
// site-chain rows), so the first query after it re-solves every site.
// A Rank that started before an Update's swap completes against its old
// Ranker, whose graph never mutated; the wire itself still serializes
// at the coordinator.
type DistEngine struct {
	front[distSnapshot, *distSnapshot]
	coord        *coordinator.Coordinator
	cfg          coordinator.Config
	repartitions atomic.Int64
}

var _ Engine = (*DistEngine)(nil)

// NewDistEngine builds a distributed serving engine over a running
// cluster: a Ranker is precomputed for the graph (structure only — the
// fleet does the local solving) and every Rank reuses it, so repeated
// queries ship near-zero shard bytes and hash zero digest bytes. cfg
// supplies the transport knobs (SiteGraph aggregation, distributed or
// batched SiteRank, retry policy, compression) and the serving knobs
// (MaxInFlight, TenantQuota, RejectOverload, Coalesce, CoalesceTol);
// its per-query fields —
// Damping, Tol, MaxIter, SitePersonalization, ThreeLayer, DomainOf —
// are ignored and overwritten from each Query. Change the graph through
// Update (or build a new engine); a mutation outside Update turns every
// later query into ErrGraphMutated until the next Update.
func NewDistEngine(cl *Cluster, dg *DocGraph, cfg DistConfig) (*DistEngine, error) {
	rk, err := lmm.NewRanker(dg, lmm.RankerOptions{SiteGraph: cfg.SiteGraph})
	if err != nil {
		return nil, err
	}
	e := &DistEngine{coord: cl.Coord, cfg: cfg}
	e.be = e
	e.admit = newAdmitGate(cfg.MaxInFlight, cfg.TenantQuota, cfg.RejectOverload)
	e.coalesce, e.coalesceTol = cfg.Coalesce, cfg.CoalesceTol
	snap := &distSnapshot{snapCore: snapCore{dg: dg, rk: rk}}
	// With a partition strategy configured the engine pins the
	// assignment per snapshot: every query serves under the same
	// placement (stable digest caches) and Update measures cut-edge
	// drift against the baseline recorded here.
	if cfg.Partition != nil {
		snap.asg = cfg.Partition.Partition(dg, cl.Coord.NumWorkers())
		snap.baseCut = partition.CutFraction(rk.SiteGraph(), snap.asg.Owner)
	}
	e.publish(snap)
	return e, nil
}

// rebuild builds the next snapshot over dg: the changed sites'
// structure rebuilds, the coordinator's digest memo migrates to the new
// Ranker, and the placement carries over (or repartitions). The memo
// migration cannot be undone, so ctx is checked just before it.
func (e *DistEngine) rebuild(ctx context.Context, cur *distSnapshot, dg *DocGraph, changed []SiteID) (*distSnapshot, error) {
	next, err := cur.rk.RebuildOn(dg, changed)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.coord.RefreshPrepared(cur.rk, next, changed)
	snap := &distSnapshot{snapCore: snapCore{dg: dg, rk: next}}
	if len(cur.asg.Owner) > 0 {
		snap.asg, snap.baseCut = e.carryAssignment(cur, dg, next, changed)
	}
	return snap, nil
}

// carryAssignment decides the next snapshot's placement after churn.
// The zero-migration default extends the current assignment over any
// new sites; the resulting cut fraction is compared against the
// baseline recorded at the last (re)partition, and when the drift
// exceeds cfg.RepartitionThreshold the strategy's Rebalance
// re-optimizes online. A moved shard then migrates through the normal
// serving path: RefreshPrepared (above) has already re-keyed the digest
// memo, so the next Rank's KindOffer negotiation re-ships only shards
// whose new owner has never cached their content — a clean shard moving
// to a warm worker costs one digest exchange, not a payload.
func (e *DistEngine) carryAssignment(cur *distSnapshot, dg *DocGraph, rk *lmm.Ranker, changed []SiteID) (partition.Assignment, float64) {
	ext := partition.Extend(dg, cur.asg)
	frac := partition.CutFraction(rk.SiteGraph(), ext.Owner)
	thr := e.cfg.RepartitionThreshold
	if thr <= 0 || e.cfg.Partition == nil || frac-cur.baseCut <= thr {
		return ext, cur.baseCut
	}
	reb := e.cfg.Partition.Rebalance(dg, changed, ext)
	e.repartitions.Add(1)
	return reb, partition.CutFraction(rk.SiteGraph(), reb.Owner)
}

// Repartitions reports how many online repartitions Update has
// triggered over the engine's lifetime — always 0 unless a Partition
// strategy and a positive RepartitionThreshold are configured.
func (e *DistEngine) Repartitions() int { return int(e.repartitions.Load()) }

// PartitionOwners returns a copy of the site→shard assignment the
// current snapshot serves under, or nil when no Partition strategy was
// configured (the coordinator then places per run with its default).
func (e *DistEngine) PartitionOwners() []int {
	snap := e.snap.Load()
	if len(snap.asg.Owner) == 0 {
		return nil
	}
	return append([]int(nil), snap.asg.Owner...)
}

// reject refuses document-layer personalization: per-site teleports
// are not part of the distributed wire protocol.
func (e *DistEngine) reject(q Query) error {
	if q.DocPersonalization != nil {
		return fmt.Errorf("%w: document-layer personalization is not part of the distributed wire protocol; use LocalEngine", ErrUnsupportedQuery)
	}
	return nil
}

// rank runs one distributed query against a pinned snapshot.
func (e *DistEngine) rank(ctx context.Context, snap *distSnapshot, q Query) (*Result, error) {
	cfg := e.cfg
	cfg.Damping = q.Damping
	cfg.Tol = q.Tol
	cfg.MaxIter = q.MaxIter
	cfg.SitePersonalization = q.SitePersonalization
	cfg.ThreeLayer = q.ThreeLayer
	cfg.DomainOf = q.DomainOf
	if len(snap.asg.Owner) > 0 {
		// Serve under the snapshot's pinned placement (falls back to the
		// strategy inside the coordinator if the live fleet shrank).
		cfg.Assignment = snap.asg.Owner
	}
	dres, err := e.coord.RankPreparedCtx(ctx, snap.rk, cfg)
	if err != nil {
		return nil, err
	}
	stats := dres.Stats
	res := &Result{
		// Coordinator results are freshly allocated per run — already
		// caller-owned, no cloning needed.
		DocRank:         dres.DocRank,
		SiteRank:        dres.SiteRank,
		Domains:         dres.Domains,
		DomainRank:      dres.DomainRank,
		DomainOfSite:    dres.DomainOfSite,
		SiteEntry:       dres.SiteEntry,
		SiteIterations:  dres.Stats.SiteRankRounds,
		LocalIterations: dres.LocalIterations,
		Dist:            &stats,
	}
	if q.WantLocalRanks {
		res.LocalRanks = dres.LocalRanks
	}
	if q.TopK > 0 {
		res.Top = TopDocs(snap.dg, res.DocRank, q.TopK)
	}
	return res, nil
}
