// Package lmmrank is a Go implementation of "Using a Layered Markov Model
// for Distributed Web Ranking Computation" (Wu & Aberer, ICDCS 2005): a
// two-layer Markov model of the Web — sites above, documents below — whose
// Partition Theorem makes the global ranking computable as one small
// SiteRank composed with fully independent per-site DocRanks, enabling
// decentralized (peer-to-peer) rank computation, link-spam resistance and
// two-layer personalization.
//
// This root package is the stable facade over the internal packages:
//
//   - the serving API: Engine — Rank(ctx, Query) over a unified Query
//     (uniform / personalized / top-k / three-layer) with caller-owned
//     Results — implemented by NewLocalEngine (concurrent in-process
//     serving) and NewDistEngine (the same queries from a worker fleet);
//   - abstract Layered Markov Models (the paper's §2): Model, the four
//     ranking approaches, multi-layer hierarchies;
//   - Web ranking (§3): DocGraph construction, SiteGraph aggregation, the
//     layered DocRank pipeline and the flat-PageRank baseline;
//   - synthetic campus webs with ground-truth spam labels (the evaluation
//     substrate standing in for the paper's EPFL crawl);
//   - a distributed runtime: loopback or networked worker fleets driven by
//     a coordinator over a gob/TCP RPC substrate, with page-count shard
//     balancing, digest-keyed worker caches, flate shard compression,
//     selectable SiteRank modes (SiteRankMode: central, synchronous
//     rounds, batched rounds, or the barrier-free asynchronous protocol
//     with synchronous verification — seeded-deterministic when
//     ordered), mid-run worker-loss recovery and background redial with
//     mid-run re-admission (DistRetryPolicy), and checkpointed SiteRank
//     iteration (DistCheckpoint).
//
// Quick start:
//
//	web := lmmrank.GenerateCampusWeb(lmmrank.CampusWebConfig{Seed: 1})
//	eng, err := lmmrank.NewLocalEngine(web.Graph, lmmrank.EngineOptions{})
//	res, err := eng.Rank(ctx, lmmrank.Query{TopK: 10})
//	...
//	model := lmmrank.PaperExample()
//	ranking, err := lmmrank.LayeredMethod(model, lmmrank.Config{})
//
// # Ownership contract
//
// Public results are caller-owned. Everything an Engine returns — and
// everything the one-shot wrappers (LayeredDocRank, LayeredDocRank3,
// PageRank, PageRankGraph) and the distributed runtime return — is
// freshly allocated: retain it, mutate it, share it across goroutines;
// no later query will observe or disturb it. Scratch aliasing is an
// internal/ concern only, surfacing in exactly one deprecated-in-spirit
// expert path: Ranker (below).
//
// # Performance contracts
//
// The serving core trades safety rails for zero steady-state
// allocations; the contracts below are stated on the symbols they bind
// and collected here because they span packages.
//
// Scratch aliasing (Ranker only): results returned by Ranker.Rank (the
// WebResult's vectors) alias the Ranker's internal buffers and are
// valid only until the next Rank on the same Ranker — clone to retain,
// or serve through an Engine, which copies results out of pooled
// scratch before returning them. A Ranker value is not goroutine-safe;
// Engine's pool of scratch-private Rankers over one shared core is the
// concurrent path.
//
// Cancellation: Engine.Rank honors its context everywhere — each power
// iteration checks ctx between multiplies, and distributed runs
// propagate the deadline into every wire exchange — returning ctx.Err()
// on cancellation. A nil WebConfig.Ctx (the internal hook the Engine
// fills) never cancels.
//
// Damping sentinel: a Damping (or Alpha) of exactly 0 in any config
// selects the default 0.85 — an explicit zero cannot be requested, tiny
// positive values are honored as given.
//
// Invalidation and churn: engines and Rankers capture their DocGraph by
// reference and precompute derived structure from it. Mutating the
// graph invalidates that structure, and the invalidation is enforced:
// the graph carries a mutation version, and a query against stale
// structure fails with ErrGraphMutated instead of silently serving
// stale rankings. The supported way to change a served graph is
// Engine.Update(ctx, GraphDelta) — graph churn as a serving operation,
// implemented as multi-version snapshot serving:
//
//   - Snapshot semantics: an engine's whole serving state — graph,
//     precomputed cores, document layer — lives behind one atomic pointer
//     to an immutable snapshot. Update applies GraphDelta.Apply to a
//     copy-on-write clone of the graph (clean sites share their
//     adjacency with the old graph by pointer), rebuilds off to the
//     side and publishes with a single store. Queries never wait for an
//     Update and an Update never waits for queries: a Rank in flight
//     across the swap completes on the snapshot it started on,
//     bit-identical to an uncontended run, and the next Rank sees the
//     new graph. A failed Update discards the clone — always a no-op,
//     the engine is exactly as before. Because the served graph
//     evolves through clones, re-fetch it with DocGraph() after
//     updating rather than caching the construction-time pointer.
//   - There is one Update path. A nil Apply mutates nothing: the
//     Update re-publishes the served graph with the listed sites
//     rebuilt.
//   - ChangedSites is the caller's contract: it must list every site
//     whose pages or links changed (appended sites are implicit). Only
//     those sites' structure is rebuilt — locally their subgraphs,
//     matrices and solvers (clean sites' chains are shared by pointer),
//     and only their local DocRanks re-solve — clean sites keep their
//     vectors verbatim in the new snapshot's document layer;
//     distributedly their shards (clean shards stay in the worker
//     caches and are never re-shipped — Result.Dist.ShardsReused /
//     ShardsReshipped account for it).
//   - An out-of-band mutation of the served graph is detected: queries
//     fail with ErrGraphMutated, and since the engine cannot know which
//     sites the edit touched, the next Update rebuilds every site —
//     recovery is always explicit and never blesses stale structure.
//
// Self-healing and restart: DistRetryPolicy.MaxRedials arms a
// background redial loop — each lost worker is redialed with jittered
// exponential backoff (RedialBase doubling up to RedialMax) and, once
// reachable, re-admitted at the next sequential point of the same run:
// its sites rebalance back by the deterministic weighted assignment, a
// warm digest cache means near-zero bytes re-shipped
// (DistStats.RejoinShardBytes measures exactly the rejoin traffic), and
// interim owners drop the moved sites so no chain row is double-counted.
// Orthogonally, DistConfig.Checkpoint persists the distributed SiteRank
// iterate so a restarted coordinator resumes instead of recomputing. The
// Checkpoint contract: Save must durably replace the stored state or
// fail the run (FileCheckpoint writes a temp file and renames — readers
// never see a torn state); Load returns (nil, nil) when nothing is
// stored; a state whose digest does not match the current graph +
// configuration (mode, sizes, damping, tolerance, iteration cap,
// teleport vector, shard digests) is ignored and the iteration starts
// fresh; a converged run Clears its checkpoint. Resuming continues the
// exact float sequence — gob round-trips float64 losslessly — so an
// interrupted-and-resumed run reproduces the uninterrupted ranks
// bitwise, in fewer remaining rounds (DistStats.ResumedFromRound +
// SiteRankRounds equals the uninterrupted total).
//
// Serving admission is keyed by tenant: EngineOptions.MaxInFlight caps
// concurrent queries engine-wide and TenantQuota caps each
// Query.Tenant's share inside that cap (the tenant slot is taken
// first, so one flooding tenant exhausts its own quota, never the
// engine). Over-cap queries queue under ctx, or fail fast with
// ErrOverloaded when RejectOverload is set — errors.As to
// *OverloadError for the tenant and which gate refused. The empty
// Tenant is the shared anonymous tenant; tenancy is an admission
// identity only and never changes a query's answer (it is excluded
// from the coalescing fingerprint). Coalesce folds concurrent
// identical queries into one computation, each caller receiving its
// own copy, and CoalesceTol widens the match to similar queries:
// personalization vectors within CoalesceTol of each other in
// normalized L1 may share one flight (scalar fields still match
// bitwise; 0 keeps exact matching). Every LocalEngine snapshot caches
// its default-config document layer, so default-config queries solve
// only the site layer and the sites they personalize.
// EngineOptions.TopKIndex (LocalEngine only) adds per-site posting
// lists over that layer, maintained across Updates, so default-config
// top-k queries — uniform or site-personalized — merge the lists
// instead of selecting over every document, bit-identically.
// ServingStats() on either
// engine reports admissions, overloads per tenant, coalesced shares
// and index serves. DistConfig carries the admission and coalescing
// knobs for DistEngine.
//
// The expert-path equivalents are lmm-level: Ranker.Rebuild(changed) /
// Ranker.RebuildOn(clone, changed) for the structural half and
// Ranker.RankRefresh over the previous solution
// (WebConfig.SiteStart/LocalStarts) for the refresh — exactly what
// Engine.Update runs.
package lmmrank
