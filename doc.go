// Package divtopk is a Go implementation of "Diversified Top-k Graph
// Pattern Matching" (Fan, Wang, Wu — PVLDB 6(13), 2013).
//
// It implements graph pattern matching by graph simulation with a
// designated output node, and answers two query classes over large directed
// labeled graphs:
//
//   - Top-k matching (TopK): the k matches of the output node with the
//     highest relevance δr (the size of their relevant set — the set of
//     matches they can reach through the pattern), found with the early
//     termination property: the evaluation stops as soon as the answer is
//     provably correct, without computing the full match relation M(Q,G).
//
//   - Diversified top-k matching (TopKDiversified): the k-set maximizing
//     the bi-criteria function F(S) = (1−λ)·Σ δ'r + 2λ/(k−1)·Σ δd that
//     balances relevance against pairwise Jaccard distance of relevant
//     sets. The problem is NP-complete; the library ships the paper's
//     2-approximation (TopKDiv) and its early-termination heuristic
//     (TopKDH).
//
// # Quickstart
//
//	b := divtopk.NewGraphBuilder()
//	alice := b.AddNode("PM")
//	bob := b.AddNode("DB")
//	_ = b.AddEdge(alice, bob)
//	g := b.Build()
//
//	pb := divtopk.NewPatternBuilder()
//	pm := pb.AddNode("PM")
//	db := pb.AddNode("DB")
//	_ = pb.AddEdge(pm, db)
//	pb.Output(pm)
//	q, _ := pb.Build()
//
//	res, _ := divtopk.TopK(g, q, 10)
//	for _, m := range res.Matches {
//		fmt.Println(m.Node, m.Relevance)
//	}
//
// # Sessions and parallelism
//
// A Matcher is a reusable, concurrency-safe query session: it warms the
// graph's descendant-label bound index once at construction and then serves
// any number of concurrent queries, including whole batches over a bounded
// worker pool:
//
//	m := divtopk.NewMatcher(g)
//	results, _ := m.BatchTopK(patterns, 10)
//
// Single queries also parallelize internally (candidate computation, the
// diversified greedy scans). The Parallelism option controls the worker
// count for both layers: the default uses all cores, Parallelism(1)
// reproduces the sequential engine exactly, and every setting returns
// identical results — the parallel sections are deterministic.
//
// # Serving
//
// WithCache equips a Matcher with a result cache (LRU keyed by a canonical
// query fingerprint, singleflight admission), and cmd/divtopkd builds the
// full serving layer on top: named graphs behind an HTTP JSON API with
// per-request timeouts, k/parallelism caps and structured errors. Because
// the engines are deterministic, a cached response is byte-identical to a
// fresh evaluation. See internal/server and the README's "Serving"
// section.
//
// # Dynamic graphs
//
// Graphs are immutable snapshots; dynamic workloads advance through
// deltas. A Delta batches node appends, edge inserts and edge deletes;
// ApplyDelta derives the next snapshot in one merge pass over the old
// adjacency and bumps its Version. Matcher.Update applies a delta to a live
// session: the previous snapshot's bound index is advanced off to the side
// and swapped in atomically with the graph, and because the snapshot
// version participates in every cache key, a result cached before an
// update can never be served after it (hot entries are advanced to the new
// version at commit time — see the Warm cache section). TopKWithVersion and
// TopKDiversifiedWithVersion report the snapshot version behind each
// answer; the serving layer exposes updates as
// POST /v1/graphs/{name}/updates and echoes the version in every response.
//
// Concurrent updates group-commit: Delta.Merge combines deltas sharing one
// base snapshot (deletes before inserts, duplicate inserts collapse,
// insert-then-delete cancels), Matcher.UpdateBatch and UpdateMerged apply
// the merged delta in one maintenance pass while stepping the version once
// per constituent, and the serving layer's per-graph coalescer queues
// overlapping POSTs into such batches — each caller acknowledged with its
// own version, durability logging the per-request deltas so WAL contiguity
// survives. Edge endpoints in the wire protocol may name a request's own
// appended nodes with negative self-references (-1 is the first), and the
// response's first_node field reports where the appends landed.
//
// The descendant-label bound index is versioned derived state rather than a
// per-snapshot rebuild: its rows are a pure function of the snapshot's
// cached SCC condensation and the member labels, so the advance diffs the
// two condensations and recomputes, per label, only the frontier rows the
// delta's touch points reach — a per-node frontier propagated from
// membership changes, ancestor closures of successor-set changes, and
// cyclicity flips, masked against each label's reachability — running the
// per-label partial recomputes in parallel, copying every unaffected row,
// and falling back to a full rebuild of the warmed labels past an adaptive
// recomputed-share ratio (default 0.25, WithIndexRebuildRatio). A
// mismatched snapshot version is a hard error; the fresh-warm path remains
// the correctness oracle, enforced by randomized delta-chain fuzz for both
// count modes. Matcher.UpdateWithStats (and the daemon's "index" response
// object) reports the maintenance mode, batch width, affected share,
// frontier size and wall time of every update. For callers maintaining one
// standing (graph, pattern) evaluation across deltas, the engine layer
// offers
// internal/simulation.IncCompute: it maintains the simulation fixpoint and
// product CSR incrementally over the delta's affected area — sharing the
// same closure-traversal helper (graph.Expand) and the same two-level
// fallback discipline as the index advance — with the simdelta and
// boundadv rows of the tracked baseline measuring both maintenance layers
// against from-scratch recomputation. See the README's "Dynamic graphs"
// section.
//
// # Warm cache
//
// On a caching session the commit path does not merely orphan the old
// version's cache entries — it advances the hot ones. Each cached pattern
// retains its incremental evaluation state (the IncCompute simulation state
// and product CSR); after the delta is durable and before the new snapshot
// is published, the commit advances that state and re-derives the pattern's
// cached results from it, installing them under the new version's keys, so
// the first post-commit query is a hit that reports provenance "advanced"
// (TopKInfo/TopKDiversifiedInfo, and the daemon's "cache" response field)
// rather than a cold evaluation. An entry is re-derived only when the delta
// reaches its inputs: it is carried over unchanged when IncCompute touched
// none of its candidate pairs and, for engine entries bounded by the index
// (label-count and loose bounds), the advanced index rows equal the old ones
// at every output candidate for every descendant label of the output node.
// Tight-bound and full-evaluation entries read only the product and need
// the first condition alone. Past a work-share ratio
// (WithCacheAdvanceRatio, default 0.25) the pass evicts instead — the knob
// trades commit latency against post-commit query latency and never changes
// answers. Admission is containment-aware: a pattern whose node conditions
// are subsumed by a cached pattern's nodes (same label, predicate subset)
// seeds its candidate lists from the cached superset's maintained lists and
// reports "seeded". CacheStats counts advanced, carried, seeded and
// advance-evicted entries; a randomized delta-chain fuzz pins every warm answer
// byte-identical to a never-cached session at every version. See the
// README's "Warm cache" section.
//
// # Durability
//
// A Matcher session can be made durable by attaching a DurabilitySink
// (SetDurability): inside Update, the delta is handed to the sink after the
// new snapshot and its advanced index are built but before they are
// published, so the served state never runs ahead of what is persisted; a
// sink failure returns ErrDurabilityUnavailable and leaves the session on
// its previous snapshot. The serving layer supplies the production sink —
// internal/durable composes a delta write-ahead log (internal/wal,
// CRC-framed binary records, fsync policies, torn-tail recovery) with flat
// binary CSR checkpoints (internal/snapshot, atomic publish) and rotates
// the log into a checkpoint periodically — and server.NewPersistentRegistry
// recovers every graph on boot by loading the newest valid checkpoint and
// replaying the WAL tail through this same Update path. cmd/divtopkd
// enables it with -data-dir/-fsync/-checkpoint-every; a kill-and-recover
// fuzz over injected filesystem faults (internal/fsx) proves recovered
// query results byte-identical to a never-crashed run. See the README's
// "Durability" section.
//
// # Performance
//
// Every per-query hot path runs over a materialized product-graph CSR
// (internal/simulation.Product): the candidate product graph is built once
// per query and shared by simulation refinement, relevant-set computation
// (SCC condensation in reverse topological order, interior bitsets pooled
// in a bitset.Arena, levels sharded over Parallelism workers) and the
// incremental engine's propagation. The pre-CSR kernel is retained behind
// an options knob as the frozen reference: determinism tests prove both
// kernels byte-identical at every Parallelism setting, and
// cmd/divtopk-bench measures them side by side on a fixed-seed 150k-node
// generator graph, emitting the tracked baseline committed as
// BENCH_PR9.json (see the README's "Performance" section for how to run
// and read it).
//
// # Static analysis
//
// The invariants the sections above rely on — snapshot immutability, the
// single-load discipline on a session's current snapshot, version-keyed
// result caching, arena Get/Put pairing, no heavy work under a write lock,
// and map-order-free kernel results — are machine-checked by divtopk-vet,
// a custom analyzer suite in tools/vet (a nested module, so this module
// stays dependency-free). Each analyzer encodes a bug class an earlier
// change made possible: snapmut guards the immutable snapshots dynamic
// graphs depend on (PR 4), curload and verkey guard the atomic
// snapshot/version swap and cache invalidation (PRs 2 and 4), arenapair
// guards the pooled bitsets of the CSR kernel (PR 3), lockhold guards the
// serving layer's claim/release/compute/publish locking discipline
// (PRs 2 and 5), and detorder guards the byte-identical determinism the
// parallel kernels promise (PR 3). Three analyzers reason over paths and
// package boundaries on the suite's dataflow core (a CFG engine plus
// cross-package facts carried through go vet's .vetx channel): detflow
// proves the deterministic kernels free of wall-clock and unseeded-random
// calls through any helper chain, errflow proves the error of every
// versioned mutation (ApplyDelta, ApplyDeltaVersionStep, Advance,
// IncCompute) is checked on every path before the updated state is trusted
// — and the same for every durability call (wal.Log.Append/AppendBatch/
// Sync, durable.Store's Seed/Append/AppendBatch/Checkpoint, snapshot.Write,
// the AppendDelta/AppendBatch sink hooks, matched by qualified name), which
// in the group-commit coalescer means before any caller of a batch is
// acknowledged — and swapver proves a published
// snapshot and its swapped-in derived state always originate from the same
// version source. Run `make lint`, or see tools/vet's package
// documentation for the suppression syntax, the fact catalog and the
// vet-tool protocol.
//
// The module builds and tests with the standard toolchain:
//
//	go build ./... && go test ./...
//
// See the examples/ directory for runnable end-to-end scenarios, README.md
// for an overview, the package documentation of internal/core for the
// engine's architecture, and `go run ./cmd/experiments -figure all` for the
// reproduction of the paper's evaluation.
package divtopk
