package divtopk

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"divtopk/internal/cache"
	"divtopk/internal/core"
	"divtopk/internal/graph"
	"divtopk/internal/parallel"
)

// Matcher is a reusable query session over one Graph. Construction pays the
// per-graph index cost once — the full descendant-label bound index (which
// internally performs the SCC/reachability work of the paper's §4.1 index) —
// after which the Matcher is safe for concurrent use from many goroutines:
// every query path reads the warmed, immutable index.
//
// A Matcher also serves dynamic graphs: Update applies a Delta, advances
// the previous snapshot's bound index off to the side — recomputing only
// what the delta's affected area covers instead of rebuilding the index
// per update — and atomically swaps graph and index in together, so
// queries always run against one consistent snapshot (graph + index)
// and never observe a half-applied update. The snapshot version is part of
// every cache key, which makes entries cached against an older snapshot
// unreachable — stale results are never scanned for, let alone served.
//
// Options passed to NewMatcher become the session defaults; options passed
// to an individual query are applied on top of them. With WithCache the
// session additionally memoizes results in an LRU keyed by a canonical
// query fingerprint, with singleflight admission — the serving layer in
// internal/server builds on exactly this.
type Matcher struct {
	cur        atomic.Pointer[Graph]
	updateMu   sync.Mutex // serializes Update (queries never take it)
	base       []Option
	workers    int
	cache      *cache.Cache
	indexRatio float64 // adaptive fallback of the index advance
	// warm holds the per-pattern incremental states behind the result cache;
	// advanceRatio is their advance-vs-evict work-share threshold (see
	// WithCacheAdvanceRatio) and advanceEvicted counts states evicted by the
	// commit-time advance pass.
	warm           warmRegistry
	advanceRatio   float64
	advanceEvicted atomic.Uint64
	// durability, when set, must acknowledge every delta before the snapshot
	// it produced is published; guarded by updateMu like all update state.
	durability DurabilitySink
}

// CacheStats is a snapshot of a Matcher's result-cache counters. Misses
// counts actual engine evaluations; Coalesced counts queries that shared an
// in-flight evaluation (singleflight); Hits counts queries served from a
// stored entry. Advanced counts entries the commit-time advance pass
// installed; Carried counts the part of them it carried over unchanged
// because the delta reached neither their candidate pairs nor, for
// index-bounded engine entries, their bound rows. Seeded counts evaluations
// whose candidate lists were containment-seeded from a cached superset
// pattern, and AdvanceEvicted counts maintained pattern states the advance
// pass evicted instead of advancing (work share above the ratio). All
// counters are zero for a Matcher built without WithCache.
type CacheStats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Coalesced      uint64 `json:"coalesced"`
	Evictions      uint64 `json:"evictions"`
	Advanced       uint64 `json:"advanced"`
	Carried        uint64 `json:"carried"`
	Seeded         uint64 `json:"seeded"`
	AdvanceEvicted uint64 `json:"advance_evicted"`
	Entries        int    `json:"entries"`
}

// NewMatcher builds the session indexes of g and returns a Matcher.
// Parallelism given here bounds the batch worker pool as well as the
// per-query parallel sections (default: all cores); WithCache sizes the
// session result cache (default: none).
func NewMatcher(g *Graph, opts ...Option) *Matcher {
	o := buildOptions(opts)
	// Warm the bound index for every label up front: the lazy per-label path
	// is synchronized but serializes cold computations, so a fully warmed
	// cache is what keeps concurrent queries contention-free.
	g.boundsCache().Warm(nil)
	m := &Matcher{
		base:         opts,
		workers:      parallel.Workers(o.engine.Parallelism),
		indexRatio:   o.indexRatio,
		advanceRatio: o.advanceRatio,
	}
	m.cur.Store(g)
	if o.cacheEntries > 0 {
		m.cache = cache.New(o.cacheEntries)
	}
	return m
}

// Graph returns the session's current graph snapshot. After an Update the
// returned snapshot keeps working — it is immutable — but no longer receives
// queries routed through the session.
func (m *Matcher) Graph() *Graph { return m.cur.Load() }

// Version returns the current snapshot's version (see Graph.Version).
func (m *Matcher) Version() uint64 { return m.cur.Load().Version() }

// ErrIndexMaintenance wraps a failure to advance the bound index during
// Update. The session builds the advance inputs itself, so this is an
// internal invariant violation — a bug — never a problem with the caller's
// delta; the serving layer maps it to a 500, not a 400. Match it with
// errors.Is.
var ErrIndexMaintenance = errors.New("divtopk: bound-index maintenance failed")

// IndexStats describes how one Update (or one group commit) maintained the
// descendant-label bound index: whether the incremental advance held or the
// adaptive fallback rebuilt the warmed labels, how much of the index the
// delta's frontier actually covered, and what the maintenance cost in wall
// time. The serving layer forwards these on every update response.
type IndexStats struct {
	// Mode is "incremental" (partial recompute of the per-label frontier)
	// or "rebuild" (the fallback recomputed every warmed label).
	Mode string `json:"mode"`
	// BatchWidth is the number of per-request deltas this commit carried:
	// 1 for a plain Update, the group size for a batch commit.
	BatchWidth int `json:"batch_width"`
	// AffectedRows is the widest per-label affected row set (the union over
	// the frontier's change groups); TotalRows is the snapshot's node count.
	AffectedRows int `json:"affected_rows"`
	TotalRows    int `json:"total_rows"`
	// AffectedShare is the recomputed cells' share of the whole warmed
	// index — Σ over recomputed labels of their affected rows, divided by
	// warmed labels × TotalRows (1 on a rebuild). This is the quantity the
	// adaptive fallback thresholds; a label the frontier proves untouched
	// contributes nothing.
	AffectedShare float64 `json:"affected_share"`
	// FrontierRows is the union affected-row count of the frontier (equals
	// AffectedRows on the incremental path, TotalRows on a rebuild).
	FrontierRows int `json:"frontier_rows"`
	// LabelsRecomputed and LabelsCopied split the index's labels into the
	// ones whose rows the delta's frontier reaches (recomputed through the
	// partial passes) and the ones proven untouched (rows carried over).
	LabelsRecomputed int `json:"labels_recomputed"`
	LabelsCopied     int `json:"labels_copied"`
	// WallMicros is the wall time of the whole index maintenance step;
	// ShardWallMicros is the wall time of just the parallel per-label
	// shard section inside it.
	WallMicros      int64 `json:"wall_us"`
	ShardWallMicros int64 `json:"shard_wall_us"`
}

// Update applies d to the session's current snapshot and atomically swaps
// the session to the result; see UpdateWithStats, which it wraps when the
// caller has no use for the index-maintenance stats.
func (m *Matcher) Update(d *Delta) (*Graph, error) {
	g, _, err := m.UpdateWithStats(d)
	return g, err
}

// UpdateWithStats applies d to the session's current snapshot and
// atomically swaps the session to the result, returning the new snapshot
// (its Version is the old one plus 1) and the index-maintenance stats. The
// new snapshot's bound index is advanced from the previous snapshot's off
// to the side — recomputing only the rows and labels the delta's frontier
// covers, in parallel per-label shards, with an adaptive fallback to a full
// rebuild (see WithIndexRebuildRatio) — and swapped in together with the
// graph, so queries never hit a cold index and never observe a half-applied
// update; queries running concurrently with the update finish on the old
// snapshot (and are cached under the old version, where no future query
// will look them up). A label the delta introduces stays cold and fills
// lazily on first use — eager warming would grow the maintained label set
// without bound on label-churning workloads. Updates are serialized with
// each other; queries are never blocked. On error the session is unchanged.
func (m *Matcher) UpdateWithStats(d *Delta) (*Graph, IndexStats, error) {
	m.updateMu.Lock()
	defer m.updateMu.Unlock()
	return m.commitLocked(&d.d, []*Delta{d})
}

// UpdateMerged is the group-commit entry point: merged must be the Merge of
// parts (in order) against the session's current snapshot, built by a
// caller that is the session's only updater — the serving layer's
// coalescer. It applies merged in one step, advances the index once, logs
// each part separately through the durability sink (one sync), and swaps in
// a snapshot whose version is the current one plus len(parts) — exactly the
// state applying the parts one at a time would have produced, at a fraction
// of the maintenance cost. On error the session is unchanged and no part
// was made durable.
func (m *Matcher) UpdateMerged(merged *Delta, parts []*Delta) (*Graph, IndexStats, error) {
	m.updateMu.Lock()
	defer m.updateMu.Unlock()
	return m.commitLocked(&merged.d, parts)
}

// UpdateBatch merges ds under the update lock and commits the result as one
// group commit; each delta must be valid against the snapshot applying the
// deltas before it would produce (the sequential chain). All-or-nothing: if
// any delta fails to merge, the session is unchanged and the failing
// delta's position is in the error. The serving layer's coalescer instead
// drops the failing request and retries, via Delta.Merge plus UpdateMerged.
func (m *Matcher) UpdateBatch(ds []*Delta) (*Graph, IndexStats, error) {
	m.updateMu.Lock()
	defer m.updateMu.Unlock()
	if len(ds) == 0 {
		return nil, IndexStats{}, errors.New("divtopk: empty update batch")
	}
	g := m.cur.Load()
	var merged graph.Delta
	for i, d := range ds {
		if err := merged.Merge(g.g, &d.d); err != nil {
			return nil, IndexStats{}, fmt.Errorf("divtopk: batch update %d: %w", i, err)
		}
	}
	return m.commitLocked(&merged, ds)
}

// commitLocked applies one already-merged delta spanning len(parts)
// versions and publishes the result; the caller holds updateMu.
func (m *Matcher) commitLocked(merged *graph.Delta, parts []*Delta) (*Graph, IndexStats, error) {
	g := m.cur.Load()
	g2raw, sum, err := graph.ApplyDeltaVersionStep(g.g, merged, uint64(len(parts)))
	if err != nil {
		return nil, IndexStats{}, err
	}
	t0 := time.Now()
	bc, adv, err := g.boundsCache().Advance(g2raw, sum, core.AdvanceOptions{RebuildRatio: m.indexRatio, Workers: m.workers})
	if err != nil {
		// The session built the inputs itself, so a mismatch is a bug, not
		// a bad delta; surface it rather than limping on with a cold index.
		return nil, IndexStats{}, fmt.Errorf("%w: %v", ErrIndexMaintenance, err)
	}
	g2 := &Graph{g: g2raw}
	g2.adoptBounds(bc)
	stats := IndexStats{
		Mode:             adv.Mode(),
		BatchWidth:       len(parts),
		AffectedRows:     adv.AffectedRows,
		TotalRows:        adv.TotalRows,
		AffectedShare:    adv.WorkShare,
		FrontierRows:     adv.FrontierRows,
		LabelsRecomputed: adv.LabelsRecomputed,
		LabelsCopied:     adv.LabelsCopied,
		WallMicros:       time.Since(t0).Microseconds(),
		ShardWallMicros:  adv.ShardWallMicros,
	}
	// The warm result cache advances with the same off-to-the-side
	// discipline as the bound index: maintained per-pattern states are
	// carried to g2 by delta-proportional IncCompute (or evicted past the
	// work-share ratio). A cached entry is carried over as it is when the
	// delta touched none of its candidate pairs and, for index-bounded
	// engine entries, none of its can(uo) bound rows (just advanced into
	// g2); every other entry is recomputed from the advanced state. Nothing
	// is installed until the commit is past its last fallible step, because
	// entries keyed to a version that is never published could collide with
	// a later commit's use of the same number.
	installWarm := m.advanceWarm(g2, merged)
	// Durability is the last fallible step: once the sink acknowledges the
	// deltas the swap below is unconditional, and if it refuses, nothing was
	// published — queries keep seeing the old snapshot, which is exactly the
	// newest durable version. The served state never runs ahead of the WAL.
	// A batch logs one WAL record per part — recovery replays the same
	// per-request chain the acks described — under a single sync.
	if m.durability != nil {
		if len(parts) == 1 {
			err = m.durability.AppendDelta(g2, parts[0])
		} else {
			err = m.durability.AppendBatch(g2, parts)
		}
		if err != nil {
			return nil, IndexStats{}, fmt.Errorf("%w: %v", ErrDurabilityUnavailable, err)
		}
	}
	// Install the advanced entries before publishing g2: their keys carry
	// g2's version, so they are unreachable until the store below — the
	// first post-commit query already finds them warm.
	installWarm()
	m.cur.Store(g2)
	return g2, stats, nil
}

// CacheStats returns a snapshot of the session result-cache counters (the
// zero value when the Matcher was built without WithCache).
func (m *Matcher) CacheStats() CacheStats {
	if m.cache == nil {
		return CacheStats{}
	}
	s := m.cache.Stats()
	return CacheStats{
		Hits:           s.Hits,
		Misses:         s.Misses,
		Coalesced:      s.Coalesced,
		Evictions:      s.Evictions,
		Advanced:       s.Advanced,
		Carried:        s.Carried,
		Seeded:         s.Seeded,
		AdvanceEvicted: m.advanceEvicted.Load(),
		Entries:        s.Entries,
	}
}

// merged layers per-call options over the session defaults.
func (m *Matcher) merged(opts []Option) []Option {
	if len(opts) == 0 {
		return m.base
	}
	out := make([]Option, 0, len(m.base)+len(opts))
	out = append(out, m.base...)
	return append(out, opts...)
}

// Query kinds for cache-key derivation.
const (
	kindTopK        = "topk:"
	kindDiversified = "div:"
)

// queryKey returns the canonical cache key of one query: a hash over the
// graph snapshot version, the query kind, k, λ, every result-affecting
// option, and the pattern's text serialization (deterministic, so
// structurally equal patterns share a key). The version participates so
// that entries cached before a graph update can never be served after it —
// stale entries become unreachable rather than scanned and age out of the
// LRU. Parallelism is deliberately excluded — every worker count returns
// identical results — and for the full-evaluation algorithms (baseline,
// TopKDiv) the engine knobs that only steer early termination are
// normalized away, so e.g. WithBatches(8) and WithBatches(32) share the
// baseline's entry.
func queryKey(kind string, version uint64, p *Pattern, k int, lambda float64, o options) (string, error) {
	// Each entry point consults only its own algorithm flag: TopK ignores
	// approx and TopKDiversified ignores baseline, so the irrelevant flag is
	// dropped from the key (a session default for one family must not split
	// or collide the other family's entries).
	baseline, approx := o.baseline, o.approx
	var full bool
	if kind == kindTopK {
		approx = false
		full = baseline
	} else {
		baseline = false
		full = approx
	}
	strategy, seed, batches, bounds := o.engine.Strategy, o.engine.Seed, o.engine.NumBatches, o.engine.Bounds
	if batches <= 0 {
		batches = 16
	}
	if strategy != core.StrategyRandom {
		seed = 0
	}
	if full {
		// The full-evaluation algorithms never early-terminate, so the
		// feeding/bound knobs cannot affect their results.
		strategy, seed, batches, bounds = 0, 0, 0, 0
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%sv=%d|k=%d|lambda=%g|baseline=%v|approx=%v|strategy=%d|seed=%d|batches=%d|bounds=%d\n",
		kind, version, k, lambda, baseline, approx, strategy, seed, batches, bounds)
	if err := WritePattern(&buf, p); err != nil {
		return "", fmt.Errorf("divtopk: canonicalizing pattern for cache key: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return kind + hex.EncodeToString(sum[:]), nil
}

// QueryInfo reports how the session answered one query.
type QueryInfo struct {
	// Version is the graph snapshot version the answer was computed (or
	// cached) against.
	Version uint64 `json:"version"`
	// Cache is the result-cache provenance of the answer — "hit", "miss",
	// "advanced" (served from an entry the commit-time advance pass
	// installed, first hit only) or "seeded" (evaluated with
	// containment-seeded candidates) — or "" for a session without
	// WithCache. Queries that coalesced onto an in-flight evaluation report
	// the leader's provenance.
	Cache string `json:"cache,omitempty"`
}

// TopK answers one top-k query on the session; see the package-level TopK.
// Safe to call from multiple goroutines. With WithCache the returned Result
// may be shared with other callers and must be treated as read-only.
func (m *Matcher) TopK(p *Pattern, k int, opts ...Option) (*Result, error) {
	res, _, err := m.topK(p, k, m.merged(opts))
	return res, err
}

// TopKWithVersion is TopK reporting the graph snapshot version the answer
// was computed (or cached) against — what the serving layer echoes in its
// responses. A query racing an Update is answered consistently by exactly
// one snapshot, the one whose version is returned.
func (m *Matcher) TopKWithVersion(p *Pattern, k int, opts ...Option) (*Result, uint64, error) {
	res, info, err := m.topK(p, k, m.merged(opts))
	return res, info.Version, err
}

// TopKInfo is TopK reporting the full per-query provenance (snapshot
// version and cache status) the serving layer surfaces in its responses.
func (m *Matcher) TopKInfo(p *Pattern, k int, opts ...Option) (*Result, QueryInfo, error) {
	return m.topK(p, k, m.merged(opts))
}

// topK runs one top-k query with an already-merged option slice against the
// current snapshot, consulting the session cache when present. The snapshot
// is loaded once: evaluation and cache key agree on it even mid-Update.
func (m *Matcher) topK(p *Pattern, k int, merged []Option) (*Result, QueryInfo, error) {
	g := m.cur.Load()
	info := QueryInfo{Version: g.Version()}
	if m.cache == nil {
		res, err := TopK(g, p, k, merged...)
		return res, info, err
	}
	key, err := queryKey(kindTopK, info.Version, p, k, 0, buildOptions(merged))
	if err != nil {
		return nil, info, err
	}
	v, outcome, err := m.cache.DoStatus(key, func() (any, bool, error) {
		return m.warmLoad(g, p, kindTopK, k, 0, merged)
	})
	if err != nil {
		return nil, info, err
	}
	info.Cache = string(outcome)
	return v.(*Result), info, nil
}

// TopKDiversified answers one diversified top-k query on the session; see
// the package-level TopKDiversified. Safe to call from multiple goroutines.
// With WithCache the returned DiversifiedResult may be shared with other
// callers and must be treated as read-only.
func (m *Matcher) TopKDiversified(p *Pattern, k int, lambda float64, opts ...Option) (*DiversifiedResult, error) {
	res, _, err := m.topKDiversified(p, k, lambda, m.merged(opts))
	return res, err
}

// TopKDiversifiedWithVersion is TopKWithVersion's diversified counterpart.
func (m *Matcher) TopKDiversifiedWithVersion(p *Pattern, k int, lambda float64, opts ...Option) (*DiversifiedResult, uint64, error) {
	res, info, err := m.topKDiversified(p, k, lambda, m.merged(opts))
	return res, info.Version, err
}

// TopKDiversifiedInfo is TopKInfo's diversified counterpart.
func (m *Matcher) TopKDiversifiedInfo(p *Pattern, k int, lambda float64, opts ...Option) (*DiversifiedResult, QueryInfo, error) {
	return m.topKDiversified(p, k, lambda, m.merged(opts))
}

// topKDiversified is topK's counterpart for the diversified entry point. λ
// is validated before the cache key is derived: a NaN must surface as the
// structured ErrLambdaRange, not as a poisoned fingerprint.
func (m *Matcher) topKDiversified(p *Pattern, k int, lambda float64, merged []Option) (*DiversifiedResult, QueryInfo, error) {
	g := m.cur.Load()
	info := QueryInfo{Version: g.Version()}
	if err := validateLambda(lambda); err != nil {
		return nil, info, err
	}
	if m.cache == nil {
		res, err := TopKDiversified(g, p, k, lambda, merged...)
		return res, info, err
	}
	key, err := queryKey(kindDiversified, info.Version, p, k, lambda, buildOptions(merged))
	if err != nil {
		return nil, info, err
	}
	v, outcome, err := m.cache.DoStatus(key, func() (any, bool, error) {
		return m.warmLoad(g, p, kindDiversified, k, lambda, merged)
	})
	if err != nil {
		return nil, info, err
	}
	info.Cache = string(outcome)
	return v.(*DiversifiedResult), info, nil
}

// batchOptions prepares the option slice for one query of a batch: the
// worker pool already runs one query per core, so per-query parallelism
// defaults to 1 inside a batch (no oversubscription) unless the caller set
// Parallelism explicitly.
func (m *Matcher) batchOptions(opts []Option) []Option {
	merged := m.merged(opts)
	// n <= 0 is the documented "all cores" default, so any non-positive
	// setting counts as unset here.
	if buildOptions(merged).engine.Parallelism <= 0 {
		merged = append(merged[:len(merged):len(merged)], Parallelism(1))
	}
	return merged
}

// BatchTopK answers one top-k query per pattern concurrently over the
// session's bounded worker pool and returns the results in input order
// (duplicate patterns share one evaluation when the session caches). On
// error it reports the first failing query by position; queries that
// already finished are discarded.
func (m *Matcher) BatchTopK(patterns []*Pattern, k int, opts ...Option) ([]*Result, error) {
	merged := m.batchOptions(opts)
	results := make([]*Result, len(patterns))
	errs := make([]error, len(patterns))
	pool := parallel.NewPool(m.workers)
	for i := range patterns {
		pool.Go(func() {
			results[i], _, errs[i] = m.topK(patterns[i], k, merged)
		})
	}
	pool.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("divtopk: batch query %d: %w", i, err)
		}
	}
	return results, nil
}

// BatchTopKDiversified is BatchTopK for diversified queries: one
// TopKDiversified call per pattern, fanned out over the session pool,
// results in input order.
func (m *Matcher) BatchTopKDiversified(patterns []*Pattern, k int, lambda float64, opts ...Option) ([]*DiversifiedResult, error) {
	merged := m.batchOptions(opts)
	results := make([]*DiversifiedResult, len(patterns))
	errs := make([]error, len(patterns))
	pool := parallel.NewPool(m.workers)
	for i := range patterns {
		pool.Go(func() {
			results[i], _, errs[i] = m.topKDiversified(patterns[i], k, lambda, merged)
		})
	}
	pool.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("divtopk: batch query %d: %w", i, err)
		}
	}
	return results, nil
}
