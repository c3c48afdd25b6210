package divtopk

import (
	"bytes"
	"maps"
	"sync"

	"divtopk/internal/core"
	"divtopk/internal/diversify"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// This file is the warm result cache: the machinery that turns the session
// cache's "invalidate on commit" into "advance on commit". A cached entry
// for a hot pattern keeps the per-query incremental evaluation state
// (simulation.IncState: candidate index, product CSR, settled fixpoint)
// alongside the result. When a commit applies a delta, advanceWarm carries
// every maintained state to the new snapshot with IncCompute — delta-
// proportional work, same discipline as BoundsCache.Advance: advance against
// the old snapshot off to the side, install atomically, fall back to
// eviction past the work-share ratio (WithCacheAdvanceRatio) — and re-admits
// each cached entry under its post-delta key, so the first post-commit query
// for a hot pattern is a cache hit instead of a cold evaluation.
//
// An entry is re-evaluated only when the delta reaches its inputs. The
// early-termination run (§4, Proposition 3) reads the candidate product
// graph and the initial upper bounds h(uo,v); the full-evaluation family
// reads the product alone. So an entry is carried over unchanged, with no
// re-evaluation, when both of these hold:
//
//   - IncCompute touched no candidate pair (IncStats.TouchedPairs == 0).
//     Candidacy depends only on labels and attributes, so this also admits
//     appended nodes that match no pattern node.
//   - For engine entries whose bounds come from the bound index (label-count
//     and loose modes), the old and new index rows are equal at every
//     v ∈ can(uo) for every descendant label of uo (core.UpperBoundsEqual).
//     Tight bounds derive from the product and need only the first test.
//
// Everything else re-runs seeded with the advanced state. Carried entries
// still install through PutAdvanced; CacheStats counts them as Carried.
//
// Admission is containment-aware: when a new pattern's nodes are subsumed by
// a maintained pattern's (pattern.CondSubsumes — same label, subset
// predicates), its candidate lists are seeded from the donor's instead of
// scanned cold (simulation.BuildCandidatesSeeded), turning the cache into a
// cross-query accelerator. Seeding is an optimization of the scan only:
// every result is byte-identical to a cold evaluation, which the delta-chain
// fuzz in matcher_advance_test.go pins at every version.

const (
	// maxWarmPatterns bounds the pattern states a session maintains;
	// maxWarmDescriptors bounds the cached query shapes riding each state.
	// Past the state cap the least recently admitted state is replaced — the
	// same recency discipline as the result LRU itself.
	maxWarmPatterns    = 16
	maxWarmDescriptors = 8
)

// warmRegistry holds the per-pattern incremental states behind a session's
// warm result cache. Queries admit and read under mu; the commit path
// snapshots the states under mu, advances them outside it (holding only
// updateMu), and installs the results under mu again.
type warmRegistry struct {
	mu     sync.Mutex
	states map[string]*patternState // canonical pattern text -> state
	clock  uint64                   // admission/use ticks for LRU eviction
}

// patternState is the maintained evaluation state of one hot pattern against
// one graph snapshot, shared by every cached entry (any kind, k, λ, option
// set) of that pattern. Immutable once registered: the advance pass builds a
// replacement and swaps it in.
type patternState struct {
	text  string
	p     *Pattern
	inc   *simulation.IncState
	descs map[string]*descriptor // version-less key identity -> descriptor
	used  uint64
}

// descriptor is one cached query shape riding a patternState: everything
// needed to re-derive the entry's key and value at the next version.
type descriptor struct {
	kind   string
	k      int
	lambda float64
	opts   []Option
	// full marks the full-evaluation family (WithBaseline / WithApproximation):
	// a pure function of the candidate index, product and fixpoint, so an
	// unchanged state means an unchanged value. The early-termination family
	// additionally reads the initial upper bounds h(uo,v).
	full bool
	// val is the cached facade value at the state's version; base, for the
	// full family, the core-level match pool behind it — the input of the
	// unchanged-pool comparison that skips the diversify greedy re-scan.
	val  any
	base *core.Result
}

// putEntry is one advanced cache entry awaiting admission; the key is
// derived at install time from the post-delta snapshot version.
type putEntry struct {
	kind   string
	p      *Pattern
	k      int
	lambda float64
	o      options
	val    any
	// carried marks a value reused from the previous version unevaluated.
	carried bool
}

func patternText(p *Pattern) (string, error) {
	var buf bytes.Buffer
	if err := WritePattern(&buf, p); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// warmLoad is the cache loader of a warm session: it resolves (admitting if
// needed) the pattern's incremental state for the snapshot g and evaluates
// the query seeded with it. The bool result reports containment seeding.
func (m *Matcher) warmLoad(g *Graph, p *Pattern, kind string, k int, lambda float64, merged []Option) (any, bool, error) {
	if k < 1 || p.p.Validate() != nil {
		// Let the ordinary evaluation path produce the structured error.
		return m.coldLoad(g, p, kind, k, lambda, merged)
	}
	o := buildOptions(merged)
	// The version-less key identity: what makes two admissions of the same
	// query shape refresh one descriptor instead of accumulating.
	id, err := queryKey(kind, 0, p, k, lambda, o)
	if err != nil {
		return m.coldLoad(g, p, kind, k, lambda, merged)
	}
	st, registered, seeded := m.warmState(g, p)
	if st == nil {
		return m.coldLoad(g, p, kind, k, lambda, merged)
	}
	d := &descriptor{
		kind: kind, k: k, lambda: lambda, opts: merged,
		full: (kind == kindTopK && o.baseline) || (kind == kindDiversified && o.approx),
	}
	val, base, err := m.evalWarm(g, st.p, st.inc, d, nil, false)
	if err != nil {
		return nil, false, err
	}
	if registered {
		d.val, d.base = val, base
		m.warm.mu.Lock()
		if len(st.descs) < maxWarmDescriptors || st.descs[id] != nil {
			st.descs[id] = d
		}
		m.warm.mu.Unlock()
	}
	return val, seeded, nil
}

// coldLoad evaluates without warm-state maintenance (pattern or k invalid,
// registry raced past this snapshot): the plain pre-warm-cache loader.
func (m *Matcher) coldLoad(g *Graph, p *Pattern, kind string, k int, lambda float64, merged []Option) (any, bool, error) {
	if kind == kindTopK {
		res, err := TopK(g, p, k, merged...)
		if err != nil {
			return nil, false, err
		}
		return res, false, nil
	}
	res, err := TopKDiversified(g, p, k, lambda, merged...)
	if err != nil {
		return nil, false, err
	}
	return res, false, nil
}

// warmState returns the registered pattern state for (g, p), admitting one
// if absent — with containment-seeded candidate lists when a maintained
// pattern subsumes p's nodes. registered is false when the state could not
// be (or lost a race to be) registered; the returned state is then a
// transient usable for this evaluation only. seeded reports containment
// seeding. A nil state means warm evaluation is unavailable entirely.
func (m *Matcher) warmState(g *Graph, p *Pattern) (st *patternState, registered, seeded bool) {
	text, err := patternText(p)
	if err != nil {
		return nil, false, false
	}
	m.warm.mu.Lock()
	if m.warm.states == nil {
		m.warm.states = make(map[string]*patternState)
	}
	if cur := m.warm.states[text]; cur != nil && cur.inc.G == g.g {
		m.warm.clock++
		cur.used = m.warm.clock
		m.warm.mu.Unlock()
		return cur, true, false
	}
	// Containment seeding: among the states at this snapshot, pick the donor
	// covering the most of p's nodes (ties to the smallest pattern text, so
	// the choice is deterministic; any donor yields identical results).
	var seeds [][]graph.NodeID
	bestCover, bestText := 0, ""
	for _, donor := range m.warm.states {
		if donor.inc.G != g.g {
			continue
		}
		cover, n := pattern.NodeCover(p.p, donor.p.p)
		if n < bestCover || n == 0 || (n == bestCover && donor.text >= bestText) {
			continue
		}
		bestCover, bestText = n, donor.text
		seeds = make([][]graph.NodeID, p.p.NumNodes())
		for u, x := range cover {
			if x >= 0 {
				seeds[u] = donor.inc.CI.Lists[x]
			}
		}
	}
	m.warm.mu.Unlock()

	var ci *simulation.CandidateIndex
	if seeds != nil {
		ci = simulation.BuildCandidatesSeeded(g.g, p.p, seeds, m.workers)
		seeded = true
	} else {
		ci = simulation.BuildCandidatesParallel(g.g, p.p, m.workers)
	}
	st = &patternState{
		text:  text,
		p:     p,
		inc:   simulation.NewIncStateSeeded(g.g, p.p, ci, m.workers),
		descs: make(map[string]*descriptor),
	}

	m.warm.mu.Lock()
	defer m.warm.mu.Unlock()
	m.warm.clock++
	st.used = m.warm.clock
	if cur := m.warm.states[text]; cur != nil {
		if cur.inc.G == g.g {
			// Lost an admission race at the same snapshot: use the winner.
			cur.used = m.warm.clock
			return cur, true, seeded
		}
		if cur.inc.G.Version() > g.g.Version() {
			// A commit advanced past this query's snapshot; don't clobber the
			// newer state — evaluate with the transient one.
			return st, false, seeded
		}
	}
	if m.warm.states[text] == nil && len(m.warm.states) >= maxWarmPatterns {
		oldest, oldestUsed := "", uint64(0)
		for t, s := range m.warm.states {
			if oldest == "" || s.used < oldestUsed {
				oldest, oldestUsed = t, s.used
			}
		}
		delete(m.warm.states, oldest)
	}
	m.warm.states[text] = st
	return st, true, seeded
}

// evalWarm evaluates one cached query shape against gf seeded with the
// settled state inc (candidates, product CSR, fixpoint — all for gf's exact
// snapshot). It reproduces the facade dispatch of TopK/TopKDiversified
// byte-for-byte; Options.Prebuilt only spares rebuilding what inc already
// holds. prev, set by the advance pass, is the shape's previous descriptor:
// when poolCmp additionally confirms the candidate universe is unchanged (no
// node appends) and the evaluated match pool is identical to prev's, the
// previous value is reused — in particular, TopKDiv's greedy scan re-runs
// only when the advanced match set actually changed. The *core.Result return
// is the evaluated pool (full-evaluation family only).
func (m *Matcher) evalWarm(gf *Graph, p *Pattern, inc *simulation.IncState, d *descriptor, prev *descriptor, poolCmp bool) (any, *core.Result, error) {
	o := buildOptions(d.opts)
	eng := o.engine
	eng.Prebuilt = &core.PrebuiltEval{CI: inc.CI, Prod: inc.Prod, Sim: inc.Res}
	switch {
	case d.kind == kindTopK && o.baseline:
		base, err := core.MatchBaselineOpts(gf.g, p.p, d.k, true, eng)
		if err != nil {
			return nil, nil, err
		}
		if prev != nil && poolCmp && prev.base != nil && poolEqual(prev.base, base) {
			return prev.val, base, nil
		}
		return convertResult(gf, base), base, nil
	case d.kind == kindDiversified && o.approx:
		base, err := core.MatchBaselineOpts(gf.g, p.p, d.k, true, eng)
		if err != nil {
			return nil, nil, err
		}
		if prev != nil && poolCmp && prev.base != nil && poolEqual(prev.base, base) {
			return prev.val, base, nil
		}
		dres, err := diversify.TopKDivFromBase(base, d.k, d.lambda, eng)
		if err != nil {
			return nil, nil, err
		}
		return convertDiversified(gf, dres), base, nil
	case d.kind == kindTopK:
		if eng.Cache == nil && eng.Bounds != core.BoundTight {
			eng.Cache = gf.boundsCache()
		}
		res, err := core.TopK(gf.g, p.p, d.k, eng)
		if err != nil {
			return nil, nil, err
		}
		return convertResult(gf, res), nil, nil
	default:
		if eng.Cache == nil && eng.Bounds != core.BoundTight {
			eng.Cache = gf.boundsCache()
		}
		dres, err := diversify.TopKDH(gf.g, p.p, d.k, d.lambda, eng)
		if err != nil {
			return nil, nil, err
		}
		return convertDiversified(gf, dres), nil, nil
	}
}

// poolEqual reports whether two evaluated match pools are identical —
// node-for-node, relevance-for-relevance, set-for-set. Only meaningful when
// the two evaluations share one candidate universe (no node appends between
// them); the caller guards that, which also makes the relevant-set bitsets
// directly comparable (same RelSpace layout).
func poolEqual(a, b *core.Result) bool {
	if len(a.All) != len(b.All) || a.GlobalMatch != b.GlobalMatch || a.Cuo != b.Cuo {
		return false
	}
	for i := range a.All {
		ma, mb := &a.All[i], &b.All[i]
		if ma.Node != mb.Node || ma.Relevance != mb.Relevance {
			return false
		}
		if (ma.R == nil) != (mb.R == nil) || (ma.R != nil && !ma.R.Equal(mb.R)) {
			return false
		}
	}
	return true
}

// advanceWarm carries every maintained pattern state and its cached entries
// from the currently published snapshot to g2 (the caller — commitLocked,
// holding updateMu — has applied merged to it but not yet published it).
// States whose incremental advance trips the work-share ratio are evicted
// instead (IncOptions.NoFallback): a commit never pays a full rebuild for
// the cache's sake. Entries the delta cannot have changed are carried over
// without re-evaluation (see the carry rule at the top of this file).
// Nothing is published here: the returned install function
// swaps the advanced states in and admits the advanced entries under their
// post-delta keys, and the caller runs it only after the commit's last
// fallible step — entries for a version that is never published must never
// become reachable, since a later commit could reuse the version number.
func (m *Matcher) advanceWarm(g2 *Graph, merged *graph.Delta) func() {
	if m.cache == nil {
		return func() {}
	}
	gOld := m.cur.Load() // pre-delta snapshot: publication happens after us
	// Queries at gOld keep registering descriptors and bumping use ticks
	// under mu while this pass runs, so both are copied under the lock too.
	type snap struct {
		st    *patternState
		descs map[string]*descriptor
		used  uint64
	}
	m.warm.mu.Lock()
	states := make([]snap, 0, len(m.warm.states))
	for _, st := range m.warm.states {
		states = append(states, snap{st, maps.Clone(st.descs), st.used})
	}
	m.warm.mu.Unlock()
	if len(states) == 0 {
		return func() {}
	}

	type swap struct {
		old *patternState
		new *patternState
	}
	var (
		swaps   []swap
		drops   []*patternState
		puts    []putEntry
		evicted uint64
	)
	noAppends := len(merged.NodeAppends) == 0
	boundsOld, boundsNew := gOld.boundsCache(), g2.boundsCache()
	incOpts := simulation.IncOptions{
		Workers:        m.workers,
		RecomputeRatio: m.advanceRatio,
		NoFallback:     true,
	}
	for _, sn := range states {
		st := sn.st
		if st.inc.G != gOld.g {
			// Left behind by an earlier commit (admission race): unadvanceable.
			drops, evicted = append(drops, st), evicted+1
			continue
		}
		inc2, ist, err := simulation.IncCompute(st.inc, g2.g, merged, incOpts)
		if err != nil {
			drops, evicted = append(drops, st), evicted+1
			continue
		}
		// An untouched state (no candidate pair's adjacency changed, no
		// appended candidate) has the old candidate lists, product and
		// fixpoint, so full-family values carry over without re-evaluation.
		// Engine values additionally need equal initial upper bounds: tight
		// bounds derive from the product alone; index bounds from the bound
		// index rows at every v ∈ can(uo).
		untouched := ist.TouchedPairs == 0
		sameBounds := untouched && core.UpperBoundsEqual(boundsOld, boundsNew,
			pattern.Analyze(st.p.p).DescLabels, inc2.CI.Lists[st.p.p.Output()])
		st2 := &patternState{
			text: st.text, p: st.p, inc: inc2,
			descs: make(map[string]*descriptor, len(sn.descs)),
			used:  sn.used,
		}
		for id, d := range sn.descs {
			var (
				val  any
				base *core.Result
			)
			o := buildOptions(d.opts)
			carry := untouched && (d.full || o.engine.Bounds == core.BoundTight || sameBounds)
			if carry {
				val, base = d.val, d.base
			} else {
				val, base, err = m.evalWarm(g2, st.p, inc2, d, d, noAppends)
				if err != nil {
					continue // drop just this shape; the state stays useful
				}
			}
			st2.descs[id] = &descriptor{
				kind: d.kind, k: d.k, lambda: d.lambda, opts: d.opts,
				full: d.full, val: val, base: base,
			}
			puts = append(puts, putEntry{
				kind: d.kind, p: st.p, k: d.k, lambda: d.lambda,
				o: o, val: val, carried: carry,
			})
		}
		swaps = append(swaps, swap{old: st, new: st2})
	}

	return func() {
		m.warm.mu.Lock()
		for _, s := range swaps {
			if cur, ok := m.warm.states[s.old.text]; !ok || cur == s.old {
				m.warm.states[s.old.text] = s.new
			}
		}
		for _, st := range drops {
			if m.warm.states[st.text] == st {
				delete(m.warm.states, st.text)
			}
		}
		m.warm.mu.Unlock()
		// Every advanced entry is re-keyed with the post-delta version: the
		// old-version entries become unreachable the moment g2 is published,
		// exactly as if they had been invalidated — except their successors
		// are already warm.
		ver := g2.Version()
		var carried uint64
		for _, pe := range puts {
			key, err := queryKey(pe.kind, ver, pe.p, pe.k, pe.lambda, pe.o)
			if err != nil {
				continue
			}
			m.cache.PutAdvanced(key, pe.val)
			if pe.carried {
				carried++
			}
		}
		if carried > 0 {
			m.cache.AddCarried(carried)
		}
		if evicted > 0 {
			m.advanceEvicted.Add(evicted)
		}
	}
}
