package core

import (
	"divtopk/internal/bitset"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// Pair status values.
const (
	statusUnknown uint8 = iota
	statusMatched
	statusDead
)

// engine is the incremental propagation machine shared by TopK, TopKDAG,
// their nopt variants and TopKDH. The comments below give the role of each
// counter.
//
// Per candidate pair (u,v) it tracks:
//
//   - status ∈ {unknown, matched, dead} and a finalized flag. Matched pairs
//     never die; dead pairs are finalized by definition.
//   - satCnt[slot]: matched successors per outgoing query edge; the pair's
//     boolean formula Xv = ∧_j ∨_i X_vi is true as soon as every edge has
//     satCnt > 0 (counted by satEdges).
//   - unfinCnt[slot]: not-yet-finalized successors per edge. An edge whose
//     unfinCnt reaches 0 with satCnt = 0 resolves the disjunction to false
//     and kills the pair — the lazy false-resolution of the paper's formula
//     semantics (no eager refinement at init; see newEngine).
//   - rset: the partial relevant set over the relevance universe, grown
//     monotonically toward R(u,v); maintained only for pairs whose query
//     node is the output node or one of its descendants.
//
// Query nodes are grouped into units (the SCCs of Q); nontrivial units are
// evaluated by greatest-fixpoint refinement (refineUnit), the engine's
// equivalent of the paper's SccProcess.
type engine struct {
	g     *graph.Graph
	p     *pattern.Pattern
	an    *pattern.Analysis
	ci    *simulation.CandidateIndex
	prod  *simulation.Product // materialized product CSR; all propagation walks it
	space *simulation.RelSpace
	opts  Options
	k     int
	uo    int
	nq    int

	// Per query node.
	needEdges []int32 // number of outgoing query edges
	relQ      []bool  // track relevant sets for this query node's pairs
	matchCnt  []int32 // matched pairs per query node (global-match check)
	aliveCnt  []int32 // non-dead pairs per query node (emptiness abort)

	// Per pair.
	status    []uint8
	finalized []bool
	fed       []bool
	satEdges  []int32
	base      []int32 // first counter slot of the pair
	rset      []*bitset.Set

	// Per (pair, child edge) slot.
	satCnt   []int32
	unfinCnt []int32

	// Per pair: total unfinalized successors (all child edges, in-unit
	// included). Drives per-pair finalization; pairs on product cycles
	// never drain it pairwise and are resolved by unit finalization.
	unfinTotal []int32

	// Units = SCCs of Q.
	unitOf          []int32 // query node -> unit
	nUnits          int
	unitNodes       [][]int32
	unitRank        []int32
	unitNontrivial  []bool
	unitLeaf        []bool
	unitOutstanding []int64 // pending cross-unit finalizations + unfed leaf pairs
	unitDirty       []bool
	unitPendingFin  []bool
	unitFinalized   []bool
	dirtyUnits      []int32

	// Upper bounds for output-node candidates (indexed by pair - uoLo).
	upper      []int32
	uoLo, uoHi int32

	// Event queues.
	matchQ  []int32
	finalQ  []int32 // finalization events (deaths included)
	newRelM []int32 // newly matched relevance-tracked pairs, for the R phase

	// R propagation worklist: per pair either a pending full-set forward
	// (rFull) or a list of newly added bit indices (rDelta).
	rQueue   []int32
	rInQueue []bool
	rFull    []bool
	rDelta   [][]int32

	feeder       *feeder
	stats        Stats
	abortedEmpty bool
	hookReported []bool // uo matches already surfaced to Options.Hook

	// rarena allocates the partial relevant sets (rset) of interior
	// (non-output) pairs from shared chunks: one heap allocation per chunk
	// instead of per matched pair. Output-node sets are allocated
	// individually instead (space.NewSet) because they escape through
	// Result.Match.R and must not pin chunks past the engine's lifetime.
	rarena *bitset.Arena
}

// newEngine builds and initializes the engine, running the init-time
// finalization cascade (empty disjunctions). Returns nil when some query
// node has no candidates at all (G cannot match Q).
func newEngine(g *graph.Graph, p *pattern.Pattern, k int, opts Options) (*engine, error) {
	if err := validateInputs(g, k); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}

	e := &engine{
		g: g, p: p, opts: opts, k: k,
		uo: p.Output(), nq: p.NumNodes(),
	}
	e.an = pattern.Analyze(p)
	if opts.Prebuilt != nil && opts.Prebuilt.CI != nil {
		e.ci = opts.Prebuilt.CI
	} else {
		e.ci = simulation.BuildCandidatesParallel(g, p, opts.Workers())
	}
	e.space = simulation.BuildRelSpace(g, p, e.ci, e.an)
	e.stats.PairsTotal = e.ci.NumPairs()
	e.uoLo, e.uoHi = e.ci.PairRange(e.uo)
	e.stats.CandidatesOfOutput = int(e.uoHi - e.uoLo)

	for u := 0; u < e.nq; u++ {
		if len(e.ci.Lists[u]) == 0 {
			// Some query node has no candidates: M(Q,G) = ∅.
			e.abortedEmpty = true
			return e, nil
		}
	}

	if opts.Prebuilt != nil && opts.Prebuilt.Prod != nil {
		// Shared read-only: initPairState aliases prod.Base but allocates its
		// own counters, and propagation never writes product arrays.
		e.prod = opts.Prebuilt.Prod
	} else {
		e.prod = simulation.BuildProduct(g, p, e.ci, opts.Workers())
	}
	e.rarena = bitset.NewArena(e.space.Size())
	e.initPatternStructure()
	e.initUnits()
	e.initPairState()
	e.upper = computeUpperBounds(e.prod, e.an, e.space, opts)
	if opts.UpperOverride != nil {
		for i := e.uoLo; i < e.uoHi; i++ {
			if h, ok := opts.UpperOverride[e.ci.V[i]]; ok {
				e.upper[i-e.uoLo] = h
			}
		}
	}

	leaves := e.collectLeafPairs()
	e.feeder = newFeeder(e, leaves, opts)

	// Resolve init-time deaths (empty disjunctions) to quiescence.
	e.drainEvents()
	return e, nil
}

func (e *engine) initPatternStructure() {
	// No slot tables here anymore: the reverse product CSR carries each
	// edge's absolute counter slot (prod.RevSlot), which is what the old
	// per-query-node slotOf maps and inSlots lists existed to compute.
	e.needEdges = make([]int32, e.nq)
	e.relQ = make([]bool, e.nq)
	e.matchCnt = make([]int32, e.nq)
	e.aliveCnt = make([]int32, e.nq)
	for u := 0; u < e.nq; u++ {
		e.needEdges[u] = int32(len(e.p.Out(u)))
		e.relQ[u] = u == e.uo || e.an.OutputDesc[u]
		e.aliveCnt[u] = int32(len(e.ci.Lists[u]))
	}
}

func (e *engine) initUnits() {
	cond := e.an.Cond
	e.nUnits = cond.NumComps
	e.unitOf = make([]int32, e.nq)
	e.unitNodes = make([][]int32, e.nUnits)
	e.unitRank = cond.Rank
	e.unitNontrivial = cond.Nontrivial
	e.unitLeaf = make([]bool, e.nUnits)
	e.unitOutstanding = make([]int64, e.nUnits)
	e.unitDirty = make([]bool, e.nUnits)
	e.unitPendingFin = make([]bool, e.nUnits)
	e.unitFinalized = make([]bool, e.nUnits)

	for u := 0; u < e.nq; u++ {
		c := cond.Comp[u]
		e.unitOf[u] = c
		e.unitNodes[c] = append(e.unitNodes[c], int32(u))
	}
	for c := 0; c < e.nUnits; c++ {
		e.unitLeaf[c] = cond.Rank[c] == 0
	}
}

func (e *engine) initPairState() {
	total := e.ci.NumPairs()
	e.status = make([]uint8, total)
	e.finalized = make([]bool, total)
	e.fed = make([]bool, total)
	e.satEdges = make([]int32, total)
	e.rset = make([]*bitset.Set, total)
	e.unfinTotal = make([]int32, total)
	// The counter layout is exactly the product's slot layout: one slot per
	// (pair, outgoing query edge), so the arrays share prod.Base and the
	// reverse CSR's absolute slots index them directly.
	e.base = e.prod.Base
	e.satCnt = make([]int32, e.base[total])
	e.unfinCnt = make([]int32, e.base[total])
	e.rInQueue = make([]bool, total)
	e.rFull = make([]bool, total)
	e.rDelta = make([][]int32, total)

	// unfinCnt init: candidate successors per (pair, edge) — the product
	// slot lengths; empty disjunctions die. Cross-unit counts feed
	// unitOutstanding. Counters must be fully accumulated before any death
	// runs — a death decrements unitOutstanding and could otherwise observe
	// a half-built counter and finalize a unit prematurely — hence the two
	// passes.
	var initDead []int32
	for q := int32(0); q < int32(total); q++ {
		u := int(e.ci.U[q])
		unit := e.unitOf[u]
		emptyEdge := false
		for j, uc := range e.p.Out(u) {
			c := e.prod.SlotLen(e.base[q] + int32(j))
			e.unfinCnt[e.base[q]+int32(j)] = c
			if c == 0 {
				emptyEdge = true
			}
			e.unfinTotal[q] += c
			if e.unitNontrivial[unit] && e.unitOf[uc] != unit {
				e.unitOutstanding[unit] += int64(c)
			}
		}
		if e.unitNontrivial[unit] && e.unitLeaf[unit] {
			e.unitOutstanding[unit]++ // pending feed of this pair
		}
		if emptyEdge {
			initDead = append(initDead, q)
		}
	}
	for _, q := range initDead {
		e.die(q)
	}
}

// collectLeafPairs lists the candidate pairs of rank-0 query nodes in pair
// order (the universe the feeder draws Sc from).
func (e *engine) collectLeafPairs() []int32 {
	var out []int32
	for u := 0; u < e.nq; u++ {
		if e.unitRank[e.unitOf[u]] != 0 {
			continue
		}
		lo, hi := e.ci.PairRange(u)
		for q := lo; q < hi; q++ {
			out = append(out, q)
		}
	}
	return out
}

// markDirty schedules a nontrivial unit for (re-)refinement.
func (e *engine) markDirty(unit int32) {
	if !e.unitDirty[unit] && !e.unitFinalized[unit] {
		e.unitDirty[unit] = true
		e.dirtyUnits = append(e.dirtyUnits, unit)
	}
}

// outstandingDec decrements a unit's pending-work counter and schedules the
// final refinement when it hits zero.
func (e *engine) outstandingDec(unit int32) {
	e.unitOutstanding[unit]--
	if e.unitOutstanding[unit] == 0 && !e.unitFinalized[unit] {
		e.unitPendingFin[unit] = true
		e.markDirty(unit)
		// markDirty refuses finalized units but unitPendingFin forces a
		// last refinement even if the dirty flag was already set.
		if !e.unitDirty[unit] {
			e.unitDirty[unit] = true
			e.dirtyUnits = append(e.dirtyUnits, unit)
		}
	}
}
