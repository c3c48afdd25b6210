package divtopk

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestWarmCacheAdvanceEquivalenceFuzz is the correctness bar of the warm
// result cache: whatever the advance pass does on commit — advance a cached
// entry incrementally, carry it verbatim when the delta missed its candidate
// pairs and bound rows, evict it past the work-share ratio, or seed a fresh
// evaluation from a containment donor — every answer a cached session gives
// must be deeply equal to a never-cached session walking the same delta
// chain. Randomized chains cross the interesting boundaries (appends into
// the pattern's neighborhood, deletes of matched edges, no-op deltas), and
// the matrix covers both query kernels (TopK and TopKDiversified), both
// algorithm families of each (early-termination engine and
// find-all/approximation), the engine's bound sources (index rows, loose
// rows, tight product bounds) and random leaf selection, worker counts 1
// and 8, and all three advance policies.
func TestWarmCacheAdvanceEquivalenceFuzz(t *testing.T) {
	modes := []struct {
		name string
		opts []Option
	}{
		{"adaptive", nil},
		{"force-advance", []Option{WithCacheAdvanceRatio(1)}},
		{"force-evict", []Option{WithCacheAdvanceRatio(1e-9)}},
	}
	type querySpec struct {
		name string
		run  func(m *Matcher, q *Pattern, par int) (any, error)
	}
	queries := []querySpec{
		{"topk/engine", func(m *Matcher, q *Pattern, par int) (any, error) {
			return m.TopK(q, 8, Parallelism(par))
		}},
		{"topk/baseline", func(m *Matcher, q *Pattern, par int) (any, error) {
			return m.TopK(q, 8, Parallelism(par), WithBaseline())
		}},
		{"div/heuristic", func(m *Matcher, q *Pattern, par int) (any, error) {
			return m.TopKDiversified(q, 5, 0.5, Parallelism(par))
		}},
		{"div/approx", func(m *Matcher, q *Pattern, par int) (any, error) {
			return m.TopKDiversified(q, 5, 0.5, Parallelism(par), WithApproximation())
		}},
		// The carry rule branches on the bounds mode: tight bounds come from
		// the product alone, loose and label-count bounds from index rows.
		{"topk/tight", func(m *Matcher, q *Pattern, par int) (any, error) {
			return m.TopK(q, 8, Parallelism(par), WithTightBounds())
		}},
		{"div/loose", func(m *Matcher, q *Pattern, par int) (any, error) {
			return m.TopKDiversified(q, 5, 0.5, Parallelism(par), WithLooseBounds())
		}},
		{"topk/random", func(m *Matcher, q *Pattern, par int) (any, error) {
			return m.TopK(q, 8, Parallelism(par), WithRandomSelection(7))
		}},
	}

	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			base := batchFuzzGraph(t, rng)
			// Two mined patterns: label-only conditions over a 4-label space,
			// so the second frequently finds the first's cached state as a
			// containment donor and exercises the seeded admission path.
			q1, err := GeneratePattern(base, 3, 5, seed%2 == 0, true, seed)
			if err != nil {
				t.Fatal(err)
			}
			q2, err := GeneratePattern(base, 3, 4, seed%2 != 0, true, seed+100)
			if err != nil {
				t.Fatal(err)
			}
			patterns := []*Pattern{q1, q2}

			type session struct {
				name      string
				warm, ref *Matcher
				par       int
			}
			var sessions []session
			for _, mode := range modes {
				for _, par := range []int{1, 8} {
					opts := append([]Option{WithCache(64), Parallelism(par)}, mode.opts...)
					sessions = append(sessions, session{
						name: fmt.Sprintf("%s/p%d", mode.name, par),
						warm: NewMatcher(base, opts...),
						ref:  NewMatcher(base, Parallelism(par)),
						par:  par,
					})
				}
			}

			check := func(step int) {
				for _, s := range sessions {
					for _, q := range patterns {
						for _, qs := range queries {
							got, err := qs.run(s.warm, q, s.par)
							if err != nil {
								t.Fatalf("step %d %s %s (warm): %v", step, s.name, qs.name, err)
							}
							want, err := qs.run(s.ref, q, s.par)
							if err != nil {
								t.Fatalf("step %d %s %s (ref): %v", step, s.name, qs.name, err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("step %d %s %s: cached session diverged from never-cached reference:\ngot  %+v\nwant %+v",
									step, s.name, qs.name, got, want)
							}
						}
					}
				}
			}

			// Query once before the first delta so the warm registry holds
			// states and descriptors for every (pattern, family) the chain
			// will advance.
			check(-1)
			carried := make([]int, len(sessions))
			reran := make([]int, len(sessions))
			// Ten mined deltas, then two that append a node outside every
			// pattern's labels with an edge into the graph: those touch no
			// candidate pair and no existing bound row, so every chain also
			// runs the carry path, checked like any other step.
			for step := 0; step < 12; step++ {
				d := &Delta{}
				if step < 10 {
					d = mineBatchDelta(rng, sessions[0].warm.Graph(), int(seed)*100+step)
				} else {
					d.InsertEdge(sessions[0].warm.Graph().NumNodes()+d.AddNode("quiet"), step)
				}
				for i, s := range sessions {
					before := engineValues(s.warm)
					if _, err := s.warm.Update(d); err != nil {
						t.Fatalf("step %d %s (warm): %v", step, s.name, err)
					}
					for id, v := range engineValues(s.warm) {
						if old, ok := before[id]; ok && old == v {
							carried[i]++
						} else if ok {
							reran[i]++
						}
					}
					if _, err := s.ref.Update(d); err != nil {
						t.Fatalf("step %d %s (ref): %v", step, s.name, err)
					}
				}
				check(step)
			}

			// Sanity on the policy split: the forced-advance sessions must
			// have advanced entries and never tripped the ratio fallback,
			// while the forced-evict ones must have evicted on every commit
			// that touched a maintained product (a delta with zero affected
			// share still advances at zero cost — even a tiny ratio only
			// trips when there is work to skip).
			for i, s := range sessions {
				cs := s.warm.CacheStats()
				switch {
				case strings.HasPrefix(s.name, "adaptive"):
					// The carry rule must have fired both ways on engine
					// entries, or the equivalence above proves nothing about it.
					if carried[i] == 0 || reran[i] == 0 {
						t.Errorf("%s: engine entries carried %d, re-run %d across the chain; want both > 0", s.name, carried[i], reran[i])
					}
				case strings.HasPrefix(s.name, "force-advance"):
					if cs.Advanced == 0 {
						t.Errorf("%s: no entries advanced across 12 commits: %+v", s.name, cs)
					}
					if cs.AdvanceEvicted != 0 {
						t.Errorf("%s: forced-advance session hit the ratio fallback: %+v", s.name, cs)
					}
				case strings.HasPrefix(s.name, "force-evict"):
					if cs.AdvanceEvicted == 0 {
						t.Errorf("%s: forced-evict session never evicted: %+v", s.name, cs)
					}
				}
			}
		})
	}
}

// engineValues maps every early-termination entry a warm session maintains
// (pattern text + version-less key identity) to its cached value, so a test
// can tell an entry the advance pass carried (same value) from one it re-ran.
func engineValues(m *Matcher) map[string]any {
	m.warm.mu.Lock()
	defer m.warm.mu.Unlock()
	out := make(map[string]any)
	for text, st := range m.warm.states {
		for id, d := range st.descs {
			if !d.full {
				out[text+"\x00"+id] = d.val
			}
		}
	}
	return out
}

// carryFixture is a hand-built graph for the carry-rule tests, with the
// pattern A* -> B: can(uo) = {a1, a2, a6, a7}, and the output node's only
// descendant label is B. The X nodes match no pattern node. a2 reaches x4,
// which has no B successor yet, so a TopK(k=1) run terminates after one
// batch without examining a2; x3 is an X node no A node reaches.
type carryFixture struct {
	g          *Graph
	q          *Pattern
	a1, a2     int
	b0         int
	x3, x4, x9 int
}

func newCarryFixture(t *testing.T) carryFixture {
	t.Helper()
	b := NewGraphBuilder()
	var ids [11]int
	for i, l := range []string{"B", "A", "A", "X", "X", "B", "A", "A", "X", "X", "B"} {
		ids[i] = b.AddNode(l)
	}
	for _, e := range [][2]int{{2, 5}, {6, 0}, {8, 4}, {7, 6}, {1, 0}, {9, 0}, {3, 3}, {7, 7}, {2, 4}} {
		if err := b.AddEdge(ids[e[0]], ids[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	f := carryFixture{g: b.Build(), a1: ids[1], a2: ids[2], b0: ids[0], x3: ids[3], x4: ids[4], x9: ids[9]}
	pb := NewPatternBuilder()
	pa, pbn := pb.AddNode("A"), pb.AddNode("B")
	if err := pb.AddEdge(pa, pbn); err != nil {
		t.Fatal(err)
	}
	pb.Output(pa)
	q, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	f.q = q
	return f
}

// carryQueries are the cached shapes of the carry tests: both engine bound
// sources (index rows and tight product bounds), the diversified heuristic
// and the full-evaluation family.
var carryQueries = []struct {
	name string
	run  func(m *Matcher, q *Pattern) (any, error)
}{
	{"topk/engine", func(m *Matcher, q *Pattern) (any, error) { return m.TopK(q, 1) }},
	{"topk/tight", func(m *Matcher, q *Pattern) (any, error) { return m.TopK(q, 1, WithTightBounds()) }},
	{"div/heuristic", func(m *Matcher, q *Pattern) (any, error) { return m.TopKDiversified(q, 1, 0.5) }},
	{"topk/baseline", func(m *Matcher, q *Pattern) (any, error) { return m.TopK(q, 1, WithBaseline()) }},
}

// checkCarry commits d on a warm session holding every carryQueries entry
// and on a never-cached one, then checks which entries the advance pass
// carried (same value pointer, Carried advanced) and that every answer
// equals the never-cached session's field by field.
func checkCarry(t *testing.T, f carryFixture, d *Delta, wantCarried func(name string) bool) {
	t.Helper()
	warm, ref := NewMatcher(f.g, WithCache(64)), NewMatcher(f.g)
	before := make([]any, len(carryQueries))
	for i, cq := range carryQueries {
		v, err := cq.run(warm, f.q)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = v
	}
	carried0 := warm.CacheStats().Carried
	if _, err := warm.Update(d); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Update(d); err != nil {
		t.Fatal(err)
	}
	var wantN uint64
	for i, cq := range carryQueries {
		got, err := cq.run(warm, f.q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cq.run(ref, f.q)
		if err != nil {
			t.Fatal(err)
		}
		if carried := got == before[i]; carried != wantCarried(cq.name) {
			t.Errorf("%s: carried = %v, want %v", cq.name, carried, wantCarried(cq.name))
		}
		if wantCarried(cq.name) {
			wantN++
		}
		sameAnswer(t, cq.name, got, want)
	}
	if got := warm.CacheStats().Carried - carried0; got != wantN {
		t.Errorf("Carried advanced by %d, want %d", got, wantN)
	}
}

// sameAnswer compares a warm answer with the never-cached one: first the
// fields a wrongly carried early-termination entry would get wrong (Upper,
// Exact, Stats.EarlyTerminated), then the whole value.
func sameAnswer(t *testing.T, name string, got, want any) {
	t.Helper()
	var gm, wm []Match
	var gs, ws Stats
	switch w := want.(type) {
	case *Result:
		g := got.(*Result)
		gm, wm, gs, ws = g.All, w.All, g.Stats, w.Stats
	case *DiversifiedResult:
		g := got.(*DiversifiedResult)
		gm, wm, gs, ws = g.Matches, w.Matches, g.Stats, w.Stats
	}
	if gs.EarlyTerminated != ws.EarlyTerminated {
		t.Errorf("%s: EarlyTerminated = %v, want %v", name, gs.EarlyTerminated, ws.EarlyTerminated)
	}
	if len(gm) != len(wm) {
		t.Fatalf("%s: %d matches, want %d", name, len(gm), len(wm))
	}
	for i := range wm {
		if gm[i].Node != wm[i].Node || gm[i].Upper != wm[i].Upper || gm[i].Exact != wm[i].Exact {
			t.Errorf("%s: match %d = {node %d upper %d exact %v}, want {node %d upper %d exact %v}",
				name, i, gm[i].Node, gm[i].Upper, gm[i].Exact, wm[i].Node, wm[i].Upper, wm[i].Exact)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: warm answer diverged from never-cached session:\ngot  %+v\nwant %+v", name, got, want)
	}
}

// An edge among non-candidates that no output candidate reaches (x3 now
// reaches b0 through x9) changes x3's bound row but no candidate pair and
// no can(uo) row: all entries are carried.
func TestWarmCarryEdgeAmongNonCandidates(t *testing.T) {
	f := newCarryFixture(t)
	var d Delta
	d.InsertEdge(f.x3, f.x9)
	checkCarry(t, f, &d, func(string) bool { return true })
}

// An edge from x4, a non-candidate descendant of a2, to b0 touches no
// candidate pair but raises a2's bound for B from 1 to 2, which delays
// termination: the cold answer examines a2. The entries whose bounds come
// from the index must re-run; tight-bound and full-evaluation entries read
// only the unchanged product and are carried.
func TestWarmCarryBoundRowChangeReruns(t *testing.T) {
	f := newCarryFixture(t)
	var d Delta
	d.InsertEdge(f.x4, f.b0)
	checkCarry(t, f, &d, func(name string) bool {
		return name == "topk/tight" || name == "topk/baseline"
	})
}

// Appending a node whose label is outside the pattern adds no candidate,
// even with an edge into can(uo): both families are carried.
func TestWarmCarryNodeAppendOutsidePattern(t *testing.T) {
	f := newCarryFixture(t)
	var d Delta
	z := f.g.NumNodes() + d.AddNode("Z")
	d.InsertEdge(z, f.a1)
	checkCarry(t, f, &d, func(string) bool { return true })
}
