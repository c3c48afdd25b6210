package simulation

import (
	"math/rand"
	"testing"

	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/testutil"
)

// relevantFixture computes everything needed for relevant-set assertions.
func relevantFixture(t *testing.T, keepSets bool) (*graph.Graph, map[string]graph.NodeID, *pattern.Pattern, *Result, *RelevantResult) {
	t.Helper()
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	ci := BuildCandidates(g, p)
	prod := BuildProduct(g, p, ci, 1)
	res := ComputeWithProduct(prod)
	if !res.Matched {
		t.Fatal("fixture must match")
	}
	an := pattern.Analyze(p)
	space := BuildRelSpace(g, p, res.CI, an)
	rel := ComputeRelevant(prod, an, space, res.InSim, p.Output(), keepSets, 1)
	return g, id, p, res, rel
}

func TestExample4RelevantSets(t *testing.T) {
	_, id, p, res, rel := relevantFixture(t, true)
	want := map[string][]string{
		"PM1": {"DB1", "PRG1", "ST1", "ST2"},
		"PM2": {"DB2", "DB3", "PRG2", "PRG3", "PRG4", "ST2", "ST3", "ST4"},
		"PM3": {"DB2", "DB3", "PRG2", "PRG3", "ST3", "ST4"},
		"PM4": {"DB2", "DB3", "PRG2", "PRG3", "ST3", "ST4"},
	}
	lo, _ := res.CI.PairRange(p.Output())
	for name, members := range want {
		pid := res.CI.Pair(p.Output(), id[name])
		if pid < 0 {
			t.Fatalf("%s is not a PM candidate", name)
		}
		i := pid - lo
		if got := rel.Sizes[i]; got != int32(len(members)) {
			t.Errorf("δr(PM,%s) = %d, want %d (Example 4)", name, got, len(members))
		}
		set := rel.Sets[i]
		if set == nil {
			t.Fatalf("set for %s not kept", name)
		}
		gotNodes := map[graph.NodeID]bool{}
		for _, v := range rel.Space.NodesOf(set) {
			gotNodes[v] = true
		}
		for _, m := range members {
			if !gotNodes[id[m]] {
				t.Errorf("R(PM,%s) missing %s", name, m)
			}
		}
		if len(gotNodes) != len(members) {
			t.Errorf("R(PM,%s) has %d members, want %d", name, len(gotNodes), len(members))
		}
	}
}

func TestSelfInclusionOnCycle(t *testing.T) {
	// Example 8: DB3's relevant set contains DB3 itself (cycle membership).
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	res := Compute(g, p)
	an := pattern.Analyze(p)
	m := RelevantSetNaive(g, p, res.CI, res.InSim, 1 /*DB*/, id["DB3"])
	wantMembers := []string{"ST3", "ST4", "DB2", "DB3", "PRG2", "PRG3"}
	if m.Count() != len(wantMembers) {
		t.Fatalf("R(DB,DB3) = %v, want %v", m, wantMembers)
	}
	for _, w := range wantMembers {
		if !m.Contains(int(id[w])) {
			t.Fatalf("R(DB,DB3) missing %s", w)
		}
	}
	_ = an
}

func TestCandidateProductUpperBoundExamples(t *testing.T) {
	// The h values of Examples 7 and 8 are relevant-set sizes over the
	// *candidate* product graph (alive = nil).
	g, id := testutil.Figure1()

	// Example 7, pattern Q1: h(PM2)=3, h(PM3)=2, h(PRG3)=h(PRG4)=1, h(DBk)=0.
	q1 := testutil.Example7Pattern()
	ci := BuildCandidates(g, q1)
	prod1 := BuildProduct(g, q1, ci, 1)
	an := pattern.Analyze(q1)
	space := BuildRelSpace(g, q1, ci, an)

	relPM := ComputeRelevant(prod1, an, space, nil, 0, false, 1)
	lo, _ := ci.PairRange(0)
	// PM4 is not listed in the paper's table; its bound is
	// R̂(PM,PM4) = {DB2, PRG2, DB3} = 3 (PRG2's only DB-successor is DB3).
	wantPM := map[string]int32{"PM1": 2, "PM2": 3, "PM3": 2, "PM4": 3}
	for name, want := range wantPM {
		i := ci.Pair(0, id[name]) - lo
		if relPM.Sizes[i] != want {
			t.Errorf("Q1 ĥ(PM,%s) = %d, want %d", name, relPM.Sizes[i], want)
		}
	}
	relPRG := ComputeRelevant(prod1, an, space, nil, 2, false, 1)
	loPRG, _ := ci.PairRange(2)
	for _, name := range []string{"PRG3", "PRG4"} {
		i := ci.Pair(2, id[name]) - loPRG
		if relPRG.Sizes[i] != 1 {
			t.Errorf("Q1 ĥ(PRG,%s) = %d, want 1 (Example 7)", name, relPRG.Sizes[i])
		}
	}

	// Example 8, full pattern Q: ĥ(DB2)=6, ĥ(PRG4)=7, ĥ(PM1)=4.
	q := testutil.Figure1Pattern()
	ci2 := BuildCandidates(g, q)
	prod2 := BuildProduct(g, q, ci2, 1)
	an2 := pattern.Analyze(q)
	space2 := BuildRelSpace(g, q, ci2, an2)

	relDB := ComputeRelevant(prod2, an2, space2, nil, 1, false, 1)
	loDB, _ := ci2.PairRange(1)
	if got := relDB.Sizes[ci2.Pair(1, id["DB2"])-loDB]; got != 6 {
		t.Errorf("ĥ(DB,DB2) = %d, want 6 (Example 8)", got)
	}
	relPRG2 := ComputeRelevant(prod2, an2, space2, nil, 2, false, 1)
	loP, _ := ci2.PairRange(2)
	if got := relPRG2.Sizes[ci2.Pair(2, id["PRG4"])-loP]; got != 7 {
		t.Errorf("ĥ(PRG,PRG4) = %d, want 7 (Example 8)", got)
	}
	relPMq := ComputeRelevant(prod2, an2, space2, nil, 0, false, 1)
	loPM, _ := ci2.PairRange(0)
	if got := relPMq.Sizes[ci2.Pair(0, id["PM1"])-loPM]; got != 4 {
		t.Errorf("ĥ(PM,PM1) = %d, want 4 (Example 8)", got)
	}
	// Example 8 prints PM2.h = 7; the candidate-product bound gives 8
	// (R̂(PM,PM2) = {DB2,DB3,PRG2,PRG3,PRG4,ST2,ST3,ST4}). Every other h in
	// Examples 7-8 reproduces exactly; we treat the 7 as a typo for 8 and
	// pin the sound value here (core.BoundTight documents the semantics).
	if got := relPMq.Sizes[ci2.Pair(0, id["PM2"])-loPM]; got != 8 {
		t.Errorf("ĥ(PM,PM2) = %d, want 8 (paper prints 7, a typo: the product bound is 8)", got)
	}
}

func TestRelevantAgainstNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(14)
		g := testutil.RandomGraph(rng, n, rng.Intn(3*n), labels)
		var p *pattern.Pattern
		if trial%3 == 0 {
			p = testutil.NonRootPattern(rng, 1+rng.Intn(5), rng.Intn(4), labels, trial%2 == 0)
		} else {
			p = testutil.RandomPattern(rng, 1+rng.Intn(5), rng.Intn(4), labels, trial%2 == 0)
		}
		ci := BuildCandidates(g, p)
		prod := BuildProduct(g, p, ci, 1)
		res := ComputeWithProduct(prod)
		an := pattern.Analyze(p)
		space := BuildRelSpace(g, p, res.CI, an)
		root := p.Output()

		for _, alive := range [][]bool{nil, res.InSim} {
			for _, workers := range []int{1, 4} {
				rel := ComputeRelevant(prod, an, space, alive, root, true, workers)
				lo, hi := res.CI.PairRange(root)
				for pid := lo; pid < hi; pid++ {
					if alive != nil && !alive[pid] {
						if rel.Sizes[pid-lo] != -1 {
							t.Fatalf("trial %d: dead pair has size %d", trial, rel.Sizes[pid-lo])
						}
						continue
					}
					naive := RelevantSetNaive(g, p, res.CI, alive, root, res.CI.V[pid])
					if int(rel.Sizes[pid-lo]) != naive.Count() {
						t.Fatalf("trial %d: size mismatch for pair (%d,%d): dp=%d naive=%d\npattern=%s",
							trial, root, res.CI.V[pid], rel.Sizes[pid-lo], naive.Count(), p)
					}
					set := rel.Sets[pid-lo]
					for _, v := range rel.Space.NodesOf(set) {
						if !naive.Contains(int(v)) {
							t.Fatalf("trial %d: dp set has extra node %d", trial, v)
						}
					}
				}
			}
		}
	}
}

func TestRelSpaceAndNodesOf(t *testing.T) {
	g, id := testutil.Figure1()
	p := testutil.Figure1Pattern()
	ci := BuildCandidates(g, p)
	an := pattern.Analyze(p)
	space := BuildRelSpace(g, p, ci, an)
	// Universe: DB, PRG, ST candidates = 3+4+4 = 11 distinct nodes.
	if space.Size() != 11 {
		t.Fatalf("relevant universe = %d, want 11", space.Size())
	}
	if space.Index(id["PM1"]) != -1 {
		t.Fatal("PM1 must not be in the relevant universe (PM not a descendant of itself)")
	}
	if space.Index(id["DB2"]) < 0 {
		t.Fatal("DB2 missing from relevant universe")
	}
	s := space.NewSet()
	s.Add(int(space.Index(id["DB2"])))
	nodes := space.NodesOf(s)
	if len(nodes) != 1 || nodes[0] != id["DB2"] {
		t.Fatalf("NodesOf = %v", nodes)
	}
}
