package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"divtopk"
)

// answer is the part of a query response the output check compares: for
// each match its node, relevance and exactness, plus F on the diversified
// endpoint and whether G matches Q at all.
type answer struct {
	GlobalMatch bool        `json:"global_match"`
	F           float64     `json:"f"`
	Matches     []matchNode `json:"matches"`
}

type matchNode struct {
	Node      int  `json:"node"`
	Relevance int  `json:"relevance"`
	Exact     bool `json:"exact"`
}

// expectFunc computes the answer a query must get on a snapshot.
type expectFunc func(snap *divtopk.Graph, q *query) (*answer, error)

// coldAnswer evaluates q from scratch with the package-level entry points:
// no Matcher, no result cache.
func coldAnswer(snap *divtopk.Graph, q *query) (*answer, error) {
	var (
		ms []divtopk.Match
		a  answer
	)
	if q.div {
		res, err := divtopk.TopKDiversified(snap, q.pat, topK, lambda, divtopk.Parallelism(1))
		if err != nil {
			return nil, err
		}
		ms, a.GlobalMatch, a.F = res.Matches, res.GlobalMatch, res.F
	} else {
		res, err := divtopk.TopK(snap, q.pat, topK, divtopk.Parallelism(1))
		if err != nil {
			return nil, err
		}
		ms, a.GlobalMatch = res.Matches, res.GlobalMatch
	}
	a.Matches = make([]matchNode, len(ms))
	for i, m := range ms {
		a.Matches[i] = matchNode{m.Node, m.Relevance, m.Exact}
	}
	return &a, nil
}

// snapshots rebuilds the graph at chosen versions by replaying the acked
// deltas in version order on the base graph. acked[i] is the delta that
// produced version i+1.
type snapshots struct {
	base  *divtopk.Graph
	acked []*delta
}

// at returns the snapshots of the given versions, ascending; each is
// reached from the previous one by one merged delta.
func (s *snapshots) at(versions []uint64) (map[uint64]*divtopk.Graph, error) {
	vs := slices.Clone(versions)
	slices.Sort(vs)
	out := make(map[uint64]*divtopk.Graph, len(vs))
	cur, curV := s.base, uint64(0)
	for _, v := range vs {
		if v > uint64(len(s.acked)) {
			return nil, fmt.Errorf("an answer names version %d, but only %d updates were acknowledged", v, len(s.acked))
		}
		if v > curV {
			var merged divtopk.Delta
			n := cur.NumNodes()
			for _, d := range s.acked[curV:v] {
				if err := merged.Merge(cur, d.build(n)); err != nil {
					return nil, fmt.Errorf("replaying acked deltas: %w", err)
				}
				n += len(d.AddNodes)
			}
			next, err := divtopk.ApplyDelta(cur, &merged)
			if err != nil {
				return nil, fmt.Errorf("replaying acked deltas: %w", err)
			}
			cur, curV = next, v
		}
		out[v] = cur
	}
	return out, nil
}

// checkVersions picks the versions whose answers are checked: every
// version when there are at most maxChecked, otherwise the newest and an
// evenly spaced fixed-size sample of the older ones.
func checkVersions(seen map[uint64]bool) []uint64 {
	const maxChecked = 6
	var vs []uint64
	for v := range seen {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	if len(vs) <= maxChecked {
		return vs
	}
	out := []uint64{vs[len(vs)-1]}
	older := vs[:len(vs)-1]
	for j := range maxChecked - 1 {
		out = append(out, older[j*(len(older)-1)/(maxChecked-2)])
	}
	return out
}

// checkAnswers compares every collected answer at a checked version with
// expect on that version's snapshot. It returns the number of answers
// checked and a description of the first mismatch.
func checkAnswers(ans *answers, snaps *snapshots, expect expectFunc) (int, error) {
	seen := map[uint64]bool{}
	for k := range ans.m {
		seen[k.version] = true
	}
	versions := checkVersions(seen)
	graphs, err := snaps.at(versions)
	if err != nil {
		return 0, err
	}
	type task struct {
		k    answerKey
		body []byte
	}
	var tasks []task
	for k, b := range ans.m {
		if graphs[k.version] != nil {
			tasks = append(tasks, task{k, b})
		}
	}
	type exKey struct {
		q *query
		v uint64
	}
	var (
		mu       sync.Mutex
		expected = map[exKey]*answer{}
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan task)
	)
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				q := (*t.k.list)[t.k.q]
				err := func() error {
					var got answer
					if err := json.Unmarshal(t.body, &got); err != nil {
						return fmt.Errorf("decoding answer: %w", err)
					}
					mu.Lock()
					want := expected[exKey{q, t.k.version}]
					mu.Unlock()
					if want == nil {
						var err error
						if want, err = expect(graphs[t.k.version], q); err != nil {
							return fmt.Errorf("cold evaluation: %w", err)
						}
						mu.Lock()
						expected[exKey{q, t.k.version}] = want
						mu.Unlock()
					}
					return diffAnswers(&got, want)
				}()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("version %d, div=%v, pattern %q: %w", t.k.version, q.div, q.text, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, t := range tasks {
		next <- t
	}
	close(next)
	wg.Wait()
	return len(tasks), firstErr
}

func diffAnswers(got, want *answer) error {
	if got.GlobalMatch != want.GlobalMatch {
		return fmt.Errorf("global_match %v, want %v", got.GlobalMatch, want.GlobalMatch)
	}
	if got.F != want.F {
		return fmt.Errorf("F %v, want %v", got.F, want.F)
	}
	if !slices.Equal(got.Matches, want.Matches) {
		return fmt.Errorf("matches %v, want %v", got.Matches, want.Matches)
	}
	return nil
}
