package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"divtopk"
	"divtopk/internal/core"
	"divtopk/internal/diversify"
	"divtopk/internal/durable"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
	"divtopk/internal/wal"
)

// span is one timed call into a layer. Spans of one replayed request share
// Req; Parent is the span that caused this one (0 for a request's root).
// A layer call that is only reachable inside a facade call is replayed on
// the same inputs right after the facade returns and recorded as the
// facade span's child, so the facade's self time is its duration minus its
// children's.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Note   string        `json:"note,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write emits them once the replay is over.
type tracer struct {
	t0    time.Time
	spans []span
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name, Start: time.Since(t.t0)})
	return len(t.spans)
}

func (t *tracer) end(id int) *span {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0)
	return s
}

// selfTime is a span's duration minus its direct children's.
func (t *tracer) selfTime(id int) time.Duration {
	d := t.spans[id-1].dur()
	for i := id; i < len(t.spans); i++ {
		if t.spans[i].Parent == id {
			d -= t.spans[i].dur()
		}
	}
	return d
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the durations of every span with the given name (and
// note, when note is not empty), in milliseconds.
func (t *tracer) durations(name, note string) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && (note == "" || s.Note == note) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// traceSink is the replayed session's durability sink: a WAL store with
// fsync always, whose appends are recorded as children of the commit span
// that makes them.
type traceSink struct {
	store  *durable.Store
	wal    string
	tr     *tracer
	parent *int
	bytes  *[]float64
}

func (s traceSink) AppendDelta(g *divtopk.Graph, d *divtopk.Delta) error {
	before := fileSize(s.wal)
	id := s.tr.begin("durable.append", *s.parent)
	err := s.store.Append(g.Unwrap().(*graph.Graph), d.Unwrap().(*graph.Delta))
	s.tr.end(id)
	if grown := fileSize(s.wal) - before; err == nil && grown > 0 {
		*s.bytes = append(*s.bytes, float64(grown))
	}
	return err
}

func (s traceSink) AppendBatch(g *divtopk.Graph, ds []*divtopk.Delta) error {
	raw := make([]*graph.Delta, len(ds))
	for i, d := range ds {
		raw[i] = d.Unwrap().(*graph.Delta)
	}
	id := s.tr.begin("durable.append", *s.parent)
	defer s.tr.end(id)
	return s.store.AppendBatch(g.Unwrap().(*graph.Graph), raw)
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// warmState mirrors one pattern state of the session's warm result cache:
// the incremental evaluation the commit-time advance carries forward and
// the query kinds cached for it.
type warmState struct {
	p     *pattern.Pattern
	inc   *simulation.IncState
	kinds map[bool]bool
	used  int
}

// maxWarmPatterns is the session's warm-registry capacity; the mirror
// evicts its least recently evaluated state past it, as the session does.
const maxWarmPatterns = 16

// step is one request of a replayed sequence: a query, or a delta when d is
// set.
type step struct {
	q *query
	d *delta
}

// replay runs steps in-process on one goroutine against a fresh cached
// Matcher over in.g with a WAL store in dir, timing the calls into each
// layer, and returns the per-layer metrics.
func replay(in *inputs, steps []step, dir string) (map[string]metric, *tracer, error) {
	tr := newTracer()
	workers := runtime.NumCPU()
	m := divtopk.NewMatcher(in.g, divtopk.WithCache(4096))
	cur := in.g.Unwrap().(*graph.Graph)
	bounds := core.NewBoundsCache(cur, true)
	bounds.Warm(nil)

	store, _, err := durable.Open(filepath.Join(dir, "replay-store"), durable.Options{Policy: wal.SyncAlways})
	if err != nil {
		return nil, nil, err
	}
	defer store.Close()
	ck := tr.begin("durable.checkpoint", 0)
	if err := store.Seed(cur); err != nil {
		return nil, nil, err
	}
	tr.end(ck)
	var (
		facade   int
		walBytes []float64
	)
	m.SetDurability(traceSink{store, filepath.Join(dir, "replay-store", "wal.log"), tr, &facade, &walBytes})

	var (
		states                        = map[string]*warmState{}
		pairs, prodEdges, mu, allocMB []float64
		ratio, early, examined        []float64
		incTouched, warmEntries       []float64
		affShare, frontier, relabeled []float64
		deltaOps, touchedCommits      []float64
		querySelf, commitSelf         []float64
	)
	for i, st := range steps {
		tr.req = i + 1
		root := tr.begin("request", 0)
		if st.d == nil {
			q := st.q
			ps := tr.begin("pattern.parse", root)
			p, err := divtopk.ReadPattern(strings.NewReader(q.text))
			tr.end(ps)
			if err != nil {
				return nil, nil, err
			}
			facade = tr.begin("divtopk.query", root)
			var info divtopk.QueryInfo
			if q.div {
				_, info, err = m.TopKDiversifiedInfo(p, topK, lambda)
			} else {
				_, info, err = m.TopKInfo(p, topK)
			}
			if err != nil {
				return nil, nil, err
			}
			tr.end(facade).Note = info.Cache
			if info.Cache == "miss" || info.Cache == "seeded" {
				// The session evaluated: replay the evaluation layer by layer.
				pp := p.UnwrapPattern().(*pattern.Pattern)
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				s := tr.begin("simulation.candidates", facade)
				ci := simulation.BuildCandidatesParallel(cur, pp, workers)
				tr.end(s)
				s = tr.begin("simulation.product", facade)
				prod := simulation.BuildProduct(cur, pp, ci, workers)
				tr.end(s)
				s = tr.begin("simulation.fixpoint", facade)
				sim := simulation.ComputeWithProduct(prod)
				tr.end(s)
				runtime.ReadMemStats(&ms1)
				nMu := float64(len(sim.MatchesOf(pp.Output())))
				pairs = append(pairs, float64(ci.NumPairs()))
				prodEdges = append(prodEdges, float64(prod.NumEdges()))
				mu = append(mu, nMu)
				allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
				opts := core.Options{Bounds: core.BoundLabelCount, Cache: bounds, Prebuilt: &core.PrebuiltEval{CI: ci, Prod: prod}}
				if q.div {
					s = tr.begin("diversify.topkdh", facade)
					res, err := diversify.TopKDH(cur, pp, topK, lambda, opts)
					tr.end(s)
					if err != nil {
						return nil, nil, err
					}
					examined = append(examined, float64(res.Stats.MatchesFound))
				} else {
					s = tr.begin("core.engine", facade)
					res, err := core.TopK(cur, pp, topK, opts)
					tr.end(s)
					if err != nil {
						return nil, nil, err
					}
					if nMu > 0 {
						ratio = append(ratio, float64(res.Stats.MatchesFound)/nMu)
					}
					early = append(early, b2f(res.Stats.EarlyTerminated))
				}
				querySelf = append(querySelf, ms(tr.selfTime(facade)))
				// Mirror the session's warm registry, which a later commit
				// advances.
				if ws := states[q.text]; ws != nil {
					ws.kinds[q.div], ws.used = true, i
				} else {
					if len(states) >= maxWarmPatterns {
						oldest := ""
						for t, ws := range states {
							if oldest == "" || ws.used < states[oldest].used {
								oldest = t
							}
						}
						delete(states, oldest)
					}
					states[q.text] = &warmState{pp, simulation.NewIncStateSeeded(cur, pp, ci, workers), map[bool]bool{q.div: true}, i}
				}
			}
			tr.end(root)
			continue
		}

		dd := st.d.build(cur.NumNodes())
		facade = tr.begin("divtopk.commit", root)
		_, _, err := m.UpdateBatch([]*divtopk.Delta{dd})
		tr.end(facade)
		if err != nil {
			return nil, nil, fmt.Errorf("replayed commit %d: %w", i, err)
		}
		s := tr.begin("graph.merge", facade)
		var merged graph.Delta
		err = merged.Merge(cur, dd.Unwrap().(*graph.Delta))
		tr.end(s)
		if err != nil {
			return nil, nil, err
		}
		deltaOps = append(deltaOps, float64(merged.Size()))
		s = tr.begin("graph.apply", facade)
		next, sum, err := graph.ApplyDeltaVersionStep(cur, &merged, 1)
		tr.end(s)
		if err != nil {
			return nil, nil, err
		}
		s = tr.begin("core.bounds_advance", facade)
		nextBounds, adv, err := bounds.Advance(next, sum, core.AdvanceOptions{})
		tr.end(s)
		if err != nil {
			return nil, nil, err
		}
		affShare = append(affShare, adv.WorkShare)
		frontier = append(frontier, float64(adv.FrontierRows))
		relabeled = append(relabeled, float64(adv.LabelsRecomputed))
		wa := tr.begin("divtopk.warm_advance", facade)
		entries, touched := 0, false
		for text, ws := range states {
			s := tr.begin("simulation.inc", wa)
			inc2, ist, err := simulation.IncCompute(ws.inc, next, &merged, simulation.IncOptions{Workers: workers, NoFallback: true})
			tr.end(s)
			if err != nil {
				// The session evicts such a state; so does the mirror.
				delete(states, text)
				continue
			}
			ws.inc = inc2
			incTouched = append(incTouched, float64(ist.TouchedPairs))
			touched = touched || ist.TouchedPairs > 0
			entries += len(ws.kinds)
			if len(merged.NodeAppends) == 0 && ist.TouchedPairs == 0 {
				// The session carries an untouched state's entries over
				// without re-evaluating them.
				continue
			}
			opts := core.Options{Bounds: core.BoundLabelCount, Cache: nextBounds,
				Prebuilt: &core.PrebuiltEval{CI: inc2.CI, Prod: inc2.Prod, Sim: inc2.Res}}
			for div := range ws.kinds {
				if div {
					_, err = diversify.TopKDH(next, ws.p, topK, lambda, opts)
				} else {
					_, err = core.TopK(next, ws.p, topK, opts)
				}
				if err != nil {
					return nil, nil, err
				}
			}
		}
		tr.end(wa)
		warmEntries = append(warmEntries, float64(entries))
		touchedCommits = append(touchedCommits, b2f(touched))
		commitSelf = append(commitSelf, ms(tr.selfTime(facade)))
		cur, bounds = next, nextBounds
		tr.end(root)
	}
	ck = tr.begin("durable.checkpoint", 0)
	if err := store.Checkpoint(cur); err != nil {
		return nil, nil, err
	}
	tr.end(ck)

	out := map[string]metric{
		"pattern.parse_p50_us":               {pct(tr.durations("pattern.parse", ""), 0.5) * 1000, "us"},
		"divtopk.hit_p50_us":                 {pct(append(tr.durations("divtopk.query", "hit"), tr.durations("divtopk.query", "advanced")...), 0.5) * 1000, "us"},
		"divtopk.miss_self_ms":               {mean(querySelf), "ms"},
		"divtopk.commit_p50_ms":              {pct(tr.durations("divtopk.commit", ""), 0.5), "ms"},
		"divtopk.commit_self_ms":             {mean(commitSelf), "ms"},
		"divtopk.warm_advance_ms_per_commit": {mean(tr.durations("divtopk.warm_advance", "")), "ms"},
		"divtopk.warm_entries_per_commit":    {mean(warmEntries), "count"},
		"simulation.candidates_ms":           {mean(tr.durations("simulation.candidates", "")), "ms"},
		"simulation.pairs":                   {mean(pairs), "count"},
		"simulation.product_ms":              {mean(tr.durations("simulation.product", "")), "ms"},
		"simulation.product_edges":           {mean(prodEdges), "count"},
		"simulation.fixpoint_ms":             {mean(tr.durations("simulation.fixpoint", "")), "ms"},
		"simulation.mu_size":                 {mean(mu), "count"},
		"simulation.alloc_mb_per_query":      {mean(allocMB), "MB"},
		"simulation.inc_ms":                  {mean(tr.durations("simulation.inc", "")), "ms"},
		"simulation.inc_touched_pairs":       {mean(incTouched), "count"},
		"simulation.touched_commit_share":    {mean(touchedCommits), "ratio"},
		"core.engine_ms":                     {mean(tr.durations("core.engine", "")), "ms"},
		"core.match_ratio":                   {mean(ratio), "ratio"},
		"core.early_terminated_share":        {mean(early), "ratio"},
		"core.bounds_advance_ms":             {mean(tr.durations("core.bounds_advance", "")), "ms"},
		"core.bounds_affected_share":         {mean(affShare), "ratio"},
		"core.frontier_rows":                 {mean(frontier), "count"},
		"core.labels_recomputed":             {mean(relabeled), "count"},
		"diversify.topkdh_ms":                {mean(tr.durations("diversify.topkdh", "")), "ms"},
		"diversify.examined":                 {mean(examined), "count"},
		"graph.merge_ms":                     {mean(tr.durations("graph.merge", "")), "ms"},
		"graph.apply_ms":                     {mean(tr.durations("graph.apply", "")), "ms"},
		"graph.delta_ops_mean":               {mean(deltaOps), "count"},
		"durable.append_ms":                  {mean(tr.durations("durable.append", "")), "ms"},
		"durable.wal_bytes_per_update":       {mean(walBytes), "bytes"},
		"durable.checkpoint_ms":              {mean(tr.durations("durable.checkpoint", "")), "ms"},
		"trace.span_cost_ns":                 {spanCost(), "ns"},
		"trace.replay_query_p50_ms":          {pct(queryRoots(tr), 0.5), "ms"},
		"trace.replayed_requests":            {float64(len(steps)), "count"},
	}

	return out, tr, nil
}

// queryRoots returns the root-span durations of the replayed queries.
func queryRoots(tr *tracer) []float64 {
	isQuery := map[int]bool{}
	for i := range tr.spans {
		if tr.spans[i].Name == "divtopk.query" {
			isQuery[tr.spans[i].Req] = true
		}
	}
	var out []float64
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Parent == 0 && s.Name == "request" && isQuery[s.Req] {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// spanCost measures what recording one span costs.
func spanCost() float64 {
	const n = 100_000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for range n {
		t.end(t.begin("x", 0))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
