// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§6, Fig. 4 and Fig. 5a-l), plus the
// λ-sensitivity result stated in the text and two ablations (upper-bound
// index modes, pattern shape). Each experiment returns a Figure whose rows
// and series mirror the paper's plots; cmd/experiments prints them, each
// with the paper's expected shape beside the measured rows.
//
// Graphs are ~100× smaller than the paper's by default (see ScaleSmall);
// the Scale presets control absolute sizes, and the claims checked are about
// shape (who wins, by what rough factor, how trends move), not seconds.
package bench

import (
	"fmt"
	"strings"
	"time"

	"divtopk/internal/core"
	"divtopk/internal/diversify"
	"divtopk/internal/gen"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// Scale fixes the dataset sizes and repetition counts of a harness run.
type Scale struct {
	Name string
	// Dataset sizes as (nodes, edges).
	YouTube, Citation, Amazon [2]int
	// SynthBase is the 1.0× size of the scalability sweeps (Fig. 5g/h/l);
	// the sweep multiplies it by 1.0..2.8 like the paper's 1M..2.8M axis.
	SynthBase [2]int
	// SynthSteps lists the sweep multipliers.
	SynthSteps []float64
	// Queries is the number of generated patterns averaged per data point
	// (the paper repeats each run 5 times).
	Queries int
	// K is the default k (the paper fixes k=10 unless k is the x-axis).
	K int
	// Seed drives all generation.
	Seed int64
}

// ScaleSmall finishes the full suite in a couple of minutes; the default
// for `go test -bench`.
// Densities are deliberately ~3× the real datasets' average degree: at ~100×
// fewer nodes than the paper's graphs this restores the match multiplicity
// regime its experiments operate in (hundreds of matches per query — e.g.
// ≥180 for YouTube |Q|=(4,8), §6 Exp-1), which is what the MR and
// early-termination dynamics depend on.
var ScaleSmall = Scale{
	Name:       "small",
	YouTube:    [2]int{12_000, 120_000},
	Citation:   [2]int{12_000, 110_000},
	Amazon:     [2]int{10_000, 100_000},
	SynthBase:  [2]int{6_000, 58_000},
	SynthSteps: []float64{1.0, 1.6, 2.2, 2.8},
	Queries:    3,
	K:          10,
	Seed:       1,
}

// ScaleMedium is the default of cmd/experiments.
var ScaleMedium = Scale{
	Name:       "medium",
	YouTube:    [2]int{30_000, 300_000},
	Citation:   [2]int{30_000, 275_000},
	Amazon:     [2]int{25_000, 250_000},
	SynthBase:  [2]int{10_000, 95_000},
	SynthSteps: []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8},
	Queries:    5,
	K:          10,
	Seed:       1,
}

// ByName returns a preset Scale.
func ByName(name string) (Scale, error) {
	switch name {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	default:
		return Scale{}, fmt.Errorf("bench: unknown scale %q (small|medium)", name)
	}
}

// Figure is one experiment's output: a table with one row per x value and
// one column per series, mirroring a subfigure of the paper.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []string
	Rows   []Row
	// Notes records the paper's expected shape; Format prints it beside the
	// measured rows.
	Notes string
}

// Row is one x point.
type Row struct {
	X    string
	Vals []float64
}

// Format renders the figure as an aligned text table.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %16s", s)
	}
	fmt.Fprintln(&b)
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-12s", r.X)
		for _, v := range r.Vals {
			fmt.Fprintf(&b, " %16.3f", v)
		}
		fmt.Fprintln(&b)
	}
	if f.Notes != "" {
		fmt.Fprintf(&b, "paper: %s\n", f.Notes)
	}
	return b.String()
}

// datasets caches generated graphs (and their descendant-label bound
// indices, which the paper amortizes across queries) within one harness run.
type datasets struct {
	sc     Scale
	cache  map[string]*graph.Graph
	bounds map[*graph.Graph]*core.BoundsCache
}

func newDatasets(sc Scale) *datasets {
	return &datasets{
		sc:     sc,
		cache:  map[string]*graph.Graph{},
		bounds: map[*graph.Graph]*core.BoundsCache{},
	}
}

// boundsFor returns the per-graph descendant-label index, building it once.
func (d *datasets) boundsFor(g *graph.Graph) *core.BoundsCache {
	if c, ok := d.bounds[g]; ok {
		return c
	}
	c := core.NewBoundsCache(g, true)
	d.bounds[g] = c
	return c
}

func (d *datasets) get(name string, n, m int) *graph.Graph {
	key := fmt.Sprintf("%s-%d-%d", name, n, m)
	if g, ok := d.cache[key]; ok {
		return g
	}
	var g *graph.Graph
	switch name {
	case "youtube":
		g = gen.YouTubeLike(n, m, d.sc.Seed)
	case "citation":
		g = gen.CitationLike(n, m, d.sc.Seed)
	case "amazon":
		g = gen.AmazonLike(n, m, d.sc.Seed)
	case "synthetic":
		g = gen.Synthetic(gen.SynthConfig{N: n, M: m, Seed: d.sc.Seed})
	default:
		panic("bench: unknown dataset " + name)
	}
	d.cache[key] = g
	return g
}

func (d *datasets) youtube() *graph.Graph {
	return d.get("youtube", d.sc.YouTube[0], d.sc.YouTube[1])
}
func (d *datasets) citation() *graph.Graph {
	return d.get("citation", d.sc.Citation[0], d.sc.Citation[1])
}
func (d *datasets) amazon() *graph.Graph {
	return d.get("amazon", d.sc.Amazon[0], d.sc.Amazon[1])
}

// patternsFor mines a suite of patterns; sizes follow the paper's (|Vp|,|Ep|)
// conventions for each figure.
func (d *datasets) patternsFor(g *graph.Graph, nodes, edges int, cyclic, preds bool) []*pattern.Pattern {
	ps, err := gen.Suite(g, gen.PatternConfig{
		Nodes: nodes, Edges: edges, Cyclic: cyclic, Predicates: preds, Seed: d.sc.Seed + int64(nodes*31+edges),
	}, d.sc.Queries)
	if err != nil {
		// Retry without the cyclic requirement rather than abort the whole
		// suite; record the substitution by panicking only when even that
		// fails (generation is deterministic, so tests catch it early).
		ps, err = gen.Suite(g, gen.PatternConfig{
			Nodes: nodes, Edges: edges, Predicates: preds, Seed: d.sc.Seed + int64(nodes*37+edges),
		}, d.sc.Queries)
		if err != nil {
			panic(fmt.Sprintf("bench: pattern generation failed: %v", err))
		}
	}
	return ps
}

// measured bundles the per-algorithm outcomes averaged over a suite.
type measured struct {
	time     time.Duration
	mr       float64 // examined / |Mu|
	f        float64 // diversification objective (diversified runs)
	examined float64
}

// runTopK measures one top-k algorithm over a pattern suite. The engine
// variants share the per-graph bound index (cache), mirroring the paper's
// precomputed index; its one-off construction is excluded from timings like
// any index build would be.
func runTopK(d *datasets, g *graph.Graph, ps []*pattern.Pattern, k int, algo string, seed int64) measured {
	cache := d.boundsFor(g)
	var out measured
	valid := 0
	for i, p := range ps {
		total := len(muSize(g, p))
		if total == 0 {
			continue
		}
		valid++
		start := time.Now()
		var stats core.Stats
		switch algo {
		case "match":
			res, err := core.MatchBaseline(g, p, k, false)
			if err != nil {
				panic(err)
			}
			stats = res.Stats
		case "topk":
			res, err := core.TopK(g, p, k, core.Options{Cache: cache})
			if err != nil {
				panic(err)
			}
			stats = res.Stats
		case "topknopt":
			res, err := core.TopK(g, p, k, core.Options{Strategy: core.StrategyRandom, Seed: seed + int64(i), Cache: cache})
			if err != nil {
				panic(err)
			}
			stats = res.Stats
		default:
			panic("bench: unknown algo " + algo)
		}
		out.time += time.Since(start)
		out.mr += float64(stats.MatchesFound) / float64(total)
		out.examined += float64(stats.MatchesFound)
	}
	if valid > 0 {
		out.time /= time.Duration(valid)
		out.mr /= float64(valid)
		out.examined /= float64(valid)
	}
	return out
}

// runDiv measures one diversified algorithm over a pattern suite (TopKDH
// shares the per-graph bound index like the other engine variants).
func runDiv(d *datasets, g *graph.Graph, ps []*pattern.Pattern, k int, lambda float64, algo string) measured {
	cache := d.boundsFor(g)
	var out measured
	valid := 0
	for _, p := range ps {
		start := time.Now()
		var (
			res *diversify.Result
			err error
		)
		switch algo {
		case "topkdiv":
			res, err = diversify.TopKDiv(g, p, k, lambda)
		case "topkdh":
			res, err = diversify.TopKDH(g, p, k, lambda, core.Options{Cache: cache})
		default:
			panic("bench: unknown algo " + algo)
		}
		if err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		if !res.GlobalMatch {
			continue
		}
		valid++
		out.time += elapsed
		// Score the selected set under the exact diversification function
		// (outside the timer): the heuristic's own F uses partial sets.
		nodes := make([]graph.NodeID, len(res.Matches))
		for i, m := range res.Matches {
			nodes[i] = m.Node
		}
		exact, ferr := diversify.ExactF(g, p, nodes, lambda, k)
		if ferr != nil {
			panic(ferr)
		}
		out.f += exact
	}
	if valid > 0 {
		out.time /= time.Duration(valid)
		out.f /= float64(valid)
	}
	return out
}

// muSize caches nothing (patterns are cheap to re-evaluate at harness
// scales); it returns Mu(Q,G,uo).
func muSize(g *graph.Graph, p *pattern.Pattern) []graph.NodeID {
	res := simulation.Compute(g, p)
	return res.MatchesOf(p.Output())
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }
