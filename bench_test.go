package divtopk

// Benchmark harness entry points: one benchmark per table/figure of the
// paper's evaluation (Fig. 5a-l), the Fig. 4 case study, the λ-sensitivity
// result, the two ablations, and the supplementary MR-vs-scale trend.
//
// Effectiveness figures (MR, F) are exposed through b.ReportMetric as custom
// benchmark metrics ("MR%", "F") next to the timing ones, so a single
//
//	go test -bench=. -benchmem
//
// regenerates every number of the paper's evaluation at the small scale
// (`go run ./cmd/experiments -figure all` prints the same tables with the
// paper's expected shape beside them; add -scale medium for larger graphs).

import (
	"strings"
	"sync"
	"testing"

	"divtopk/internal/bench"
	"divtopk/internal/graph"
	"divtopk/internal/pattern"
	"divtopk/internal/simulation"
)

// reportFigure runs one harness experiment per benchmark iteration and
// reports the last row's series as metrics (the full tables come from
// cmd/experiments; benchmarks track regressions).
func reportFigure(b *testing.B, run func(bench.Scale) *bench.Figure) {
	b.Helper()
	var fig *bench.Figure
	for i := 0; i < b.N; i++ {
		fig = run(bench.ScaleSmall)
	}
	if fig == nil || len(fig.Rows) == 0 {
		b.Fatal("empty figure")
	}
	// Average each series across rows and report it under the series name
	// (units must be whitespace-free for ReportMetric).
	for si, name := range fig.Series {
		sum := 0.0
		for _, r := range fig.Rows {
			sum += r.Vals[si]
		}
		b.ReportMetric(sum/float64(len(fig.Rows)), strings.ReplaceAll(name, " ", "_"))
	}
}

func BenchmarkFig5a(b *testing.B) { reportFigure(b, bench.Fig5a) }
func BenchmarkFig5b(b *testing.B) { reportFigure(b, bench.Fig5b) }
func BenchmarkFig5c(b *testing.B) { reportFigure(b, bench.Fig5c) }
func BenchmarkFig5d(b *testing.B) { reportFigure(b, bench.Fig5d) }
func BenchmarkFig5e(b *testing.B) { reportFigure(b, bench.Fig5e) }
func BenchmarkFig5f(b *testing.B) { reportFigure(b, bench.Fig5f) }
func BenchmarkFig5g(b *testing.B) { reportFigure(b, bench.Fig5g) }
func BenchmarkFig5h(b *testing.B) { reportFigure(b, bench.Fig5h) }
func BenchmarkFig5i(b *testing.B) { reportFigure(b, bench.Fig5i) }
func BenchmarkFig5j(b *testing.B) { reportFigure(b, bench.Fig5j) }
func BenchmarkFig5k(b *testing.B) { reportFigure(b, bench.Fig5k) }
func BenchmarkFig5l(b *testing.B) { reportFigure(b, bench.Fig5l) }

func BenchmarkFig4(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Fig4(bench.ScaleSmall)
	}
	if out == "" {
		b.Fatal("empty case study")
	}
}

func BenchmarkLambda(b *testing.B)         { reportFigure(b, bench.Lambda) }
func BenchmarkAblationBounds(b *testing.B) { reportFigure(b, bench.AblationBounds) }
func BenchmarkAblationShape(b *testing.B)  { reportFigure(b, bench.AblationShape) }
func BenchmarkMRScaleTrend(b *testing.B)   { reportFigure(b, bench.MRScale) }

// Sequential-vs-parallel benchmarks. The pair
// BenchmarkBuildCandidatesSequential / BenchmarkBuildCandidatesParallel (and
// likewise the TopKDiv pair) measures the same deterministic computation on
// a 150k-node generator graph with one worker versus all cores; on a >= 4
// core machine the parallel variant should win by well over 1.5x. See also
// BenchmarkParallelScaling for the full worker-count sweep.

var parallelBenchState struct {
	once sync.Once
	g    *Graph
	q    *Pattern
	gg   *graph.Graph
	pp   *pattern.Pattern
}

// parallelBenchInputs generates (once) the large graph and pattern shared by
// the sequential-vs-parallel benchmarks.
func parallelBenchInputs(b *testing.B) (*Graph, *Pattern, *graph.Graph, *pattern.Pattern) {
	b.Helper()
	s := &parallelBenchState
	s.once.Do(func() {
		s.g = NewYouTubeLike(150_000, 750_000, 1)
		q, err := GeneratePattern(s.g, 6, 10, true, true, 5)
		if err != nil {
			panic(err)
		}
		s.q = q
		s.gg = s.g.Unwrap().(*graph.Graph)
		s.pp = q.UnwrapPattern().(*pattern.Pattern)
	})
	return s.g, s.q, s.gg, s.pp
}

func benchBuildCandidates(b *testing.B, workers int) {
	_, _, gg, pp := parallelBenchInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ci := simulation.BuildCandidatesParallel(gg, pp, workers)
		if ci.NumPairs() == 0 {
			b.Fatal("no candidates")
		}
	}
}

func BenchmarkBuildCandidatesSequential(b *testing.B) { benchBuildCandidates(b, 1) }
func BenchmarkBuildCandidatesParallel(b *testing.B)   { benchBuildCandidates(b, 0) }

func benchTopKDiv(b *testing.B, workers int) {
	g, q, _, _ := parallelBenchInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopKDiversified(g, q, 10, 0.5, WithApproximation(), Parallelism(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKDivSequential(b *testing.B) { benchTopKDiv(b, 1) }
func BenchmarkTopKDivParallel(b *testing.B)   { benchTopKDiv(b, 0) }

// BenchmarkParallelScaling runs the harness's worker-count sweep (see
// internal/bench.ParallelScaling) and reports the parallel speedups as
// metrics.
func BenchmarkParallelScaling(b *testing.B) { reportFigure(b, bench.ParallelScaling) }

// BenchmarkBatchTopK measures Matcher.BatchTopK throughput: many concurrent
// queries sharing one warmed session, the serving-path scenario.
func BenchmarkBatchTopK(b *testing.B) {
	g := NewYouTubeLike(12_000, 120_000, 1)
	var patterns []*Pattern
	for seed := int64(1); seed <= 16; seed++ {
		q, err := GeneratePattern(g, 4, 8, true, true, seed)
		if err != nil {
			b.Fatal(err)
		}
		patterns = append(patterns, q)
	}
	m := NewMatcher(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.BatchTopK(patterns, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryTopK measures a single early-termination query end to end
// on a prebuilt graph (the per-query latency a library user sees).
func BenchmarkQueryTopK(b *testing.B) {
	g := NewYouTubeLike(12_000, 120_000, 1)
	q, err := GeneratePattern(g, 4, 8, true, true, 5)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := TopK(g, q, 10); err != nil { // warm the bound cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopK(g, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryBaseline is the find-all counterpart of BenchmarkQueryTopK.
func BenchmarkQueryBaseline(b *testing.B) {
	g := NewYouTubeLike(12_000, 120_000, 1)
	q, err := GeneratePattern(g, 4, 8, true, true, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopK(g, q, 10, WithBaseline()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryDiversified measures the diversified heuristic end to end.
func BenchmarkQueryDiversified(b *testing.B) {
	g := NewYouTubeLike(12_000, 120_000, 1)
	q, err := GeneratePattern(g, 4, 8, true, true, 5)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := TopKDiversified(g, q, 10, 0.5); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopKDiversified(g, q, 10, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
