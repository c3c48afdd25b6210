// Package gen generates the datasets and query workloads of the paper's
// evaluation (§6). The module is offline, so the three real-life graphs
// (Amazon co-purchase, ArnetMiner Citation, YouTube recommendations) are
// substituted by seeded generators that preserve the properties the
// algorithms are sensitive to — directed scale-free topology via the
// linkage/preferential-attachment model the paper itself uses for its
// synthetic data [12], matching label alphabets, the attributes its
// patterns filter on, and (for Citation) acyclicity. See internal/bench's
// Scale presets for the sizes the experiments use.
//
// Pattern workloads are instance-guided: every generated pattern is carved
// out of an actual subgraph of the target graph, which guarantees a
// non-empty Mu(Q,G,uo) — the property the paper's hand-picked query sets
// have by construction.
package gen

import (
	"fmt"
	"math/rand"

	"divtopk/internal/graph"
)

// SynthConfig controls the synthetic generator.
type SynthConfig struct {
	// N and M are the node and edge counts (|V|, |E|).
	N, M int
	// Labels is the alphabet size; the paper uses 15.
	Labels int
	// Seed makes generation deterministic.
	Seed int64
}

// Synthetic produces a directed scale-free graph following the linkage
// generation model: an edge endpoint is attached to high-degree nodes with
// higher probability (preferential attachment), with uniformly assigned
// labels from a 15-letter alphabet by default.
func Synthetic(cfg SynthConfig) *graph.Graph {
	if cfg.Labels <= 0 {
		cfg.Labels = 15
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder()
	for i := 0; i < cfg.N; i++ {
		b.AddNode(fmt.Sprintf("L%d", rng.Intn(cfg.Labels)), nil)
	}
	// Social graphs exhibit link reciprocity; a modest share keeps the
	// graph cyclic enough that the paper's cyclic pattern workloads (5 of
	// its 9 synthetic patterns) can be mined from instances.
	addPreferentialEdges(b, rng, cfg.N, cfg.M, 0.15)
	return b.Build()
}

// addPreferentialEdges adds m edges among n existing nodes: one endpoint
// uniform, the other drawn from a degree-weighted pool (every node starts
// with one ticket; every edge endpoint adds one). reciprocal is the
// probability of also inserting the reverse edge (giving the 2-cycles that
// co-purchase and recommendation networks exhibit); reciprocal edges count
// toward m.
func addPreferentialEdges(b *graph.Builder, rng *rand.Rand, n, m int, reciprocal float64) {
	if n == 0 {
		return
	}
	pool := make([]graph.NodeID, 0, n+2*m)
	for i := 0; i < n; i++ {
		pool = append(pool, graph.NodeID(i))
	}
	added := 0
	for added < m {
		u := graph.NodeID(rng.Intn(n))
		v := pool[rng.Intn(len(pool))]
		if u == v {
			continue
		}
		// Endpoints in range: AddEdge cannot fail.
		_ = b.AddEdge(u, v)
		pool = append(pool, u, v)
		added++
		if added < m && rng.Float64() < reciprocal {
			_ = b.AddEdge(v, u)
			added++
		}
	}
}

// amazonGroups mirrors the product groups of the Amazon co-purchase data.
var amazonGroups = []string{
	"Book", "Music", "DVD", "Video", "Software", "Game", "Toy", "Electronics",
}

// AmazonLike generates a co-purchase-style network: product nodes labeled
// with their group, a salesrank attribute, and scale-free directed
// co-purchase links with a reciprocal share (people who buy x also buy y —
// and often vice versa), making the graph cyclic like the real dataset.
func AmazonLike(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(amazonGroups[rng.Intn(len(amazonGroups))], map[string]graph.Value{
			"salesrank": graph.IntValue(1 + rng.Int63n(1_000_000)),
		})
	}
	addPreferentialEdges(b, rng, n, m, 0.30)
	return b.Build()
}

// citationAreas mirrors publication venues/areas of the Citation data.
var citationAreas = []string{
	"DB", "ML", "OS", "PL", "NET", "SEC", "IR", "HCI", "ARCH", "THEORY",
	"GRAPHICS", "BIO", "SE", "CRYPTO",
}

// CitationLike generates a citation-style DAG: papers appear in time order
// and only cite older papers (guaranteeing acyclicity, as the real Citation
// graph is a DAG — the paper runs only DAG patterns on it), preferentially
// citing highly cited papers. Nodes carry an area label and a year
// attribute.
func CitationLike(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		year := 1960 + (i*55)/max(n, 1)
		b.AddNode(citationAreas[rng.Intn(len(citationAreas))], map[string]graph.Value{
			"year": graph.IntValue(int64(year)),
		})
	}
	if n < 2 {
		return b.Build()
	}
	// Citation pool: older papers gain tickets as they are cited.
	pool := make([]graph.NodeID, 0, n+m)
	for i := 0; i < n; i++ {
		pool = append(pool, graph.NodeID(i))
	}
	for added := 0; added < m; {
		u := 1 + rng.Intn(n-1) // citing paper (must have someone older)
		v := pool[rng.Intn(len(pool))]
		if int(v) >= u {
			// Redraw cheaply: cite a uniformly random older paper instead.
			v = graph.NodeID(rng.Intn(u))
		}
		_ = b.AddEdge(graph.NodeID(u), v)
		pool = append(pool, v)
		added++
	}
	return b.Build()
}

// youtubeCategories mirrors the video categories of the YouTube data; the
// paper's case-study patterns filter on category (C), age (A), views (V)
// and rate (R).
var youtubeCategories = []string{
	"music", "entertainment", "comedy", "sports", "news",
	"education", "film", "gaming", "howto", "people",
}

// YouTubeLike generates a recommendation-style network: video nodes labeled
// with a category and carrying A(ge), V(iews) and R(ate) attributes, linked
// by scale-free recommendation edges with a reciprocal share (related
// videos recommend each other), making the graph cyclic.
func YouTubeLike(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		cat := youtubeCategories[rng.Intn(len(youtubeCategories))]
		views := int64(100 * (1 << uint(rng.Intn(12)))) // log-ish spread 100..409600
		views += rng.Int63n(views)
		b.AddNode(cat, map[string]graph.Value{
			"C": graph.StrValue(cat), // the paper's patterns predicate on C
			"A": graph.IntValue(1 + rng.Int63n(2000)),
			"V": graph.IntValue(views),
			"R": graph.IntValue(1 + rng.Int63n(5)),
		})
	}
	addPreferentialEdges(b, rng, n, m, 0.25)
	return b.Build()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
