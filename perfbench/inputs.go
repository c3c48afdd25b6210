package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"

	"divtopk"
)

// Workload constants. The graph is the tracked 150k-node synthetic graph;
// patterns have 3-5 nodes, half DAG and half cyclic; queries ask for k=10
// (λ=0.5 on the diversified endpoint).
const (
	graphNodes  = 150_000
	graphEdges  = 1_050_000
	graphLabels = 24
	topK        = 10
	lambda      = 0.5
	// warmPatterns is the size of each boot's warm-up set. On churn it is
	// the hot set: this many patterns, each queried as top-k and as
	// diversified, drawn Zipf(zipfS).
	warmPatterns = 4
	zipfS        = 1.2
	// probeUpdates is the number of deltas explore commits on each boot, one
	// at a time, before its warm-up.
	probeUpdates = 34
)

// scale sizes the generated graph; tests shrink it.
type scale struct{ nodes, edges int }

var fullScale = scale{graphNodes, graphEdges}

// query is one (pattern, kind) request shape.
type query struct {
	text string
	pat  *divtopk.Pattern
	div  bool
	dag  bool
	// labels are the pattern's node labels (its candidate labels).
	labels []string
}

// path returns the endpoint of the query's kind.
func (q *query) path() string {
	if q.div {
		return "/v1/query/diversified"
	}
	return "/v1/query"
}

// body returns the JSON request body of q against graph "g".
func (q *query) body() []byte {
	req := struct {
		Graph   string  `json:"graph"`
		Pattern string  `json:"pattern"`
		K       int     `json:"k"`
		Lambda  float64 `json:"lambda,omitempty"`
	}{"g", q.text, topK, 0}
	if q.div {
		req.Lambda = lambda
	}
	b, _ := json.Marshal(req) // plain struct: cannot fail
	return b
}

// delta is one update in wire form. Edge endpoints -1-j name the delta's
// own j-th appended node.
type delta struct {
	AddNodes []node   `json:"add_nodes,omitempty"`
	AddEdges [][2]int `json:"add_edges,omitempty"`
	DelEdges [][2]int `json:"del_edges,omitempty"`
}

type node struct {
	Label string `json:"label"`
}

// build converts d to a library delta for a graph of n nodes.
func (d *delta) build(n int) *divtopk.Delta {
	var out divtopk.Delta
	for _, a := range d.AddNodes {
		out.AddNode(a.Label)
	}
	id := func(e int) int {
		if e < 0 {
			return n - 1 - e
		}
		return e
	}
	for _, e := range d.DelEdges {
		out.DeleteEdge(id(e[0]), id(e[1]))
	}
	for _, e := range d.AddEdges {
		out.InsertEdge(id(e[0]), id(e[1]))
	}
	return &out
}

// inputs is everything one workload run derives from its seed.
type inputs struct {
	g         *divtopk.Graph
	graphFile string
	explore   []*query // explore's distinct patterns, shared by every boot
	// warm[b] is boot b's untimed warm-up set: on churn its hot pairs
	// (pattern i is warm[b][2i] top-k, warm[b][2i+1] diversified), on
	// explore patterns outside the explore set.
	warm   [][]*query
	deltas []*delta
	// deltaLabels[i] are the labels of deltas[i]'s endpoints and appended
	// nodes.
	deltaLabels [][]string
}

// generate derives the graph, the pattern sets and the delta stream from
// seed, and writes the graph file the daemon loads into dir.
func generate(seed int64, sc scale, churn bool, exploreN, deltaN int, dir string) (*inputs, error) {
	in := &inputs{g: newGraph(seed, sc)}
	in.graphFile = dir + "/graph.txt"
	if err := writeGraph(in.graphFile, in.g); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	miner := rand.New(rand.NewSource(seed ^ 0x5eed))
	mine := func(i int) (*query, error) {
		dag := i%2 == 0
		n := 3 + (i/2)%3
		edges := n
		if !dag {
			edges = n + 1
		}
		for try := 0; try < 256; try++ {
			p, err := divtopk.GeneratePattern(in.g, n, edges, !dag, false, miner.Int63())
			if err != nil || p.IsDAG() != dag {
				continue
			}
			var buf bytes.Buffer
			if err := divtopk.WritePattern(&buf, p); err != nil {
				return nil, err
			}
			text := buf.String()
			if seen[text] {
				continue
			}
			seen[text] = true
			return &query{text: text, pat: p, dag: dag, labels: patternLabels(text)}, nil
		}
		return nil, fmt.Errorf("mining pattern %d: no distinct %d-node pattern (dag=%v) found", i, n, dag)
	}
	in.warm = make([][]*query, boots)
	for b := range in.warm {
		for i := range warmPatterns {
			q, err := mine(i)
			if err != nil {
				return nil, err
			}
			if churn {
				d := *q
				d.div = true
				in.warm[b] = append(in.warm[b], q, &d)
			} else {
				q.div = i%2 == 1
				in.warm[b] = append(in.warm[b], q)
			}
		}
	}
	if !churn {
		for i := range exploreN {
			// Kind alternates with i while DAG/cyclic alternates with i/2, so
			// the two halves are crossed evenly.
			q, err := mine(i / 2)
			if err != nil {
				return nil, err
			}
			q.div = i%2 == 1
			in.explore = append(in.explore, q)
		}
	}
	in.deltas, in.deltaLabels = deltaStream(in.g, seed, deltaN)
	return in, nil
}

// hotLabelShare is the share of deltas that touch a label of one of the
// warm patterns: an endpoint or an appended node carries it.
func hotLabelShare(warm []*query, labels [][]string) float64 {
	hot := map[string]bool{}
	for _, q := range warm {
		for _, l := range q.labels {
			hot[l] = true
		}
	}
	n := 0
	for _, ls := range labels {
		if slices.ContainsFunc(ls, func(l string) bool { return hot[l] }) {
			n++
		}
	}
	return ratio(float64(n), float64(len(labels)))
}

// newGraph is the seeded workload graph; the same seed and scale always
// give the same graph.
func newGraph(seed int64, sc scale) *divtopk.Graph {
	return divtopk.NewSynthetic(sc.nodes, sc.edges, graphLabels, seed)
}

func writeGraph(path string, g *divtopk.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := divtopk.WriteGraph(w, g); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// patternLabels extracts the node labels of a pattern in the text format
// ("node <id> <label> [*]" lines).
func patternLabels(text string) []string {
	var out []string
	for _, line := range bytes.Split([]byte(text), []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) >= 3 && string(f[0]) == "node" {
			out = append(out, string(f[2]))
		}
	}
	return out
}

// deltaStream generates n small deltas valid as a sequential chain on g: a
// third append one node with an alphabet label wired to two existing nodes,
// a third insert two edges among existing nodes, a third delete one existing
// edge. It also returns, per delta, the labels of the nodes it touches.
func deltaStream(g *divtopk.Graph, seed int64, n int) ([]*delta, [][]string) {
	rng := rand.New(rand.NewSource(seed ^ 0xde17a))
	nodes := g.NumNodes()
	labels := make([]string, nodes, nodes+n)
	for v := range labels {
		labels[v] = g.Label(v)
	}
	added := map[[2]int]bool{}
	deleted := map[[2]int]bool{}
	var addedList [][2]int
	exists := func(u, v int) bool {
		e := [2]int{u, v}
		if added[e] {
			return true
		}
		if deleted[e] || u >= g.NumNodes() {
			return false
		}
		return slices.Contains(g.Successors(u), v)
	}
	insert := func(e [2]int) {
		if deleted[e] {
			delete(deleted, e)
		} else {
			added[e] = true
			addedList = append(addedList, e)
		}
	}
	out := make([]*delta, 0, n)
	touched := make([][]string, 0, n)
	for len(out) < n {
		d := &delta{}
		var ends []int
		switch len(out) % 3 {
		case 0:
			l := fmt.Sprintf("L%d", rng.Intn(graphLabels))
			d.AddNodes = []node{{l}}
			self := nodes
			labels = append(labels, l)
			for range 2 {
				v := rng.Intn(nodes)
				if exists(self, v) {
					continue
				}
				d.AddEdges = append(d.AddEdges, [2]int{-1, v})
				insert([2]int{self, v})
				ends = append(ends, self, v)
			}
			nodes++
		case 1:
			for len(d.AddEdges) < 2 {
				u, v := rng.Intn(nodes), rng.Intn(nodes)
				if u == v || exists(u, v) {
					continue
				}
				d.AddEdges = append(d.AddEdges, [2]int{u, v})
				insert([2]int{u, v})
				ends = append(ends, u, v)
			}
		default:
			e, ok := pickEdge(rng, g, addedList, added, deleted)
			if !ok {
				continue
			}
			d.DelEdges = [][2]int{e}
			if added[e] {
				delete(added, e)
			} else {
				deleted[e] = true
			}
			ends = append(ends, e[0], e[1])
		}
		ls := make([]string, len(ends))
		for i, v := range ends {
			ls[i] = labels[v]
		}
		out = append(out, d)
		touched = append(touched, ls)
	}
	return out, touched
}

// pickEdge draws an edge that currently exists: an out-edge of a random
// base node, or (one time in four) an edge an earlier delta inserted.
func pickEdge(rng *rand.Rand, g *divtopk.Graph, addedList [][2]int, added, deleted map[[2]int]bool) ([2]int, bool) {
	if len(addedList) > 0 && rng.Intn(4) == 0 {
		e := addedList[rng.Intn(len(addedList))]
		return e, added[e]
	}
	u := rng.Intn(g.NumNodes())
	succ := g.Successors(u)
	if len(succ) == 0 {
		return [2]int{}, false
	}
	e := [2]int{u, succ[rng.Intn(len(succ))]}
	return e, !deleted[e]
}
