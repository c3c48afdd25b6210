// Command perfbench is the repository benchmark: it generates a workload's
// inputs from a seed, boots cmd/divtopkd as its own process on them, drives
// the workload over HTTP from this one process, checks every answer against
// an in-process cold evaluation, and prints the metrics as the last line of
// standard output:
//
//	perfbench -daemon <divtopkd binary> -work <scratch dir> \
//	    --workload explore|churn --seed N --seconds S --trace 0|1
//
// run.sh builds both binaries from the checkout and runs this. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
// same workload, then replays its seeded request sequence in-process on one
// goroutine, timing each layer, and prints the per-layer metrics.
//
// A run boots the daemon `boots` times, one after another, each on its own
// seeded warm-up set and for an equal share of the timed window.
//
// Workloads (all on one seeded NewSynthetic(150k, 1.05M, 24 labels) graph,
// daemon at its default flags, two connections in all):
//
//   - explore: every request a distinct mined 3-5 node pattern, half DAG,
//     half cyclic, half top-k, half diversified; the cache always misses, so
//     the simulation, core and diversify kernels do the work.
//   - churn: a hot set of patterns x {top-k, diversified}, cached by the
//     warm-up and drawn Zipf-skewed by one closed-loop reader, beside one
//     open-loop writer posting small deltas on a fixed schedule to a
//     durable daemon (fsync always); graph apply, the bound-index advance,
//     the warm-cache advance and the WAL do the work, while the reader's
//     hits exercise the server, pattern parsing, cache-key derivation and
//     the cache.
//
// Every workload reports every metric. Explore therefore commits, on each
// boot, probeUpdates deltas one at a time before its warm-up, with the cache
// still empty (its update metrics measure the commit path without warm
// entries), and postCommits more after it, each followed by one pass over
// the warm-up queries (its post-commit reads).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// writeEvery is churn's send interval: updates are due at this fixed rate.
const writeEvery = 1250 * time.Millisecond

// boots is how many daemon processes a run starts, one after another. Each
// serves an equal share of the timed window on its own warm-up set, so a run
// averages over that many processes and pattern draws; setup_s and
// peak_rss_mb are medians over the boots, the other metrics pool their
// samples.
const boots = 3

// postCommits is how many commits explore makes on each boot after its
// warm-up, each followed by one read of every warm-up query.
const postCommits = 6

// replayQueries caps the queries a traced run replays per workload, and
// replayUpdates its commits, so a traced run stays within a few times the
// untraced one.
const (
	replayQueries = 40
	replayUpdates = 20
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string
	work     string
	scale    scale
	expect   expectFunc
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{scale: fullScale, expect: coldAnswer}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "explore or churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 replays the workload in-process and prints per-layer metrics")
	flag.StringVar(&cfg.daemon, "daemon", ".bench_build/bin/divtopkd", "divtopkd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "directory for generated inputs and daemon state")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(res) // maps of plain structs: cannot fail
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(cfg config) (*result, error) {
	switch cfg.workload {
	case "explore", "churn":
	default:
		return nil, fmt.Errorf("unknown workload %q (explore, churn)", cfg.workload)
	}
	if _, err := os.Stat(cfg.daemon); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	dir, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, cfg.seed)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	churn := cfg.workload == "churn"
	share := time.Duration(cfg.seconds * float64(time.Second) / boots)
	deltaN := probeUpdates + postCommits
	if churn {
		// The traced replay commits replayUpdates deltas, which can be more
		// than one boot's window sends.
		deltaN = max(int(share/writeEvery)+1, replayUpdates)
	}
	logf("generating inputs (seed %d)", cfg.seed)
	in, err := generate(cfg.seed, cfg.scale, churn, int(cfg.seconds*200)+100, deltaN, dir)
	if err != nil {
		return nil, err
	}

	// The load generator measures with a small heap of its own: its garbage
	// collections share the CPUs with the daemon, so the graph, which only
	// the output check and the replay need, is rebuilt from the seed after
	// the windows.
	in.g = nil
	runtime.GC()

	client := newClient()
	defer client.CloseIdleConnections()
	var next atomic.Int64 // explore's next unused pattern, across boots
	parts := make([]*part, boots)
	for b := range parts {
		logf("boot %d: timed window %s", b, share)
		if parts[b], err = runBoot(context.Background(), cfg, in, dir, b, client, share, &next); err != nil {
			return nil, err
		}
	}
	if int(next.Load()) > len(in.explore) && !churn {
		logf("explore pattern pool exhausted after %d queries", len(in.explore))
	}
	in.g = newGraph(cfg.seed, cfg.scale)

	// Output check, off the clock. Every boot starts from the generated
	// graph, so each boot's answers are checked against its own acked chain.
	res := &result{Metrics: map[string]metric{}}
	for _, p := range parts {
		res.Attempted += p.w.attempts
		res.Failed += p.w.failures
	}
	for b, p := range parts {
		acked, err := ackedDeltas(in.deltas, p.updates)
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", b, err)
		}
		logf("boot %d: checking %d distinct answers", b, len(p.ans.m))
		checked, err := checkAnswers(&p.ans, &snapshots{base: in.g, acked: acked}, cfg.expect)
		if err != nil {
			logf("boot %d: output check failed: %v", b, err)
			return res, nil
		}
		logf("boot %d: checked %d answers: all equal the cold evaluation", b, checked)
	}
	res.Correct = true

	if !cfg.trace {
		endToEnd(res, parts)
		return res, nil
	}
	if err := perLayer(res, cfg, in, dir, parts); err != nil {
		return nil, err
	}
	return res, nil
}

// part is what one boot recorded.
type part struct {
	warm    *[]*query // the boot's warm-up set; churn's reader draws from it
	setup   float64   // seconds from process start to ready, plus the warm-up pass
	repeats []sample  // the warm-up's second round, answered from the cache
	w       *window
	list    *[]*query // the list the window's samples index
	updates []update  // every commit, in send order
	// timed are the commits update_* reports: churn's writer, or explore's
	// probe, committed before the warm-up with the cache still empty.
	timed    []update
	cpuTimed float64  // daemon CPU milliseconds the timed commits took
	post     []sample // the post-commit reads
	rss      float64  // VmHWM at the end of the window, MB
	ans      answers
}

// runBoot starts daemon b (with a fresh data directory on churn), runs the
// warm-up pass, every warm-up query twice, and the boot's share of the timed
// window, and stops the daemon. Explore commits the probe deltas before the
// warm-up and the post-commit deltas after it.
func runBoot(ctx context.Context, cfg config, in *inputs, dir string, b int, client *http.Client, share time.Duration, next *atomic.Int64) (*part, error) {
	churn := cfg.workload == "churn"
	dataDir := ""
	if churn {
		dataDir = filepath.Join(dir, fmt.Sprintf("data-%d", b))
	}
	d, ready, err := startDaemon(cfg.daemon, in.graphFile, dataDir, filepath.Join(dir, fmt.Sprintf("daemon-%d.log", b)), client)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	p := &part{warm: &in.warm[b]}
	if !churn {
		cpu0, err := d.cpuMS()
		if err != nil {
			return nil, err
		}
		for _, dl := range in.deltas[:probeUpdates] {
			p.timed = append(p.timed, sendUpdate(ctx, client, d.base, dl, time.Now()))
		}
		cpu1, err := d.cpuMS()
		if err != nil {
			return nil, err
		}
		p.cpuTimed = cpu1 - cpu0
	}
	t0 := time.Now()
	for round := range 2 {
		for i := range *p.warm {
			s := sendQuery(ctx, client, d.base, p.warm, i, &p.ans)
			if !s.ok {
				return nil, fmt.Errorf("boot %d: warm-up query %d failed", b, i)
			}
			if round == 1 {
				p.repeats = append(p.repeats, s)
			}
		}
	}
	p.setup = (ready + time.Since(t0)).Seconds()
	if churn {
		draw := zipfDraw(cfg.seed+int64(b), len(*p.warm))
		p.list = p.warm
		if p.w, err = runWindow(ctx, client, d, p.list, connections-1, func(int) (int, bool) { return draw(), true }, in.deltas, writeEvery, share, &p.ans); err != nil {
			return nil, err
		}
		p.updates, p.timed = p.w.updates, p.w.updates
		// The reader keeps running while a commit is in flight: take off
		// the CPU it uses at the rate measured between commits.
		w := p.w
		readerRate := ratio(w.cpuMS-w.commitCPU, ms(w.elapsed-w.commitTime))
		p.cpuTimed = w.commitCPU - readerRate*ms(w.commitTime)
		p.post = postCommit(p.w.queries, p.repeats)
	} else {
		p.updates = slices.Clone(p.timed)
		var reads []sample
		for _, dl := range in.deltas[probeUpdates : probeUpdates+postCommits] {
			p.updates = append(p.updates, sendUpdate(ctx, client, d.base, dl, time.Now()))
			for i := range *p.warm {
				reads = append(reads, sendQuery(ctx, client, d.base, p.warm, i, &p.ans))
			}
		}
		p.post = postCommit(reads, p.repeats)
		p.list = &in.explore
		if p.w, err = runWindow(ctx, client, d, p.list, connections, func(int) (int, bool) {
			i := int(next.Add(1) - 1)
			return i, i < len(in.explore)
		}, nil, 0, share, &p.ans); err != nil {
			return nil, err
		}
		p.w.count(reads, p.updates)
	}
	if p.rss, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	return p, nil
}

// endToEnd adds the end-to-end metrics, pooled over the boots.
func endToEnd(res *result, parts []*part) {
	var setups, rss, topk, div, first, upd []float64
	ok, elapsed := 0, 0.0
	for _, p := range parts {
		setups = append(setups, p.setup)
		rss = append(rss, p.rss)
		elapsed += p.w.elapsed.Seconds()
		for _, s := range p.w.queries {
			if !s.ok {
				continue
			}
			ok++
			if s.div {
				div = append(div, ms(s.lat))
			} else {
				topk = append(topk, ms(s.lat))
			}
		}
		for _, s := range p.post {
			first = append(first, ms(s.lat))
		}
		for _, u := range p.timed {
			if u.ok {
				upd = append(upd, ms(u.lat))
			}
		}
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", "s", pct(setups, 0.5))
	put("peak_rss_mb", "MB", pct(rss, 0.5))
	put("queries_per_s", "1/s", float64(ok)/elapsed)
	put("topk_p50_ms", "ms", pct(topk, 0.5))
	put("topk_p95_ms", "ms", pct(topk, 0.95))
	put("div_p50_ms", "ms", pct(div, 0.5))
	put("div_p95_ms", "ms", pct(div, 0.95))
	put("post_commit_p50_ms", "ms", pct(first, 0.5))
	put("update_p50_ms", "ms", pct(upd, 0.5))
	put("update_p90_ms", "ms", pct(upd, 0.9))
	logf("samples: topk %d, div %d, post-commit %d, updates %d", len(topk), len(div), len(first), len(upd))
}

// perLayer adds the per-layer metrics: the server, cache, daemon and load
// generator ones pooled over the boots' windows, the rest from an
// in-process replay of the first boot's seeded request sequence.
func perLayer(res *result, cfg config, in *inputs, dir string, parts []*part) error {
	var (
		hitLat, bytesOut, widths, lags, allLat, hotShare []float64
		cache                                            cacheCounters
		cpu, cpuTimed, nq, nu, nTimed                    float64
		distinct, cyclic, affected                       int
	)
	for _, p := range parts {
		for _, s := range p.repeats {
			if s.cache == "hit" {
				hitLat = append(hitLat, ms(s.lat))
			}
		}
		seen := map[int]bool{}
		for _, s := range p.w.queries {
			if !s.ok {
				continue
			}
			allLat = append(allLat, ms(s.lat))
			bytesOut = append(bytesOut, float64(s.bytes))
			if s.cache == "hit" {
				hitLat = append(hitLat, ms(s.lat))
			}
			seen[s.q] = true
			if !(*p.list)[s.q].dag {
				cyclic++
			}
		}
		distinct += len(seen)
		for _, u := range p.updates {
			if u.ok {
				widths = append(widths, u.batchWidth)
				lags = append(lags, ms(u.lag))
				if u.affected > 0 {
					affected++
				}
			}
		}
		hotShare = append(hotShare, hotLabelShare(*p.warm, in.deltaLabels[:len(p.updates)]))
		cache = cache.add(p.w.cache, 1)
		cpu += p.w.cpuMS
		cpuTimed += p.cpuTimed
		nq += float64(len(p.w.queries))
		nu += float64(len(p.updates))
		nTimed += float64(len(p.timed))
	}
	lookups := cache.Hits + cache.Misses + cache.Coalesced

	steps := replaySteps(cfg, in, parts[0])
	logf("replaying %d requests in-process", len(steps))
	layers, tr, err := replay(in, steps, dir)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := tr.write(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))); err != nil {
		return err
	}
	for name, v := range layers {
		res.Metrics[name] = v
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	put("server.hit_overhead_p50_us", "us", pct(hitLat, 0.5)*1000-layers["divtopk.hit_p50_us"].Value)
	put("server.resp_bytes_mean", "bytes", mean(bytesOut))
	put("server.batch_width_mean", "count", mean(widths))
	put("cache.hit_rate", "ratio", ratio(cache.Hits+cache.Coalesced, lookups))
	put("cache.miss_share", "ratio", ratio(cache.Misses, lookups))
	put("cache.seeded", "count", cache.Seeded)
	put("cache.advanced", "count", cache.Advanced)
	put("cache.advance_evicted", "count", cache.AdvanceEvicted)
	put("cache.evictions", "count", cache.Evictions)
	put("daemon.cpu_ms_per_query", "ms", ratio(cpu, nq))
	put("daemon.cpu_ms_per_update", "ms", ratio(cpuTimed, nTimed))
	put("loadgen.writer_lag_p90_ms", "ms", pct(lags, 0.9))
	put("failed_share", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	put("workload.distinct_share", "ratio", ratio(float64(distinct), nq))
	put("workload.cyclic_share", "ratio", ratio(float64(cyclic), nq))
	put("workload.hot_label_delta_share", "ratio", mean(hotShare))
	put("core.affected_commit_share", "ratio", ratio(float64(affected), nu))
	put("trace.request_gap_ms", "ms", layers["trace.replay_query_p50_ms"].Value-pct(allLat, 0.5))
	return nil
}

// replaySteps is the request sequence a traced run replays: the first
// boot's seeded sequence in run order, with explore's probe capped at
// replayUpdates commits and the window at replayQueries queries. Explore
// runs probe commits, both warm-up rounds, post-commit commits with their
// reads, then its distinct patterns; churn runs both warm-up rounds, then
// replayUpdates deltas, each after as many of the reader's draws as the
// boot's window ran per commit (at most replayQueries).
func replaySteps(cfg config, in *inputs, p *part) []step {
	var steps []step
	queries := func(qs ...*query) {
		for _, q := range qs {
			steps = append(steps, step{q: q})
		}
	}
	commit := func(d *delta) { steps = append(steps, step{d: d}) }
	warm := *p.warm
	if cfg.workload == "churn" {
		queries(warm...)
		queries(warm...)
		draw := zipfDraw(cfg.seed, len(warm))
		per := min(replayQueries, max(1, len(p.w.queries)/max(1, len(p.updates))))
		for _, d := range in.deltas[:replayUpdates] {
			for range per {
				queries(warm[draw()])
			}
			commit(d)
		}
		return steps
	}
	for _, d := range in.deltas[:replayUpdates] {
		commit(d)
	}
	queries(warm...)
	queries(warm...)
	// The replayed probe is shorter, so the post-commit deltas are the ones
	// that follow it in the chain.
	for _, d := range in.deltas[replayUpdates : replayUpdates+postCommits] {
		commit(d)
		queries(warm...)
	}
	queries(in.explore[:min(replayQueries, len(in.explore))]...)
	return steps
}

// ackedDeltas orders the acknowledged deltas by the version their ack
// named; versions must run 1, 2, ... without gaps.
func ackedDeltas(deltas []*delta, updates []update) ([]*delta, error) {
	var acked []*delta
	for i, u := range updates {
		if !u.ok {
			continue
		}
		if u.version != uint64(len(acked)+1) {
			return nil, fmt.Errorf("update %d acknowledged as version %d, want %d", i, u.version, len(acked)+1)
		}
		acked = append(acked, deltas[i])
	}
	return acked, nil
}

// postCommit returns the post-commit reads among queries: the first answer
// of each query at a version newer than its previous answer's, starting
// from the answers in prev.
func postCommit(queries, prev []sample) []sample {
	last := map[int]uint64{}
	for _, s := range prev {
		last[s.q] = s.version
	}
	sorted := slices.Clone(queries)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })
	var out []sample
	for _, s := range sorted {
		if !s.ok {
			continue
		}
		if v, seen := last[s.q]; seen && s.version > v {
			out = append(out, s)
			last[s.q] = s.version
		}
	}
	return out
}

var started = time.Now()

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.1fs: "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pct is the nearest-rank percentile of xs (0 for no samples).
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
