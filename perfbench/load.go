package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// connections is the load generator's connection budget: nproc on the
// 2-core machines the benchmark is sized for. Every workload drives exactly
// this many closed-loop connections (churn: one reader, one writer).
const connections = 2

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     connections,
			MaxIdleConnsPerHost: connections,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// post sends body and returns the status and response body; transport
// errors and timeouts come back as err.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sample is one query as the client saw it.
type sample struct {
	q       int // index of the query in its list (explore, warm-up or hot)
	div     bool
	at      time.Duration // send time since the window opened
	lat     time.Duration
	ok      bool
	version uint64
	cache   string
	bytes   int
	hash    uint64
}

// answerKey identifies one distinct answer body.
type answerKey struct {
	list    *[]*query
	q       int
	version uint64
	hash    uint64
}

// answers collects each distinct answer body once, for the output check.
type answers struct {
	mu sync.Mutex
	m  map[answerKey][]byte
}

func (a *answers) add(k answerKey, body []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.m == nil {
		a.m = make(map[answerKey][]byte)
	}
	if _, ok := a.m[k]; !ok {
		a.m[k] = body
	}
}

// query sends one query and records it; a non-2xx status or a body the
// response format does not describe counts as a failure.
func sendQuery(ctx context.Context, client *http.Client, base string, list *[]*query, i int, ans *answers) sample {
	q := (*list)[i]
	s := sample{q: i, div: q.div}
	t0 := time.Now()
	status, body, err := post(ctx, client, base+q.path(), q.body())
	s.lat = time.Since(t0)
	if err != nil || status != http.StatusOK {
		return s
	}
	version, cache, norm, err := splitAnswer(body)
	if err != nil {
		return s
	}
	h := fnv.New64a()
	h.Write(norm)
	s.ok, s.version, s.cache, s.bytes, s.hash = true, version, cache, len(body), h.Sum64()
	ans.add(answerKey{list, i, version, s.hash}, body)
	return s
}

// splitAnswer extracts the version and cache provenance of a query response
// and returns the body without its "cache" member, so answers that differ
// only in provenance hash alike. It relies on the server's fixed member
// order: "version" precedes "cache", and "cache" is followed by "matches".
func splitAnswer(b []byte) (version uint64, cache string, norm []byte, err error) {
	i := bytes.Index(b, []byte(`"version":`))
	if i < 0 {
		return 0, "", nil, errors.New("response has no version")
	}
	j := i + len(`"version":`)
	k := j
	for k < len(b) && b[k] >= '0' && b[k] <= '9' {
		k++
	}
	version, err = strconv.ParseUint(string(b[j:k]), 10, 64)
	if err != nil {
		return 0, "", nil, fmt.Errorf("response version: %w", err)
	}
	c := bytes.Index(b, []byte(`"cache":"`))
	if c < 0 {
		return version, "", b, nil
	}
	v := c + len(`"cache":"`)
	e := bytes.IndexByte(b[v:], '"')
	if e < 0 || v+e+1 >= len(b) || b[v+e+1] != ',' {
		return 0, "", nil, errors.New("malformed cache member")
	}
	cache = string(b[v : v+e])
	norm = append(append(make([]byte, 0, len(b)), b[:c]...), b[v+e+2:]...)
	return version, cache, norm, nil
}

// update is one delta as the writer saw it.
type update struct {
	lat        time.Duration // from due time (open loop) or send (closed loop) to ack
	lag        time.Duration // how late the send started
	ok         bool
	version    uint64
	batchWidth float64
	affected   float64
}

func sendUpdate(ctx context.Context, client *http.Client, base string, d *delta, due time.Time) update {
	body, _ := json.Marshal(d) // plain struct: cannot fail
	start := time.Now()
	u := update{lag: start.Sub(due)}
	status, resp, err := post(ctx, client, base+"/v1/graphs/g/updates", body)
	u.lat = time.Since(due)
	if err != nil || status != http.StatusOK {
		return u
	}
	var r struct {
		Version uint64 `json:"version"`
		Index   struct {
			BatchWidth    float64 `json:"batch_width"`
			AffectedShare float64 `json:"affected_share"`
		} `json:"index"`
	}
	if json.Unmarshal(resp, &r) != nil {
		return u
	}
	u.ok, u.version, u.batchWidth, u.affected = true, r.Version, r.Index.BatchWidth, r.Index.AffectedShare
	return u
}

// zipfDraw returns the seeded hot-pair sequence: Zipf ranks over a
// seed-shuffled order of the pairs.
func zipfDraw(seed int64, pairs int) func() int {
	order := rand.New(rand.NewSource(seed ^ 0x2197)).Perm(pairs)
	z := rand.NewZipf(rand.New(rand.NewSource(seed*31)), zipfS, 1, uint64(pairs-1))
	return func() int { return order[z.Uint64()] }
}

// window is what one timed window recorded.
type window struct {
	queries []sample
	updates []update
	elapsed time.Duration
	cpuMS   float64 // daemon CPU milliseconds over the window
	// commitCPU is the daemon CPU the window spent while a commit was in
	// flight, commitTime the wall time it was.
	commitCPU  float64
	commitTime time.Duration
	cache      cacheCounters
	attempts   int
	failures   int
}

// runWindow drives the workload for the given duration: readers are closed
// loops picking their next query with next(conn); writeEvery > 0 adds one
// open-loop writer posting deltas on that schedule.
func runWindow(ctx context.Context, client *http.Client, d *daemon, list *[]*query, readers int,
	next func(conn int) (int, bool), deltas []*delta, writeEvery time.Duration, dur time.Duration, ans *answers) (*window, error) {
	w := &window{}
	before, err := d.cacheStats(ctx, client)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuMS()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(dur)
	var (
		wg      sync.WaitGroup
		perConn = make([][]sample, readers)
	)
	for c := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i, ok := next(c)
				if !ok {
					return
				}
				at := time.Since(start)
				s := sendQuery(ctx, client, d.base, list, i, ans)
				s.at = at
				perConn[c] = append(perConn[c], s)
			}
		}()
	}
	var writeErr error
	if writeEvery > 0 {
		for i, dl := range deltas {
			due := start.Add(time.Duration(i) * writeEvery)
			if !due.Before(deadline) {
				break
			}
			time.Sleep(time.Until(due))
			c0, err := d.cpuMS()
			if err != nil {
				writeErr = err
				break
			}
			t0 := time.Now()
			w.updates = append(w.updates, sendUpdate(ctx, client, d.base, dl, due))
			w.commitTime += time.Since(t0)
			c1, err := d.cpuMS()
			if err != nil {
				writeErr = err
				break
			}
			w.commitCPU += c1 - c0
		}
	}
	wg.Wait()
	if writeErr != nil {
		return nil, writeErr
	}
	w.elapsed = time.Since(start)
	for _, s := range perConn {
		w.queries = append(w.queries, s...)
	}
	if w.cpuMS, err = d.cpuMS(); err != nil {
		return nil, err
	}
	w.cpuMS -= cpu0
	after, err := d.cacheStats(ctx, client)
	if err != nil {
		return nil, err
	}
	w.cache = after.add(before, -1)
	w.count(w.queries, w.updates)
	return w, nil
}

// count adds queries and updates to the window's attempted and failed
// operations.
func (w *window) count(queries []sample, updates []update) {
	for _, s := range queries {
		w.attempts++
		if !s.ok {
			w.failures++
		}
	}
	for _, u := range updates {
		w.attempts++
		if !u.ok {
			w.failures++
		}
	}
}
