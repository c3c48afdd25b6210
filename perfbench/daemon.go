package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running divtopkd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
	once sync.Once
}

// startDaemon boots divtopkd with its default flags on a free loopback
// port, serving the graph file as "g" (durable in dataDir when it is not
// empty), and returns once /healthz answers; ready is the time from process
// start to that answer.
func startDaemon(bin, graphFile, dataDir, logFile string, client *http.Client) (d *daemon, ready time.Duration, err error) {
	addr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-listen", addr, "-graph", "g=" + graphFile}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	logf, err := os.Create(logFile)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even when the benchmark is
	// killed before it can stop the daemon itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	d = &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.After(120 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, 0, fmt.Errorf("divtopkd exited before becoming ready (%v); see %s", err, logFile)
		case <-deadline:
			d.stop()
			return nil, 0, errors.New("divtopkd not ready after 120s")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop kills the daemon and waits for it to exit. Nothing it holds needs a
// clean shutdown: every run starts from fresh inputs.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.cmd.Process.Kill() // already exited is fine: Wait below reports it
		<-d.done
	})
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuMS reads the daemon's user+system CPU time.
func (d *daemon) cpuMS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	var ticks float64
	for _, x := range f[11:13] {
		t, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, err
		}
		ticks += t
	}
	return ticks * 1000 / clockTicks, nil
}

// clockTicks is USER_HZ, which Linux fixes at 100 for every architecture's
// /proc interface.
const clockTicks = 100

// cacheStats reads the graph's result-cache counters from /v1/graphs.
func (d *daemon) cacheStats(ctx context.Context, client *http.Client) (cacheCounters, error) {
	var out struct {
		Graphs []struct {
			Cache cacheCounters `json:"cache"`
		} `json:"graphs"`
	}
	if err := getJSON(ctx, client, d.base+"/v1/graphs", &out); err != nil {
		return cacheCounters{}, err
	}
	if len(out.Graphs) != 1 {
		return cacheCounters{}, fmt.Errorf("/v1/graphs lists %d graphs, want 1", len(out.Graphs))
	}
	return out.Graphs[0].Cache, nil
}

type cacheCounters struct {
	Hits           float64 `json:"hits"`
	Misses         float64 `json:"misses"`
	Coalesced      float64 `json:"coalesced"`
	Evictions      float64 `json:"evictions"`
	Advanced       float64 `json:"advanced"`
	Seeded         float64 `json:"seeded"`
	AdvanceEvicted float64 `json:"advance_evicted"`
}

// add returns c plus sign times o, counter by counter.
func (c cacheCounters) add(o cacheCounters, sign float64) cacheCounters {
	return cacheCounters{
		Hits: c.Hits + sign*o.Hits, Misses: c.Misses + sign*o.Misses, Coalesced: c.Coalesced + sign*o.Coalesced,
		Evictions: c.Evictions + sign*o.Evictions, Advanced: c.Advanced + sign*o.Advanced,
		Seeded: c.Seeded + sign*o.Seeded, AdvanceEvicted: c.AdvanceEvicted + sign*o.AdvanceEvicted,
	}
}
