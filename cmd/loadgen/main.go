// Command loadgen drives a live cmd/serve socket and prints latency
// quantiles and saturation throughput per load point (DESIGN.md §12). The
// gated serving numbers come from the benchmark (go run ./benchmark).
//
// Two load models:
//
//   - closed loop: -conc workers each keep exactly one request outstanding
//     (-n requests total). Sweeping -sweep concurrencies finds the
//     saturation throughput — the knee where more offered concurrency stops
//     buying samples/sec.
//   - open loop: -rate requests/sec are dispatched on a fixed schedule
//     regardless of completions for -dur, which is what exposes queueing
//     delay under overload (closed loops self-throttle and hide it).
//
// Usage:
//
//	go run ./cmd/loadgen [flags]
//
//	-addr localhost:8097   target server
//	-model resnet          input shape: resnet ([3,8,8]) or mlp ([48])
//	-n 256                 closed-loop requests per sweep point
//	-sweep 1,2,4,8         closed-loop concurrency sweep
//	-rate 0                open-loop request rate (0 = closed loop only)
//	-dur 3s                open-loop duration
//	-wait 10s              readiness wait on /healthz
//	-seed 1                input-generator seed
//	-retry 0               503-retry budget per request (see below)
//
// With -retry n, a request rejected with 503 is retried up to n times: the
// client sleeps for the server's Retry-After header (the serving tier derives
// it from its live queue depth) when present, and otherwise falls back to
// capped exponential backoff (10ms·2^attempt, capped at 1s). Retried
// latencies include the backoff — the client-observed cost of overload.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// runStats aggregates one load run.
type runStats struct {
	completed, failed int
	elapsed           time.Duration
	latencies         []time.Duration
}

func (r *runStats) quantile(q float64) float64 {
	if len(r.latencies) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), r.latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	v := float64(s[lo])
	if lo+1 < len(s) {
		v += (pos - float64(lo)) * float64(s[lo+1]-s[lo])
	}
	return v / float64(time.Millisecond)
}

func (r *runStats) throughput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.completed) / r.elapsed.Seconds()
}

// client issues predict requests with pre-generated random inputs.
type client struct {
	url     string
	bodies  [][]byte
	http    *http.Client
	retries int // extra attempts after a 503 rejection
}

func newClient(addr, model string, seed int64) (*client, error) {
	var sample int
	switch model {
	case "resnet":
		sample = 3 * 8 * 8
	case "mlp":
		sample = 48
	default:
		return nil, fmt.Errorf("unknown -model %q (want resnet or mlp)", model)
	}
	rng := rand.New(rand.NewSource(seed))
	bodies := make([][]byte, 16)
	for i := range bodies {
		in := make([]float64, sample)
		for j := range in {
			in[j] = rng.NormFloat64()
		}
		b, err := json.Marshal(map[string]any{"input": in})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return &client{
		url:    "http://" + addr + "/v1/predict",
		bodies: bodies,
		http:   &http.Client{Timeout: 30 * time.Second},
	}, nil
}

// do issues one request and returns its latency, retrying 503 rejections up
// to c.retries times. Each retry waits for the server's Retry-After header
// when the rejection carries one, else for capped exponential backoff; the
// returned latency spans first attempt to final answer, so retried requests
// report the client-observed cost of overload, backoff included.
func (c *client) do(i int) (time.Duration, error) {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(c.bodies[i%len(c.bodies)]))
		if err != nil {
			return 0, err
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < c.retries {
			after := resp.Header.Get("Retry-After")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(backoff(after, attempt))
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return 0, fmt.Errorf("status %d", resp.StatusCode)
		}
		var out struct {
			Class int `json:"class"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
}

// backoff picks the wait before a 503 retry: the server's Retry-After
// seconds when present and sane, else 10ms·2^attempt capped at 1s.
func backoff(retryAfter string, attempt int) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	d := 10 * time.Millisecond << attempt
	if d > time.Second {
		d = time.Second
	}
	return d
}

// closedLoop runs n requests across conc workers, one outstanding each.
func closedLoop(c *client, n, conc int) *runStats {
	var (
		mu    sync.Mutex
		stats runStats
		next  int
		wg    sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				lat, err := c.do(i)
				mu.Lock()
				if err != nil {
					stats.failed++
				} else {
					stats.completed++
					stats.latencies = append(stats.latencies, lat)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	stats.elapsed = time.Since(start)
	return &stats
}

// openLoop dispatches requests at a fixed rate for dur, regardless of how
// fast they complete.
func openLoop(c *client, rate float64, dur time.Duration) *runStats {
	var (
		mu    sync.Mutex
		stats runStats
		wg    sync.WaitGroup
	)
	interval := time.Duration(float64(time.Second) / rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.After(dur)
	start := time.Now()
	i := 0
loop:
	for {
		select {
		case <-ticker.C:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				lat, err := c.do(i)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					stats.failed++
					return
				}
				stats.completed++
				stats.latencies = append(stats.latencies, lat)
			}(i)
			i++
		case <-deadline:
			break loop
		}
	}
	wg.Wait()
	stats.elapsed = time.Since(start)
	return &stats
}

// waitReady polls /healthz until the server answers or the budget expires.
func waitReady(addr string, budget time.Duration) error {
	url := "http://" + addr + "/healthz"
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready within %s", addr, budget)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func main() {
	addr := flag.String("addr", "localhost:8097", "target server address")
	model := flag.String("model", "resnet", "input shape: resnet or mlp")
	n := flag.Int("n", 256, "closed-loop requests per sweep point")
	sweep := flag.String("sweep", "1,2,4,8", "closed-loop concurrency sweep")
	rate := flag.Float64("rate", 0, "open-loop request rate per second (0 = closed loop only)")
	dur := flag.Duration("dur", 3*time.Second, "open-loop duration")
	wait := flag.Duration("wait", 10*time.Second, "readiness wait on /healthz")
	seed := flag.Int64("seed", 1, "input-generator seed")
	retry := flag.Int("retry", 0, "extra attempts after a 503 rejection (honors Retry-After, else capped exponential backoff)")
	flag.Parse()

	if *retry < 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -retry must be ≥ 0")
		os.Exit(1)
	}
	if err := run(*addr, *model, *sweep, *n, *retry, *rate, *dur, *wait, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(addr, model, sweep string, n, retry int, rate float64, dur, wait time.Duration, seed int64) error {
	c, err := newClient(addr, model, seed)
	if err != nil {
		return err
	}
	c.retries = retry
	if err := waitReady(addr, wait); err != nil {
		return err
	}

	var concs []int
	for _, f := range strings.Split(sweep, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return fmt.Errorf("bad -sweep entry %q", f)
		}
		concs = append(concs, v)
	}

	var failures int
	saturation := 0.0
	for _, conc := range concs {
		st := closedLoop(c, n, conc)
		failures += st.failed
		saturation = max(saturation, st.throughput())
		printPoint(fmt.Sprintf("closed/c%d", conc), st)
	}
	if saturation > 0 {
		fmt.Printf("%-18s %33.1f req/s (max over sweep)\n", "saturation", saturation)
	}
	if rate > 0 {
		st := openLoop(c, rate, dur)
		failures += st.failed
		printPoint(fmt.Sprintf("open/r%d", int(rate)), st)
	}
	if failures > 0 {
		return fmt.Errorf("%d request(s) failed", failures)
	}
	return nil
}

// printPoint prints one load point's line.
func printPoint(name string, st *runStats) {
	fmt.Printf("%-18s %6d ok %3d fail  %8.1f req/s  p50 %7.3fms  p99 %7.3fms\n",
		name, st.completed, st.failed, st.throughput(), st.quantile(0.50), st.quantile(0.99))
}
