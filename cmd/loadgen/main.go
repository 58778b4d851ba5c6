// Command loadgen is the deterministic load-test client for cmd/libraserve:
// N concurrent clients replay a seeded request mix against /v1/run, retrying
// 429 backpressure with the server's Retry-After hint, and report a latency
// histogram plus the server's cache-hit ratio in the same benchjson-compatible
// JSON shape CI archives for benchmarks.
//
// The request *mix* is seeded and reproducible (same -seed, same requests in
// the same per-client order); latencies obviously are not. `-max-sims 0`
// turns the run into the warm-store assertion of the CI smoke test: every
// response must come from the persistent store without simulating.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 -clients 16 -requests 64
//	loadgen -addr-file /tmp/libra.addr -clients 1000 -requests 2000 -max-sims 0
//	loadgen -addr-file /tmp/libra.addr -probe -game Jet -frames 8   # print one raw body
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"math/rand"

	"repro/internal/serve"
	"repro/internal/stats"
)

// entry/record mirror cmd/benchjson's Entry/Record so the report drops into
// the same tooling (kept local: main packages cannot import each other).
type entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type record struct {
	SHA        string  `json:"sha"`
	Date       string  `json:"date"`
	GoVersion  string  `json:"go"`
	Benchmarks []entry `json:"benchmarks"`
}

func main() {
	var (
		url       = flag.String("url", "", "server base URL (e.g. http://127.0.0.1:8080)")
		addrFile  = flag.String("addr-file", "", "read the server address from this file (written by libraserve -addr-file)")
		clients   = flag.Int("clients", 8, "concurrent client goroutines")
		requests  = flag.Int("requests", 64, "total requests across all clients")
		seed      = flag.Int64("seed", 1, "request-mix seed (same seed = same mix)")
		games     = flag.String("games", "Jet,SuS,Gra", "comma-separated benchmark abbreviations to mix over")
		frames    = flag.Int("frames", 2, "frames per request")
		warmup    = flag.Int("warmup", 0, "warmup frames per request")
		relim     = flag.Bool("render-elim", false, "set RenderElim in every request's config (server-side Rendering Elimination)")
		timeout   = flag.Duration("timeout", 5*time.Minute, "per-request client timeout")
		retries   = flag.Int("retries", 50, "max retries per request on 429/503 backpressure")
		maxSims   = flag.Int64("max-sims", -1, "fail unless the server's post-run sims count is <= this (-1 = no check; 0 = fully warm)")
		out       = flag.String("o", "-", "benchjson-compatible report path (- = stdout)")
		probe     = flag.Bool("probe", false, "send exactly one request and print the raw response body to stdout")
		probeGame = flag.String("game", "Jet", "benchmark for -probe")
		probeTO   = flag.Duration("probe-timeout", 0, "with -probe: client-side deadline; hitting it is the expected outcome (cancellation drill)")
	)
	flag.Parse()

	base, err := resolveURL(*url, *addrFile)
	if err != nil {
		fatal(err)
	}
	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *clients * 2,
		MaxIdleConnsPerHost: *clients * 2,
	}}

	if *probe {
		os.Exit(runProbe(httpc, base, *probeGame, *frames, *warmup, *relim, *probeTO))
	}

	mix := buildMix(*seed, strings.Split(*games, ","), *frames, *warmup, *relim, *requests)
	rep, failures := runLoad(httpc, base, mix, *clients, *timeout, *retries)
	if failures > 0 {
		fatal(fmt.Errorf("loadgen: %d requests failed", failures))
	}

	sims, hitRatio := serverStats(httpc, base)
	rep.Metrics["sims"] = float64(sims)
	rep.Metrics["cache_hit_ratio"] = hitRatio
	rep.Metrics["clients"] = float64(*clients)

	doc := record{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		Benchmarks: []entry{*rep},
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	raw = append(raw, '\n')
	if *out == "-" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fatal(err)
	}

	if *maxSims >= 0 && sims > *maxSims {
		fatal(fmt.Errorf("loadgen: server ran %d sims, budget is %d (store not warm?)", sims, *maxSims))
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d requests ok, sims=%d hit_ratio=%.3f p99=%s\n",
		rep.Iterations, sims, hitRatio, time.Duration(rep.Metrics["p99_ns"]))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// resolveURL picks the server base URL from -url or -addr-file.
func resolveURL(url, addrFile string) (string, error) {
	if url != "" {
		return strings.TrimRight(url, "/"), nil
	}
	if addrFile == "" {
		return "", errors.New("loadgen: need -url or -addr-file")
	}
	raw, err := os.ReadFile(addrFile)
	if err != nil {
		return "", err
	}
	addr := strings.TrimSpace(string(raw))
	if addr == "" {
		return "", fmt.Errorf("loadgen: %s is empty", addrFile)
	}
	return "http://" + addr, nil
}

// reqBody builds the /v1/run JSON for one mix entry.
func reqBody(game string, frames, warmup int, renderElim bool) string {
	re := ""
	if renderElim {
		re = `,"RenderElim":true`
	}
	return fmt.Sprintf(`{"game":%q,"frames":%d,"warmup":%d,"config":{"ScreenW":64,"ScreenH":64,"RasterUnits":1,"CoresPerRU":2%s}}`,
		game, frames, warmup, re)
}

// buildMix deterministically expands the seed into the full request list;
// client c replays entries c, c+clients, c+2*clients, ... so the per-client
// sequence is reproducible for any -clients value.
func buildMix(seed int64, games []string, frames, warmup int, renderElim bool, n int) []string {
	for i := range games {
		games[i] = strings.TrimSpace(games[i])
	}
	rng := rand.New(rand.NewSource(seed))
	mix := make([]string, n)
	for i := range mix {
		mix[i] = reqBody(games[rng.Intn(len(games))], frames, warmup, renderElim)
	}
	return mix
}

// runProbe sends one request and streams the raw response body to stdout —
// the byte-diff side of the determinism-over-HTTP check. With a probe
// timeout, hitting the deadline is the expected outcome (the cancellation
// drill of the smoke test) and exits 0.
func runProbe(httpc *http.Client, base, game string, frames, warmup int, renderElim bool, to time.Duration) int {
	ctx := context.Background()
	if to > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, to)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run",
		strings.NewReader(reqBody(game, frames, warmup, renderElim)))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(req)
	if err != nil {
		if to > 0 && errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "loadgen: probe cancelled by its own deadline (expected)")
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer resp.Body.Close()
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "loadgen: probe status %d\n", resp.StatusCode)
		return 1
	}
	return 0
}

// runLoad fans the mix out over the clients and aggregates latencies.
func runLoad(httpc *http.Client, base string, mix []string, clients int, timeout time.Duration, retries int) (*entry, int64) {
	if clients < 1 {
		clients = 1
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		agg      stats.LatencyTracker
		okTotal  int64
		r429s    int64
		failures int64
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local stats.LatencyTracker
			var ok, retried, failed int64
			for i := c; i < len(mix); i += clients {
				lat, retr, err := doOne(httpc, base, mix[i], timeout, retries)
				retried += retr
				if err != nil {
					fmt.Fprintf(os.Stderr, "loadgen: client %d request %d: %v\n", c, i, err)
					failed++
					continue
				}
				local.Record(lat.Nanoseconds())
				ok++
			}
			mu.Lock()
			agg.Merge(&local)
			okTotal += ok
			r429s += retried
			failures += failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	e := &entry{
		Name:       fmt.Sprintf("loadgen/run/clients=%d", clients),
		Iterations: okTotal,
		NsPerOp:    agg.Mean(),
		Metrics: map[string]float64{
			"p50_ns":         float64(agg.Percentile(0.50)),
			"p95_ns":         float64(agg.Percentile(0.95)),
			"p99_ns":         float64(agg.Percentile(0.99)),
			"max_ns":         float64(agg.Max()),
			"wall_ns":        float64(elapsed.Nanoseconds()),
			"backpressured":  float64(r429s),
			"failed":         float64(failures),
			"requests_per_s": float64(okTotal) / elapsed.Seconds(),
		},
	}
	return e, failures
}

// doOne performs one request with bounded backpressure retries, returning its
// total latency (including queue/retry time — that is the latency a real
// client observes) and how many backpressure responses it absorbed.
func doOne(httpc *http.Client, base, body string, timeout time.Duration, retries int) (time.Duration, int64, error) {
	start := time.Now()
	var backpressured int64
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run", strings.NewReader(body))
		if err != nil {
			cancel()
			return 0, backpressured, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := httpc.Do(req)
		if err != nil {
			cancel()
			return 0, backpressured, err
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		cancel()
		if cerr != nil {
			return 0, backpressured, cerr
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			return time.Since(start), backpressured, nil
		case serve.Retryable(resp.StatusCode) && attempt < retries:
			backpressured++
			delay := serve.ParseRetryAfter(resp.Header)
			if delay <= 0 || delay > time.Second {
				delay = 20 * time.Millisecond
			}
			time.Sleep(delay)
		default:
			return 0, backpressured, fmt.Errorf("status %d after %d attempts", resp.StatusCode, attempt+1)
		}
	}
}

// serverStats reads /v1/stats for the post-run sims count and cache-hit
// ratio (store hits / lookups; 0 when the server has no store).
func serverStats(httpc *http.Client, base string) (int64, float64) {
	resp, err := httpc.Get(base + "/v1/stats")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: stats: %v\n", err)
		return -1, 0
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: stats: %v\n", err)
		return -1, 0
	}
	var ratio float64
	if st.Store != nil {
		if total := st.Store.Hits + st.Store.Misses; total > 0 {
			ratio = float64(st.Store.Hits) / float64(total)
		}
	}
	return st.Sims, ratio
}
