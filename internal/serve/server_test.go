package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	libra "repro"
	"repro/internal/experiments"
)

// tinyBody is a fast-to-simulate /v1/run request: a 64×64 screen renders in
// milliseconds, so the HTTP tests never wait on real simulation time.
func tinyBody(game string, frames int) string {
	return fmt.Sprintf(`{"game":%q,"frames":%d,"warmup":0,"config":{"ScreenW":64,"ScreenH":64,"RasterUnits":1,"CoresPerRU":2}}`, game, frames)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postRun(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestRunEndpoint: a valid request simulates and returns the canonical
// GameRun JSON with the requested frame count.
func TestRunEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 2})
	resp, raw := postRun(t, ts.URL, tinyBody("Jet", 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var run experiments.GameRun
	if err := json.Unmarshal(raw, &run); err != nil {
		t.Fatalf("response is not a GameRun: %v", err)
	}
	if run.Game != "Jet" || len(run.Frames) != 2 {
		t.Fatalf("got game=%q frames=%d, want Jet/2", run.Game, len(run.Frames))
	}
	if s.Sims() != 1 {
		t.Fatalf("sims = %d after one cold request, want 1", s.Sims())
	}
}

// TestRunDeterministicBytes: identical requests produce byte-identical
// responses — the HTTP half of the determinism contract the CI smoke test
// checks against cmd/librasim.
func TestRunDeterministicBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 2})
	_, first := postRun(t, ts.URL, tinyBody("SuS", 2))
	_, second := postRun(t, ts.URL, tinyBody("SuS", 2))
	if !bytes.Equal(first, second) {
		t.Fatalf("responses differ:\n%s\n%s", first, second)
	}
	if s.Sims() != 1 {
		t.Fatalf("sims = %d, want 1 (second request must hit the cache)", s.Sims())
	}
}

// TestRunWarmStore: with a persistent store, a fresh server instance answers
// from disk with zero simulations — the smoke test's warm-pass assertion.
func TestRunWarmStore(t *testing.T) {
	dir := t.TempDir()
	_, cold := newTestServer(t, Config{ResultDir: dir, MaxInFlight: 2, MaxQueue: 2})
	_, coldBody := postRun(t, cold.URL, tinyBody("Jet", 2))

	warm, warmTS := newTestServer(t, Config{ResultDir: dir, MaxInFlight: 2, MaxQueue: 2})
	_, warmBody := postRun(t, warmTS.URL, tinyBody("Jet", 2))
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatalf("warm response differs from cold:\n%s\n%s", coldBody, warmBody)
	}
	if warm.Sims() != 0 {
		t.Fatalf("warm server ran %d sims, want 0", warm.Sims())
	}
	st := warm.StatsSnapshot()
	if st.Store == nil || st.Store.Hits != 1 {
		t.Fatalf("warm stats = %+v, want one store hit", st)
	}
}

// TestRunRejectsMalformed: malformed and hostile bodies answer 400 (405/413
// for the method and size violations) without simulating anything.
func TestRunRejectsMalformed(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty", "", http.StatusBadRequest},
		{"not json", "hello", http.StatusBadRequest},
		{"missing game", `{"frames":2}`, http.StatusBadRequest},
		{"unknown game", `{"game":"nope"}`, http.StatusBadRequest},
		{"unknown field", `{"game":"Jet","bogus":1}`, http.StatusBadRequest},
		{"unknown config field", `{"game":"Jet","config":{"Bogus":1}}`, http.StatusBadRequest},
		{"trailing data", `{"game":"Jet"} {}`, http.StatusBadRequest},
		{"excess frames", fmt.Sprintf(`{"game":"Jet","frames":%d}`, MaxFrames+1), http.StatusBadRequest},
		{"negative warmup", `{"game":"Jet","frames":2,"warmup":-1}`, http.StatusBadRequest},
		{"warmup past frames", `{"game":"Jet","frames":2,"warmup":2}`, http.StatusBadRequest},
		{"huge screen", `{"game":"Jet","config":{"ScreenW":8192,"ScreenH":64}}`, http.StatusBadRequest},
		{"huge fleet", `{"game":"Jet","config":{"RasterUnits":1000}}`, http.StatusBadRequest},
		{"bad policy", `{"game":"Jet","config":{"Policy":"nope"}}`, http.StatusBadRequest},
		{"l2 set count not a power of two", `{"game":"Jet","config":{"L2KB":576}}`, http.StatusBadRequest},
		{"tiny l2", `{"game":"Jet","config":{"L2KB":3}}`, http.StatusBadRequest},
		{"l2 above the bound", fmt.Sprintf(`{"game":"Jet","config":{"L2KB":%d}}`, 2*libra.MaxL2KB), http.StatusBadRequest},
		{"sim workers above the bound", fmt.Sprintf(`{"game":"Jet","config":{"SimWorkers":%d}}`, libra.MaxSimWorkers+1), http.StatusBadRequest},
		{"oversized body", `{"game":"Jet","config":{"Filtering":"` + strings.Repeat("x", MaxRequestBody) + `"}}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, raw := postRun(t, ts.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, raw)
		}
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error payload not JSON: %s", tc.name, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run status = %d, want 405", resp.StatusCode)
	}
	if s.Sims() != 0 {
		t.Errorf("rejected requests ran %d sims, want 0", s.Sims())
	}
}

// blockingStub installs a simulate stub on the runner serving (frames,
// warmup=0) that signals arrival and blocks until released or cancelled.
func blockingStub(s *Server, frames int) (started chan string, releaseAll func()) {
	started = make(chan string, 64)
	release := make(chan struct{})
	s.runner(frames, 0).SetSimulate(func(ctx context.Context, cfg libra.Config, game string) (*experiments.GameRun, error) {
		started <- game
		select {
		case <-release:
			return &experiments.GameRun{Game: game}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	var once sync.Once
	return started, func() { once.Do(func() { close(release) }) }
}

// TestRunBackpressure429: with the slot held and the queue full, the next
// request answers 429 with a Retry-After hint; after release, queued requests
// complete.
func TestRunBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	started, releaseAll := blockingStub(s, 4)
	defer releaseAll()

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	do := func(game string) {
		resp, raw := postRun(t, ts.URL, tinyBody(game, 4))
		results <- result{resp.StatusCode, raw}
	}
	go do("Jet")
	<-started // leader admitted and inside the stub
	go do("SuS")
	waitFor(t, func() bool { return s.adm.Waiting() == 1 })

	resp, raw := postRun(t, ts.URL, tinyBody("Gra", 4))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity status = %d, body %s", resp.StatusCode, raw)
	}
	if ra := ParseRetryAfter(resp.Header); ra <= 0 {
		t.Fatalf("429 without usable Retry-After (%q)", resp.Header.Get("Retry-After"))
	}
	if !Retryable(resp.StatusCode) {
		t.Fatal("429 must be classified retryable")
	}

	releaseAll()
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("queued request finished %d, body %s", r.status, r.body)
		}
	}
	if got := s.StatsSnapshot().Requests[MetricRejected]; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestShutdownDrainsAdmitted: Shutdown returns only after every admitted
// request completes, and those requests answer 200 — the graceful half of
// the drain contract.
func TestShutdownDrainsAdmitted(t *testing.T) {
	s, err := NewServer(context.Background(), Config{MaxInFlight: 2, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	started, releaseAll := blockingStub(s, 4)
	defer releaseAll()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	reqDone := make(chan int, 1)
	go func() {
		resp, _ := postRun(t, url, tinyBody("Jet", 4))
		reqDone <- resp.StatusCode
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	releaseAll()
	if status := <-reqDone; status != http.StatusOK {
		t.Fatalf("drained request finished %d, want 200", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestShutdownTimeoutAborts: when the drain deadline expires, the server's
// hard stop cancels the base context and the stuck simulation aborts with a
// 503 instead of running forever.
func TestShutdownTimeoutAborts(t *testing.T) {
	s, err := NewServer(context.Background(), Config{MaxInFlight: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	started, releaseAll := blockingStub(s, 4)
	defer releaseAll()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	reqDone := make(chan int, 1)
	go func() {
		resp, _ := postRun(t, url, tinyBody("Jet", 4))
		reqDone <- resp.StatusCode
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil despite a stuck request")
	}
	if status := <-reqDone; status != http.StatusServiceUnavailable {
		t.Fatalf("aborted request finished %d, want 503", status)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestConcurrentRunWithCancellation is the server-path race exercise behind
// the CI -race matrix entry: a mix of successful requests and requests whose
// clients vanish mid-flight, all against the shared singleflight runner. The
// assertions are about integrity, not outcomes: the server keeps serving,
// and one canary request still completes with 200 afterwards.
func TestConcurrentRunWithCancellation(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 4, MaxQueue: 64, ResultDir: t.TempDir()})
	games := []string{"Jet", "SuS", "Gra"}
	var wg sync.WaitGroup
	var cancelled atomic.Int64
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%3 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i)*time.Millisecond/4)
				defer cancel()
			}
			body := tinyBody(games[i%len(games)], 2)
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				cancelled.Add(1) // client-side abort: exactly what we are injecting
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && !Retryable(resp.StatusCode) && resp.StatusCode != http.StatusGatewayTimeout {
				t.Errorf("request %d: unexpected status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	resp, raw := postRun(t, ts.URL, tinyBody("Jet", 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("canary after cancellation storm: %d, body %s", resp.StatusCode, raw)
	}
	if w := s.adm.Waiting(); w != 0 {
		t.Errorf("queue not drained after storm: waiting = %d", w)
	}
	t.Logf("storm: %d client-side cancellations, %d sims", cancelled.Load(), s.Sims())
}

// TestExperimentsEndpoint lists the registry.
func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range out.Experiments {
		if id == "fig11" {
			found = true
		}
	}
	if !found || len(out.Experiments) < 10 {
		t.Fatalf("experiments listing missing fig11 or too short: %v", out.Experiments)
	}
}

// TestHealthzAndStats: the liveness endpoint answers, and stats carry the
// configured admission bounds plus request counters.
func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 3, MaxQueue: 7})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	postRun(t, ts.URL, tinyBody("Jet", 2))
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Admission.MaxInFlight != 3 || st.Admission.MaxQueue != 7 {
		t.Errorf("stats bounds = (%d, %d), want (3, 7)", st.Admission.MaxInFlight, st.Admission.MaxQueue)
	}
	if st.Requests[MetricOK] != 1 || st.Sims != 1 {
		t.Errorf("stats after one run: ok=%d sims=%d, want 1/1", st.Requests[MetricOK], st.Sims)
	}
}

// TestRunIgnoresClientSimWorkers: the render-farm width is the server's to
// choose. A request asking for 7 workers gets the bytes of one asking for
// none, from the same simulation, and still streams a trace.
func TestRunIgnoresClientSimWorkers(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 2, EnableTrace: true})
	plain := tinyBody("Jet", 2)
	asked := strings.Replace(plain, `"CoresPerRU":2`, `"CoresPerRU":2,"SimWorkers":7`, 1)
	resp, askedBody := postRun(t, ts.URL, asked)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SimWorkers 7: status %d, body %s", resp.StatusCode, askedBody)
	}
	_, plainBody := postRun(t, ts.URL, plain)
	if !bytes.Equal(askedBody, plainBody) {
		t.Fatalf("SimWorkers 7 changed the body:\n%s\n%s", askedBody, plainBody)
	}
	if s.Sims() != 1 {
		t.Errorf("sims = %d, want 1 (SimWorkers is not part of the result's identity)", s.Sims())
	}
	resp, err := http.Post(ts.URL+"/v1/run?trace=1", "application/json", strings.NewReader(asked))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte(`"traceEvents"`)) {
		t.Fatalf("traced SimWorkers 7 request: status %d, body %.120s", resp.StatusCode, raw)
	}
}

// TestTraceGating: trace streaming answers 403 when disabled and a Chrome
// trace-event document when enabled.
func TestTraceGating(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, _ := postRun(t, off.URL, tinyBody("Jet", 2))
	_ = resp
	resp, err := http.Post(off.URL+"/v1/run?trace=1", "application/json", strings.NewReader(tinyBody("Jet", 2)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("trace on disabled server = %d, want 403", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnableTrace: true})
	resp, err = http.Post(on.URL+"/v1/run?trace=1", "application/json", strings.NewReader(tinyBody("Jet", 2)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace request = %d, body %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte(`"traceEvents"`)) {
		t.Fatalf("trace body is not Chrome trace-event JSON: %.120s", raw)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace body is not valid JSON: %v", err)
	}
}

// TestRequestTimeout504: a server-side deadline shorter than the simulation
// aborts at a frame boundary and answers 504.
func TestRequestTimeout504(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1, RequestTimeout: 30 * time.Millisecond})
	started, releaseAll := blockingStub(s, 4)
	defer releaseAll()
	done := make(chan struct{})
	var status int
	var body []byte
	go func() {
		resp, raw := postRun(t, ts.URL, tinyBody("Jet", 4))
		status, body = resp.StatusCode, raw
		close(done)
	}()
	<-started
	<-done
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request = %d, body %s, want 504", status, body)
	}
}
