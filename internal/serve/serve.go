package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	libra "repro"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// Request-scoped telemetry counter names (deterministic /v1/stats ordering
// comes from telemetry.Snapshot's sorted-key JSON).
const (
	MetricRequests  = "requests_total"
	MetricOK        = "requests_ok"
	MetricBad       = "requests_bad_request"
	MetricRejected  = "requests_rejected"
	MetricCancelled = "requests_cancelled"
	MetricTimeout   = "requests_timeout"
	MetricFailed    = "requests_failed"
)

// Config parameterizes a Server. The zero value is usable: no persistent
// store, trace streaming off, in-flight and queue bounds clamped to 1, no
// request deadline, silent logs.
type Config struct {
	// ResultDir, when non-empty, opens a persistent result store shared by
	// every simulation the service runs (warm requests answer from disk with
	// zero simulations).
	ResultDir string
	// MaxInFlight bounds concurrently executing requests; MaxQueue bounds
	// the waiters behind them. Beyond both, /v1/run answers 429. Each
	// simulation's render farm gets the CPUs that MaxInFlight simulations
	// leave idle (experiments.SimWorkers); a client's Config.SimWorkers is
	// ignored.
	MaxInFlight int
	MaxQueue    int
	// RequestTimeout, when positive, caps each request's simulation time;
	// expiry aborts at the next frame boundary and answers 504.
	RequestTimeout time.Duration
	// EnableTrace allows `POST /v1/run?trace=1` to stream a Chrome
	// trace-event JSON of the requested simulation instead of its summary.
	EnableTrace bool
	// Log receives request-level diagnostics (nil = discard).
	Log *log.Logger
}

// runnerKey identifies the experiments.Runner serving one frame window. All
// runners share one result store; the window lives in Runner.P, so each
// (frames, warmup) pair needs its own.
type runnerKey struct{ frames, warmup int }

// Server is the simulation service: an http.Handler exposing /v1/run,
// /v1/experiments, /v1/healthz and /v1/stats, backed by the same
// experiments.Runner singleflight + result store stack as the CLI drivers.
type Server struct {
	cfg   Config
	log   *log.Logger
	store *resultstore.Store
	adm   *Admission
	reg   *telemetry.Registry //libra:nonnil

	// base governs every simulation; Abort cancels it, stopping in-flight
	// renders at their next frame boundary (the hard-stop behind the
	// graceful-drain timeout).
	base      context.Context
	abortBase context.CancelFunc

	mu      sync.Mutex
	runners map[runnerKey]*experiments.Runner

	httpSrv *http.Server
}

// NewServer builds a service from cfg, opening the result store when
// configured. ctx is the lifetime of the server: every simulation runs under
// it (in addition to its request context), so cancelling ctx has the same
// effect as Abort.
func NewServer(ctx context.Context, cfg Config) (*Server, error) {
	logger := cfg.Log
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	var store *resultstore.Store
	if cfg.ResultDir != "" {
		st, err := resultstore.Open(cfg.ResultDir)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		store = st
	}
	base, abort := context.WithCancel(ctx)
	s := &Server{
		cfg:       cfg,
		log:       logger,
		store:     store,
		adm:       NewAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		reg:       telemetry.NewRegistry(),
		base:      base,
		abortBase: abort,
		runners:   map[runnerKey]*experiments.Runner{},
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	return s, nil
}

// Sims returns the simulations executed across every runner — 0 on a fully
// warm store, which is exactly what the CI smoke test asserts.
func (s *Server) Sims() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, r := range s.runners {
		n += r.Sims()
	}
	return n
}

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/experiments", s.handleExperiments)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	return mux
}

// Serve accepts connections on ln until Shutdown or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully drains the server: the listener closes immediately,
// every admitted request runs to completion, and only then does Shutdown
// return. If ctx expires first, Abort is called so the remaining simulations
// stop at their next frame boundary (never mid-frame, never corrupting the
// store), and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	if err != nil {
		s.Abort()
	}
	return err
}

// Abort cancels the server's base context: every in-flight simulation stops
// at its next frame boundary with a cancellation error (answered as 503 by
// the handlers still running). Idempotent.
func (s *Server) Abort() { s.abortBase() }

// runner returns (creating on first use) the runner for one frame window.
func (s *Server) runner(frames, warmup int) *experiments.Runner {
	k := runnerKey{frames, warmup}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runners[k]; ok {
		return r
	}
	p := experiments.DefaultParams()
	p.Frames = frames
	p.Warmup = warmup
	r := experiments.NewRunner(p)
	r.SetJobs(s.adm.MaxInFlight())
	if s.store != nil {
		r.SetStore(s.store)
	}
	s.runners[k] = r
	return r
}

// errorBody is the uniform error payload of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: msg})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter(MetricRequests).Inc()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	if err != nil {
		s.reg.Counter(MetricBad).Inc()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSONError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", MaxRequestBody))
			return
		}
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	req, err := DecodeRunRequest(body)
	if err != nil {
		s.reg.Counter(MetricBad).Inc()
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	wantTrace := r.URL.Query().Get("trace") == "1"
	if wantTrace && !s.cfg.EnableTrace {
		s.reg.Counter(MetricBad).Inc()
		writeJSONError(w, http.StatusForbidden, "trace streaming is disabled (start the server with -trace)")
		return
	}

	// The request runs under its own context AND the server's base context:
	// whichever cancels first stops the simulation at the next frame
	// boundary. An optional deadline layers on top.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.base, cancel)
	defer stop()
	if s.cfg.RequestTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer tcancel()
	}

	release, err := s.adm.Acquire(ctx)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			s.reg.Counter(MetricRejected).Inc()
			w.Header().Set("Retry-After", "1")
			writeJSONError(w, http.StatusTooManyRequests,
				fmt.Sprintf("admission queue full (%d in flight, %d queued)", s.adm.MaxInFlight(), s.adm.MaxQueue()))
		case errors.Is(err, context.DeadlineExceeded):
			s.reg.Counter(MetricTimeout).Inc()
			writeJSONError(w, http.StatusGatewayTimeout, "deadline expired while queued")
		default:
			s.reg.Counter(MetricCancelled).Inc()
			writeJSONError(w, http.StatusServiceUnavailable, "cancelled while queued")
		}
		return
	}
	defer release()

	if wantTrace {
		s.streamTrace(ctx, w, req)
		return
	}

	run, err := s.runner(req.Frames, *req.Warmup).TryRunContext(ctx, req.Config, req.Game)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.reg.Counter(MetricTimeout).Inc()
			writeJSONError(w, http.StatusGatewayTimeout, "simulation aborted at frame boundary: deadline exceeded")
		case errors.Is(err, context.Canceled):
			s.reg.Counter(MetricCancelled).Inc()
			// The client is usually gone; the status is for the drain case
			// where the server aborted but the connection is still up.
			writeJSONError(w, http.StatusServiceUnavailable, "simulation aborted at frame boundary: cancelled")
		default:
			s.reg.Counter(MetricFailed).Inc()
			s.log.Printf("run %s: %v", req.Game, err)
			writeJSONError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.reg.Counter(MetricOK).Inc()
	w.Header().Set("Content-Type", "application/json")
	if err := run.WriteJSON(w); err != nil {
		s.log.Printf("write %s: %v", req.Game, err)
	}
}

// streamTrace runs the requested simulation outside the cache (a trace is a
// diagnostic of one fresh run, not a memoizable result), on the render farm
// a runner gives its simulations, and streams its Chrome trace-event JSON as
// the response body.
func (s *Server) streamTrace(ctx context.Context, w http.ResponseWriter, req RunRequest) {
	req.Config.SimWorkers = experiments.SimWorkers(s.adm.MaxInFlight())
	run, err := libra.NewRun(req.Config, req.Game)
	if err != nil {
		s.reg.Counter(MetricBad).Inc()
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	tr := telemetry.NewTrace(telemetry.TraceConfig{ClockHz: req.Config.ClockHz})
	run.SetRecorder(tr)
	if _, err := run.RenderFramesContext(ctx, req.Frames); err != nil {
		s.reg.Counter(MetricCancelled).Inc()
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.reg.Counter(MetricOK).Inc()
	w.Header().Set("Content-Type", "application/json")
	if err := tr.ExportChromeTrace(w); err != nil {
		s.log.Printf("trace %s: %v", req.Game, err)
	}
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	ids := experiments.NewRunner(experiments.DefaultParams()).ExperimentIDs()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Experiments []string `json:"experiments"`
	}{Experiments: ids})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// Stats is the /v1/stats payload: store effectiveness, simulation count,
// admission state, and the request counters.
type Stats struct {
	Sims  int64 `json:"sims"`
	Store *struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Corrupt int64 `json:"corrupt"`
		Puts    int64 `json:"puts"`
	} `json:"store,omitempty"`
	Admission struct {
		InFlight    int64 `json:"in_flight"`
		Waiting     int64 `json:"waiting"`
		MaxInFlight int   `json:"max_in_flight"`
		MaxQueue    int   `json:"max_queue"`
		Admitted    int64 `json:"admitted"`
		Rejected    int64 `json:"rejected"`
		Aborted     int64 `json:"aborted"`
	} `json:"admission"`
	Requests map[string]int64 `json:"requests"`
}

// StatsSnapshot assembles the current Stats (also used by tests directly).
func (s *Server) StatsSnapshot() Stats {
	var st Stats
	st.Sims = s.Sims()
	if s.store != nil {
		m := s.store.Metrics()
		st.Store = &struct {
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Corrupt int64 `json:"corrupt"`
			Puts    int64 `json:"puts"`
		}{
			Hits:    m.Counter(resultstore.MetricHit).Value(),
			Misses:  m.Counter(resultstore.MetricMiss).Value(),
			Corrupt: m.Counter(resultstore.MetricCorrupt).Value(),
			Puts:    m.Counter(resultstore.MetricPut).Value(),
		}
	}
	st.Admission.InFlight = s.adm.InFlight()
	st.Admission.Waiting = s.adm.Waiting()
	st.Admission.MaxInFlight = s.adm.MaxInFlight()
	st.Admission.MaxQueue = s.adm.MaxQueue()
	st.Admission.Admitted = s.adm.Admitted()
	st.Admission.Rejected = s.adm.Rejected()
	st.Admission.Aborted = s.adm.Aborted()
	st.Requests = s.reg.Snapshot().Counters
	if st.Requests == nil {
		st.Requests = map[string]int64{}
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.StatsSnapshot())
}

// Retryable reports whether an HTTP status is worth retrying with backoff —
// the single definition cmd/loadgen and the smoke harness share.
func Retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// ParseRetryAfter returns the Retry-After delay of a 429 response (0 when
// absent or malformed).
func ParseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
