package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	libra "repro"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// Service-side resource caps, stricter than the library's Validate bounds:
// a request decoded off the network must not be able to buy an unbounded
// amount of simulation. Oversized values are a 400, never a panic and never
// an allocation.
const (
	// MaxRequestBody bounds the /v1/run request body in bytes.
	MaxRequestBody = 1 << 20
	// MaxScreenDim bounds each requested screen dimension (4K-class).
	MaxScreenDim = 4096
	// MaxFrames bounds frames per request; window it instead of asking for
	// more (warm windows are near-free, so pagination costs one sim).
	MaxFrames = 256
	// MaxRasterUnits and MaxCoresPerRU bound the simulated hardware scale.
	MaxRasterUnits = 64
	MaxCoresPerRU  = 256
)

// DefaultFrames is the service's frame window when a /v1/run request omits
// it. An omitted warm-up follows experiments.DefaultWarmup (2 frames, 0 for
// windows of at most 2).
const DefaultFrames = 8

// RunRequest is the body of POST /v1/run: a benchmark, a GPU configuration
// and a frame window. The service's own defaults fill what a request omits:
// DefaultFrames frames with experiments.DefaultWarmup, the standard
// 640×384 screen of experiments.DefaultParams, two 4-core Raster Units
// under the LIBRA policy, and Table I's 2 MB L2 (L2KB 0). cmd/librasim's
// single run defaults differ (10 frames, a 1024 KB L2), so a byte-identical
// comparison passes every field explicitly.
type RunRequest struct {
	Game   string       `json:"game"`
	Config libra.Config `json:"config"`
	Frames int          `json:"frames"`
	// Warmup is a pointer so "omitted" (default) and "explicit 0" (keep
	// every frame in the summary) stay distinguishable.
	Warmup *int `json:"warmup"`
}

// DecodeRunRequest parses and validates a /v1/run body, returning the
// normalized request (defaults applied). Any error is a client error: the
// handler answers 400 and nothing has been allocated or simulated. It must
// never panic for any input — fuzzed as FuzzDecodeRunRequest.
func DecodeRunRequest(raw []byte) (RunRequest, error) {
	var req RunRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return RunRequest{}, fmt.Errorf("invalid JSON: %w", err)
	}
	if dec.More() {
		return RunRequest{}, fmt.Errorf("trailing data after request object")
	}
	if req.Game == "" {
		return RunRequest{}, fmt.Errorf("missing game")
	}
	if _, err := workloads.ByAbbrev(req.Game); err != nil {
		return RunRequest{}, fmt.Errorf("unknown game %q", req.Game)
	}

	// Frame window defaults and bounds.
	if req.Frames == 0 {
		req.Frames = DefaultFrames
	}
	if req.Frames < 1 || req.Frames > MaxFrames {
		return RunRequest{}, fmt.Errorf("frames %d outside [1, %d]", req.Frames, MaxFrames)
	}
	if req.Warmup == nil {
		w := experiments.DefaultWarmup(req.Frames)
		req.Warmup = &w
	}
	if err := (experiments.Params{Frames: req.Frames, Warmup: *req.Warmup}).Validate(); err != nil {
		return RunRequest{}, err
	}

	// Configuration defaults, then the service caps on top of the
	// library's own Validate.
	cfg := &req.Config
	if cfg.ScreenW == 0 && cfg.ScreenH == 0 {
		d := experiments.DefaultParams()
		cfg.ScreenW, cfg.ScreenH = d.ScreenW, d.ScreenH
	}
	if cfg.RasterUnits == 0 {
		cfg.RasterUnits = 2
	}
	if cfg.CoresPerRU == 0 {
		cfg.CoresPerRU = 4
	}
	if cfg.Policy == "" {
		cfg.Policy = libra.PolicyLIBRA
	}
	if cfg.ScreenW > MaxScreenDim || cfg.ScreenH > MaxScreenDim {
		return RunRequest{}, fmt.Errorf("screen %dx%d exceeds the service bound %d",
			cfg.ScreenW, cfg.ScreenH, MaxScreenDim)
	}
	if cfg.RasterUnits > MaxRasterUnits {
		return RunRequest{}, fmt.Errorf("raster units %d exceed the service bound %d",
			cfg.RasterUnits, MaxRasterUnits)
	}
	if cfg.CoresPerRU > MaxCoresPerRU {
		return RunRequest{}, fmt.Errorf("cores per RU %d exceed the service bound %d",
			cfg.CoresPerRU, MaxCoresPerRU)
	}
	if cfg.IntervalWidth < 0 {
		return RunRequest{}, fmt.Errorf("negative interval width")
	}
	if cfg.ClockHz < 0 {
		return RunRequest{}, fmt.Errorf("negative clock")
	}
	if err := cfg.Validate(); err != nil {
		return RunRequest{}, err
	}
	return req, nil
}
