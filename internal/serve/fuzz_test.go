package serve

import (
	"testing"

	libra "repro"
	"repro/internal/experiments"
)

// FuzzDecodeRunRequest: no request body may panic the decoder, anything it
// accepts must satisfy both the service caps and the library's Validate —
// the 400-or-valid contract of POST /v1/run — and must simulate. The frame
// each accepted request renders is clamped to at most 64×64, which bounds
// the cost of the largest hardware the caps allow (64 Raster Units × 256
// cores, a 64 MiB L2) to tens of milliseconds; no other decoded field
// changes.
func FuzzDecodeRunRequest(f *testing.F) {
	f.Add([]byte(`{"game":"Jet"}`))
	f.Add([]byte(`{"game":"SuS","frames":8,"warmup":2}`))
	f.Add([]byte(`{"game":"Jet","frames":2,"warmup":0,"config":{"ScreenW":64,"ScreenH":64,"RasterUnits":1,"CoresPerRU":2}}`))
	f.Add([]byte(`{"game":"Gra","config":{"Policy":"libra","L2KB":1024,"Filtering":"bilinear"}}`))
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"game":"Jet"} trailing`))
	f.Add([]byte(`{"game":"Jet","frames":-1}`))
	f.Add([]byte(`{"game":"Jet","frames":1000000000}`))
	f.Add([]byte(`{"game":"Jet","warmup":-7}`))
	f.Add([]byte(`{"game":"Jet","config":{"ScreenW":-5,"ScreenH":1e9}}`))
	f.Add([]byte(`{"game":"Jet","config":{"SupertileSize":3}}`))
	f.Add([]byte(`{"game":"Jet","config":{"L2KB":576}}`))
	f.Add([]byte(`{"game":"Jet","config":{"L2KB":3}}`))
	f.Add([]byte(`{"game":"x","config":null}`))
	f.Add([]byte(`{"game":"SuS","frames":1,"config":{"RasterUnits":64,"CoresPerRU":256,"L2KB":65536}}`))
	f.Add([]byte(`{"game":"AnB","config":{"SimWorkers":1024,"RenderElim":true,"Filtering":"trilinear"}}`))
	f.Add([]byte(`{"game":"Jet","config":{"SimWorkers":1025}}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := DecodeRunRequest(raw)
		if err != nil {
			return // rejected input: the handler answers 400, nothing else to hold
		}
		if req.Game == "" {
			t.Fatalf("accepted request without a game: %s", raw)
		}
		if req.Frames < 1 || req.Frames > MaxFrames {
			t.Fatalf("accepted frames %d outside [1, %d]: %s", req.Frames, MaxFrames, raw)
		}
		if req.Warmup == nil || *req.Warmup < 0 || *req.Warmup >= req.Frames {
			t.Fatalf("accepted bad warmup %v for frames %d: %s", req.Warmup, req.Frames, raw)
		}
		if err := req.Config.Validate(); err != nil {
			t.Fatalf("accepted config failing Validate (%v): %s", err, raw)
		}
		if req.Config.ScreenW > MaxScreenDim || req.Config.ScreenH > MaxScreenDim ||
			req.Config.RasterUnits > MaxRasterUnits || req.Config.CoresPerRU > MaxCoresPerRU ||
			req.Config.L2KB > libra.MaxL2KB {
			t.Fatalf("accepted config above service caps: %+v", req.Config)
		}
		cfg := req.Config
		cfg.ScreenW, cfg.ScreenH = min(cfg.ScreenW, 64), min(cfg.ScreenH, 64)
		// The width a server admitting one request at a time (Config's zero
		// value) gives its simulations; the client's SimWorkers is ignored.
		cfg.SimWorkers = experiments.SimWorkers(1)
		run, err := libra.NewRun(cfg, req.Game)
		if err != nil {
			t.Fatalf("accepted request does not build (%v): %s", err, raw)
		}
		run.RenderFrame()
	})
}
