package experiments

import (
	"fmt"

	libra "repro"
	"repro/internal/resultstore"
	"repro/internal/workloads"
)

// SetStore layers a persistent result store under the runner's in-memory
// singleflight cache: a key's first simulation in any process publishes its
// frames; every later run — in this process or another sharing the
// directory — recalls them with one file read and zero simulations (store
// hits do not count in Sims). Pass nil to detach. The store can only make
// runs faster, never different: a missing, corrupt or unwritable entry
// degrades to a normal simulation.
func (r *Runner) SetStore(s *resultstore.Store) {
	r.store = s
	if r.fingerprint == "" {
		r.fingerprint = resultstore.DefaultFingerprint()
	}
}

// Store returns the attached result store (nil when detached).
func (r *Runner) Store() *resultstore.Store { return r.store }

// SetFingerprint overrides the code fingerprint mixed into store keys —
// tests use this to prove that a fingerprint change misses cleanly.
func (r *Runner) SetFingerprint(fp string) { r.fingerprint = fp }

// KeySpec derives the canonical store identity of one (config, game)
// simulation at the runner's scale. Every semantic input participates:
// schema version, code fingerprint, the full configuration, the workload
// profile and its seed, and the frame window. Host parallelism
// (Config.SimWorkers, like the -jobs fan-out) is excluded by design —
// results are byte-identical for any value, so warm runs may change it and
// still hit.
func (r *Runner) KeySpec(cfg libra.Config, game string) (resultstore.KeySpec, error) {
	prof, err := workloads.ByAbbrev(game)
	if err != nil {
		return resultstore.KeySpec{}, fmt.Errorf("experiments: %w", err)
	}
	kcfg := cfg
	kcfg.SimWorkers = 0 // host parallelism: not part of the result identity
	fields := map[string]string{}
	resultstore.FlattenInto(fields, "config", kcfg)
	resultstore.FlattenInto(fields, "profile", prof)
	fp := r.fingerprint
	if fp == "" {
		fp = resultstore.DefaultFingerprint()
	}
	return resultstore.KeySpec{
		Schema:      resultstore.SchemaVersion,
		Fingerprint: fp,
		Game:        game,
		Seed:        prof.Seed,
		Frames:      r.P.Frames,
		Warmup:      r.P.Warmup,
		Fields:      fields,
	}, nil
}

// storeGet recalls a key from the persistent store, rebuilding the GameRun
// (the summary is recomputed from the stored frames, so it can never drift
// from them). Returns nil on any miss; corrupt entries are quarantined by
// the store and surface here as a miss.
func (r *Runner) storeGet(key, game string) *GameRun {
	var frames []libra.FrameResult
	if !r.store.Get(key, &frames) {
		return nil
	}
	return &GameRun{Game: game, Frames: frames, Summary: libra.Summarize(frames, r.P.Warmup)}
}
