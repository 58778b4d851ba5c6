// Package resultstore is a disk-backed, content-addressed store for
// simulation results. Entries are keyed by a canonical hash of everything
// that determines a simulation's output (schema version, code fingerprint,
// configuration, workload profile, seed, frame count — see KeySpec), so a
// warm lookup costs one file read and zero simulations, across processes and
// across runs.
//
// The store is built to be safe, never clever:
//
//   - Writes are crash-safe: payloads go to a private temp file, are fsynced,
//     and enter the store by an atomic rename. A reader can never observe a
//     half-written entry under a valid name.
//   - Every entry carries a SHA-256 checksum trailer. A corrupt or truncated
//     entry (bit rot, torn disk, kill -9 mid-rename) is detected on read,
//     quarantined, and reported as a miss — never returned, never an error.
//   - Cross-process writers coordinate through per-key lock files with
//     stale-lock takeover (see lock.go), so concurrent runs sharing a store
//     directory simulate each key exactly once.
//   - A schema or code-fingerprint change lands in a different key, so stale
//     results are invalidated by construction rather than served.
//
// Lookup failures of any kind degrade to a re-simulation; the store can make
// a run faster, never wrong.
package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/telemetry"
)

// SchemaVersion is the on-disk payload schema. It participates in every key,
// so bumping it cleanly invalidates all prior entries (they become
// unreachable and are reclaimed by GC) instead of being misdecoded.
// v2: FrameResult gained the Rendering Elimination fields (TilesSkipped,
// REHitRatio).
const SchemaVersion = 2

// magic identifies an entry file and its framing version.
var magic = [8]byte{'L', 'I', 'B', 'R', 'A', 'R', 'S', '1'}

// Entry framing: magic(8) | payloadLen(8, big endian) | payload | sha256(32)
// where the checksum covers magic, length and payload.
const (
	headerSize  = 16
	trailerSize = sha256.Size
)

// Metric names ticked by the store (see Metrics).
const (
	MetricHit      = "store_hit"
	MetricMiss     = "store_miss"
	MetricCorrupt  = "store_corrupt"
	MetricPut      = "store_put"
	MetricPutError = "store_put_error"
	MetricTakeover = "store_takeover"
)

// Store is one result-store directory. All methods are safe for concurrent
// use by multiple goroutines and multiple processes sharing the directory.
type Store struct {
	dir     string
	metrics *telemetry.Registry
}

// tmpSeq disambiguates temp files created by one process for the same key.
var tmpSeq atomic.Int64

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, metrics: telemetry.NewRegistry()}
	for _, sub := range []string{"objects", "tmp", "locks", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
	}
	return s, nil
}

// Metrics returns the registry the store ticks its hit/miss/corrupt/put
// counters into: a private one, set once by Open.
//
//libra:nonnil
func (s *Store) Metrics() *telemetry.Registry { return s.metrics }

func (s *Store) inc(name string) { s.Metrics().Counter(name).Inc() }

// entryPath maps a key to its object file, sharded by the first two hex
// digits so huge stores don't put every entry in one directory.
func (s *Store) entryPath(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, "objects", shard, key+".res")
}

// envelope is the JSON payload of one entry. Key is repeated inside the
// checksummed region so a renamed or cross-copied file cannot impersonate
// another entry.
type envelope struct {
	Key   string          `json:"key"`
	Label string          `json:"label,omitempty"`
	Data  json.RawMessage `json:"data"`
}

// errCorrupt classifies undecodable entries; it never escapes Get.
var errCorrupt = errors.New("resultstore: corrupt entry")

// frame wraps payload in the on-disk framing (magic, length, checksum).
func frame(payload []byte) []byte {
	buf := make([]byte, 0, headerSize+len(payload)+trailerSize)
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// unframe validates framing and checksum, returning the payload.
func unframe(raw []byte) ([]byte, error) {
	if len(raw) < headerSize+trailerSize {
		return nil, errCorrupt
	}
	if !bytes.Equal(raw[:8], magic[:]) {
		return nil, errCorrupt
	}
	n := binary.BigEndian.Uint64(raw[8:16])
	if n != uint64(len(raw)-headerSize-trailerSize) {
		return nil, errCorrupt
	}
	body, trailer := raw[:len(raw)-trailerSize], raw[len(raw)-trailerSize:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], trailer) {
		return nil, errCorrupt
	}
	return raw[headerSize : len(raw)-trailerSize], nil
}

// readEntry loads and validates the entry file at path for the given key
// ("" skips the key-identity check, for maintenance walks).
func readEntry(path, key string) (*envelope, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := unframe(raw)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return nil, errCorrupt
	}
	if key != "" && env.Key != key {
		return nil, errCorrupt
	}
	return &env, nil
}

// Get looks the key up and, on a hit, decodes the stored payload into out
// (a pointer). It returns false on a miss. A corrupt, truncated or
// undecodable entry is quarantined and reported as a miss: the store never
// returns garbage and never fails a run.
func (s *Store) Get(key string, out any) bool {
	path := s.entryPath(key)
	env, err := readEntry(path, key)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.inc(MetricMiss)
			return false
		}
		// Undecodable for any other reason: treat as corrupt, move it out
		// of the lookup path so every future Get is a clean miss.
		s.quarantine(path)
		s.inc(MetricCorrupt)
		s.inc(MetricMiss)
		return false
	}
	if err := json.Unmarshal(env.Data, out); err != nil {
		s.quarantine(path)
		s.inc(MetricCorrupt)
		s.inc(MetricMiss)
		return false
	}
	s.inc(MetricHit)
	return true
}

// quarantine moves a corrupt entry aside (or deletes it if the move fails)
// so it can be inspected but never served.
func (s *Store) quarantine(path string) {
	dst := filepath.Join(s.dir, "quarantine", filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
}

// Put stores v (JSON-marshalable) under key with an optional human-readable
// label, crash-safely: temp file in the store's own tmp directory, fsync,
// atomic rename. Concurrent Puts of the same key are harmless — entries are
// deterministic functions of their key, and rename is atomic — but callers
// wanting exactly-one-writer should hold the key's lock (see Lock).
func (s *Store) Put(key, label string, v any) error {
	err := s.put(key, label, v)
	if err != nil {
		s.inc(MetricPutError)
		return err
	}
	s.inc(MetricPut)
	return nil
}

func (s *Store) put(key, label string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("resultstore: marshal %s: %w", key, err)
	}
	payload, err := json.Marshal(envelope{Key: key, Label: label, Data: data})
	if err != nil {
		return fmt.Errorf("resultstore: marshal %s: %w", key, err)
	}
	buf := frame(payload)

	// The temp name embeds the pid so maintenance can tell a live writer's
	// temp file from one orphaned by a crash (see sweepTmp).
	tmp := filepath.Join(s.dir, "tmp",
		fmt.Sprintf("%s.%d.%d.tmp", key, os.Getpid(), tmpSeq.Add(1)))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("resultstore: write %s: %w", key, err)
	}
	dst := s.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("resultstore: publish %s: %w", key, err)
	}
	syncDir(filepath.Dir(dst))
	return nil
}

// syncDir fsyncs a directory so the rename that published an entry survives
// a crash. Best-effort: filesystems that cannot sync directories still get
// an atomically renamed file.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
