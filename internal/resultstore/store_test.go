package resultstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// payload is the stand-in result type of the store tests.
type payload struct {
	Frame int
	Hash  uint64
	FPS   float64
}

func testStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func counter(st *Store, name string) int64 { return st.Metrics().Counter(name).Value() }

func TestPutGetRoundTrip(t *testing.T) {
	st := testStore(t)
	key := KeySpec{Schema: SchemaVersion, Fingerprint: "t", Game: "CCS", Seed: 1, Frames: 2, Warmup: 1}.Key()
	// uint64 beyond 2^53 and a float with a long mantissa must round-trip
	// exactly — the warm path's byte-identical stdout depends on it.
	in := []payload{{0, 0xdeadbeefcafe0123, 59.94000000000001}, {1, 1<<63 + 7, 1.0 / 3.0}}
	if st.Get(key, new([]payload)) {
		t.Fatal("empty store reported a hit")
	}
	if err := st.Put(key, "label", in); err != nil {
		t.Fatal(err)
	}
	var out []payload
	if !st.Get(key, &out) {
		t.Fatal("stored key reported a miss")
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
	if h, m := counter(st, MetricHit), counter(st, MetricMiss); h != 1 || m != 1 {
		t.Errorf("hit=%d miss=%d, want 1/1", h, m)
	}
	if p := counter(st, MetricPut); p != 1 {
		t.Errorf("put=%d, want 1", p)
	}
}

func TestDistinctKeysDoNotCollide(t *testing.T) {
	st := testStore(t)
	a := KeySpec{Schema: 1, Game: "A"}.Key()
	b := KeySpec{Schema: 1, Game: "B"}.Key()
	if err := st.Put(a, "", []payload{{Frame: 7}}); err != nil {
		t.Fatal(err)
	}
	if st.Get(b, new([]payload)) {
		t.Fatal("key B hit key A's entry")
	}
	var out []payload
	if !st.Get(a, &out) || out[0].Frame != 7 {
		t.Fatalf("key A lookup broken: %+v", out)
	}
}

func TestPutOverwriteIsAtomic(t *testing.T) {
	st := testStore(t)
	key := KeySpec{Schema: 1, Game: "X"}.Key()
	if err := st.Put(key, "", []payload{{Frame: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, "", []payload{{Frame: 2}}); err != nil {
		t.Fatal(err)
	}
	var out []payload
	if !st.Get(key, &out) || out[0].Frame != 2 {
		t.Fatalf("overwrite not visible: %+v", out)
	}
	if tmps := countFiles(filepath.Join(st.dir, "tmp")); tmps != 0 {
		t.Errorf("%d temp files left after successful puts", tmps)
	}
}

// TestRenamedEntryIsNotServed pins the key-identity check: an entry copied
// or renamed to another key's slot has a valid checksum but must still be
// rejected (and quarantined) — content addressing means the name and the
// content must agree.
func TestRenamedEntryIsNotServed(t *testing.T) {
	st := testStore(t)
	a := KeySpec{Schema: 1, Game: "A"}.Key()
	b := KeySpec{Schema: 1, Game: "B"}.Key()
	if err := st.Put(a, "", []payload{{Frame: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(st.entryPath(b)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(st.entryPath(a), st.entryPath(b)); err != nil {
		t.Fatal(err)
	}
	if st.Get(b, new([]payload)) {
		t.Fatal("renamed entry was served under the wrong key")
	}
	if c := counter(st, MetricCorrupt); c != 1 {
		t.Errorf("corrupt counter = %d, want 1", c)
	}
}

func TestListVerifyStats(t *testing.T) {
	st := testStore(t)
	keys := []string{
		KeySpec{Schema: 1, Game: "A"}.Key(),
		KeySpec{Schema: 1, Game: "B"}.Key(),
	}
	for i, k := range keys {
		if err := st.Put(k, "entry", []payload{{Frame: i}}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("List returned %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		if e.Corrupt || e.Label != "entry" || e.Size <= 0 {
			t.Errorf("bad entry info: %+v", e)
		}
	}
	res, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 2 || res.Quarantined != 0 {
		t.Fatalf("Verify = %+v, want 2 ok", res)
	}
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 2 || stats.Bytes <= 0 || stats.Quarantined != 0 {
		t.Fatalf("Stats = %+v", stats)
	}
}

// TestGoldenFormat pins the on-disk framing: a checked-in entry written by
// the current schema must stay readable by every future revision of the
// reader (or SchemaVersion must be bumped, which retires the fixture's key).
func TestGoldenFormat(t *testing.T) {
	const goldenKey = "b24a3c77a507584c225dba6d8916f43ed773828dab50c20016cb8cffda8add42"
	st := testStore(t)
	raw, err := os.ReadFile(filepath.Join("testdata", "golden.res"))
	if err != nil {
		t.Fatal(err)
	}
	dst := st.entryPath(goldenKey)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out []payload
	if !st.Get(goldenKey, &out) {
		t.Fatal("golden fixture no longer decodes — the on-disk format changed without a SchemaVersion bump")
	}
	want := []payload{{0, 0xdeadbeefcafe, 59.94}, {1, 0x1122334455667788, 60.0}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("golden payload drifted: %+v", out)
	}
}

// TestKeySpecGoldenKey pins key derivation itself: if the canonical
// serialization ever changes, every existing store silently cold-starts, so
// the change must be deliberate (bump SchemaVersion instead).
func TestKeySpecGoldenKey(t *testing.T) {
	spec := KeySpec{Schema: 1, Fingerprint: "golden", Game: "GLD", Seed: 42,
		Frames: 2, Warmup: 1, Fields: map[string]string{"config.ScreenW": "64"}}
	const want = "b24a3c77a507584c225dba6d8916f43ed773828dab50c20016cb8cffda8add42"
	if got := spec.Key(); got != want {
		t.Fatalf("canonical key changed:\ngot  %s\nwant %s", got, want)
	}
}
