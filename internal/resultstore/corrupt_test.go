package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// corruption is one way an entry file can be damaged on disk.
type corruption struct {
	name  string
	wreck func(raw []byte) []byte // nil result = delete the file
}

// corruptions enumerates the damage the store must survive: truncation at
// every structurally interesting boundary, bit flips in every region
// (magic, length, payload, checksum), zero-fills, and whole-file garbage.
func corruptions() []corruption {
	flip := func(off int) func([]byte) []byte {
		return func(raw []byte) []byte {
			if off < 0 {
				off += len(raw)
			}
			out := append([]byte(nil), raw...)
			out[off] ^= 0x01
			return out
		}
	}
	trunc := func(n int) func([]byte) []byte {
		return func(raw []byte) []byte {
			if n > len(raw) {
				n = len(raw)
			}
			return append([]byte(nil), raw[:n]...)
		}
	}
	return []corruption{
		{"empty-file", func(raw []byte) []byte { return nil }},
		{"truncated-mid-magic", trunc(4)},
		{"truncated-header-only", trunc(headerSize)},
		{"truncated-mid-payload", func(raw []byte) []byte { return append([]byte(nil), raw[:len(raw)/2]...) }},
		{"truncated-one-byte-short", func(raw []byte) []byte { return append([]byte(nil), raw[:len(raw)-1]...) }},
		{"bitflip-magic", flip(0)},
		{"bitflip-length", flip(9)},
		{"bitflip-payload-first", flip(headerSize)},
		{"bitflip-payload-mid", func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[headerSize+(len(raw)-headerSize-trailerSize)/2] ^= 0x40
			return out
		}},
		{"bitflip-checksum", flip(-1)},
		{"zero-filled-payload", func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			for i := headerSize; i < len(out)-trailerSize; i++ {
				out[i] = 0
			}
			return out
		}},
		{"zero-filled-whole", func(raw []byte) []byte { return make([]byte, len(raw)) }},
		{"garbage", func(raw []byte) []byte { return []byte("not a result store entry at all") }},
		{"valid-frame-wrong-json", func(raw []byte) []byte {
			// Valid framing and checksum around a payload that is not an
			// envelope: decode failure must also count as corruption.
			return frame([]byte("][ this is not json"))
		}},
	}
}

// TestCorruptEntriesAreQuarantinedNeverServed is the crash/corruption
// harness: every damage pattern applied to a valid entry must surface as a
// clean miss (never garbage, never an error), tick store_corrupt, move the
// damaged file out of the lookup path, and leave the slot writable so the
// re-simulated result is stored again.
func TestCorruptEntriesAreQuarantinedNeverServed(t *testing.T) {
	for _, c := range corruptions() {
		t.Run(c.name, func(t *testing.T) {
			st := testStore(t)
			key := KeySpec{Schema: 1, Game: "CCS", Fingerprint: c.name}.Key()
			want := []payload{{0, 0xabc, 60}, {1, 0xdef, 59.5}}
			if err := st.Put(key, "victim", want); err != nil {
				t.Fatal(err)
			}
			path := st.entryPath(key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			wrecked := c.wreck(raw)
			if wrecked == nil {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				wrecked = []byte{}
			}
			if err := os.WriteFile(path, wrecked, 0o644); err != nil {
				t.Fatal(err)
			}

			var out []payload
			if st.Get(key, &out) {
				t.Fatalf("corrupt entry (%s) was served: %+v", c.name, out)
			}
			if got := counter(st, MetricCorrupt); got != 1 {
				t.Errorf("store_corrupt = %d, want 1", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt entry still present in the lookup path")
			}
			if q := countFiles(filepath.Join(st.dir, "quarantine")); q != 1 {
				t.Errorf("quarantine holds %d files, want 1", q)
			}

			// Recovery: the caller re-simulates and re-stores; the fresh
			// entry must round-trip.
			if err := st.Put(key, "victim", want); err != nil {
				t.Fatalf("re-store after quarantine: %v", err)
			}
			out = nil
			if !st.Get(key, &out) || len(out) != 2 || out[1].Hash != 0xdef {
				t.Fatalf("recovered entry broken: %+v", out)
			}
		})
	}
}

// TestKillMidWriteLeftovers simulates the two crash-during-Put states: a
// leftover temp file (crash before rename) and a temp file that holds a
// complete valid entry but was never renamed. Both must read as clean
// misses, and GC must reclaim the orphans once the writer is dead.
func TestKillMidWriteLeftovers(t *testing.T) {
	st := testStore(t)
	key := KeySpec{Schema: 1, Game: "SuS"}.Key()

	// Crash state 1: partial temp write (no fsync, no rename). Use a pid
	// that cannot be alive (kernel threads aside, pid_max caps real pids;
	// the test pid below is far beyond the default).
	deadPID := 1 << 22
	partial := filepath.Join(st.dir, "tmp", fmt.Sprintf("%s.%d.1.tmp", key, deadPID))
	if err := os.WriteFile(partial, []byte("LIBRARS1\x00\x00half a hea"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash state 2: complete entry in tmp, rename never happened.
	complete := filepath.Join(st.dir, "tmp", fmt.Sprintf("%s.%d.2.tmp", key, deadPID))
	var otherStore *Store
	{
		var err error
		otherStore, err = Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := otherStore.Put(key, "", []payload{{Frame: 9}}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(otherStore.entryPath(key))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(complete, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Neither leftover is visible to lookups.
	if st.Get(key, new([]payload)) {
		t.Fatal("temp leftovers must never satisfy a Get")
	}
	// The slot is still writable and the store still round-trips.
	if err := st.Put(key, "", []payload{{Frame: 1}}); err != nil {
		t.Fatal(err)
	}
	var out []payload
	if !st.Get(key, &out) || out[0].Frame != 1 {
		t.Fatalf("store broken after crash leftovers: %+v", out)
	}

	// GC sweeps orphaned temp files of dead writers (and only those: the
	// entry itself is newer than any cutoff and stays).
	res, err := st.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Temps != 2 {
		t.Errorf("GC removed %d temp files, want 2", res.Temps)
	}
	if st2, _ := st.Stats(); st2.TempFiles != 0 || st2.Entries != 1 {
		t.Errorf("post-GC stats: %+v", st2)
	}
}

// TestGCByAge pins the mtime policy: entries older than the cutoff go, the
// rest stay, and a GC'd key is simply a miss.
func TestGCByAge(t *testing.T) {
	st := testStore(t)
	oldKey := KeySpec{Schema: 1, Game: "OLD"}.Key()
	newKey := KeySpec{Schema: 1, Game: "NEW"}.Key()
	for _, k := range []string{oldKey, newKey} {
		if err := st.Put(k, "", []payload{{Frame: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	// Age the old entry artificially (Chtimes, not a sleep).
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(st.entryPath(oldKey), old, old); err != nil {
		t.Fatal(err)
	}
	res, err := st.GC(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries != 1 {
		t.Fatalf("GC removed %d entries, want 1", res.Entries)
	}
	if st.Get(oldKey, new([]payload)) {
		t.Error("GC'd entry still served")
	}
	if !st.Get(newKey, new([]payload)) {
		t.Error("GC removed a fresh entry")
	}
}

// TestVerifyQuarantinesCorrupt covers the maintenance path over a mixed
// store: verify must keep good entries and quarantine damaged ones.
func TestVerifyQuarantinesCorrupt(t *testing.T) {
	st := testStore(t)
	good := KeySpec{Schema: 1, Game: "GOOD"}.Key()
	bad := KeySpec{Schema: 1, Game: "BAD"}.Key()
	for _, k := range []string{good, bad} {
		if err := st.Put(k, "", []payload{{Frame: 5}}); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(st.entryPath(bad))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(st.entryPath(bad), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 1 || res.Quarantined != 1 {
		t.Fatalf("Verify = %+v, want 1 ok / 1 quarantined", res)
	}
	if !st.Get(good, new([]payload)) {
		t.Error("verify disturbed a good entry")
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("quarantined entry still listed: %d entries", len(entries))
	}
}
