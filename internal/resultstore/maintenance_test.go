package resultstore

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGCSweepsStaleLocksOnly: GC removes locks of dead holders and leaves a
// live holder's lock alone.
func TestGCSweepsStaleLocksOnly(t *testing.T) {
	st := testStore(t)
	stale := filepath.Join(st.dir, "locks", KeySpec{Schema: 1, Game: "dead"}.Key()+".lock")
	if err := os.WriteFile(stale, []byte(`{"pid":4194304}`), 0o644); err != nil {
		t.Fatal(err)
	}
	release, err := st.Lock(KeySpec{Schema: 1, Game: "live"}.Key())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	res, err := st.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Locks != 1 {
		t.Errorf("GC removed %d locks, want 1 (the stale one)", res.Locks)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale lock survived GC")
	}
	// The live lock (plus its holder's private .self file) is untouched.
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Locks == 0 {
		t.Error("GC removed a live holder's lock")
	}
}

func TestTmpPID(t *testing.T) {
	cases := []struct {
		name string
		pid  int
		ok   bool
	}{
		{"abc123.4567.8.tmp", 4567, true},
		{"with.dots.in.key.99.1.tmp", 99, true},
		{"short.tmp", 0, false},
		{"key.notanumber.1.tmp", 0, false},
	}
	for _, c := range cases {
		pid, ok := tmpPID(c.name)
		if pid != c.pid || ok != c.ok {
			t.Errorf("tmpPID(%q) = (%d, %v), want (%d, %v)", c.name, pid, ok, c.pid, c.ok)
		}
	}
}

// TestListReportsCorruptInPlace: List flags damaged entries without moving
// them (quarantining is Verify's job).
func TestListReportsCorruptInPlace(t *testing.T) {
	st := testStore(t)
	key := KeySpec{Schema: 1, Game: "LC"}.Key()
	if err := st.Put(key, "x", []payload{{Frame: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(st.entryPath(key), 7); err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].Corrupt {
		t.Fatalf("List = %+v, want one corrupt entry", entries)
	}
	if _, err := os.Stat(st.entryPath(key)); err != nil {
		t.Error("List moved the entry; it must be non-mutating")
	}
}
