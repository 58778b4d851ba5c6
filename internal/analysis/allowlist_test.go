package analysis

import (
	"go/token"
	"strings"
	"testing"
)

func diag(file string, line int, analyzer string) Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		File:     file,
		Line:     line,
		Column:   1,
		Analyzer: analyzer,
		Message:  "m",
	}
}

func TestAllowlistParse(t *testing.T) {
	al, err := ParseAllowlist("test", `
# comment
detlint internal/experiments:clock.go  # wall clock
seedlint internal/workloads
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(al.Entries))
	}
	e := al.Entries[0]
	if e.Analyzer != "detlint" || e.Package != "internal/experiments" || e.File != "clock.go" {
		t.Errorf("entry 0 parsed wrong: %+v", *e)
	}
	if al.Entries[1].File != "" {
		t.Errorf("entry 1 should be package-wide, got file %q", al.Entries[1].File)
	}
}

func TestAllowlistParseRejectsMalformed(t *testing.T) {
	if _, err := ParseAllowlist("test", "detlint too many fields"); err == nil {
		t.Error("malformed line should fail to parse")
	}
}

func TestAllowlistFilterAndStale(t *testing.T) {
	al, err := ParseAllowlist("test", `
detlint internal/experiments:clock.go
seedlint internal/workloads
`)
	if err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{
		diag("internal/experiments/clock.go", 10, "detlint"),  // suppressed by entry 0
		diag("internal/experiments/other.go", 11, "detlint"),  // wrong file: kept
		diag("internal/experiments/clock.go", 12, "seedlint"), // wrong analyzer: kept
	}
	kept := al.Filter(diags)
	if len(kept) != 2 {
		t.Fatalf("kept %d diagnostics, want 2: %v", len(kept), kept)
	}
	stale := al.StaleFor(nil)
	if len(stale) != 1 {
		t.Fatalf("got %d stale diagnostics, want 1 (the unused seedlint entry)", len(stale))
	}
	if !strings.Contains(stale[0].Message, "seedlint") || !strings.Contains(stale[0].Message, "internal/workloads") {
		t.Errorf("stale message should name the unused entry: %s", stale[0].Message)
	}
}

func TestAllowlistMissingFileIsEmpty(t *testing.T) {
	al, err := ParseAllowlistFile("testdata/does-not-exist.allow")
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Entries) != 0 {
		t.Errorf("missing file should parse as empty, got %d entries", len(al.Entries))
	}
	if got := al.Filter([]Diagnostic{diag("a/b.go", 1, "detlint")}); len(got) != 1 {
		t.Errorf("empty allowlist must keep everything, kept %d", len(got))
	}
	if stale := al.StaleFor(nil); len(stale) != 0 {
		t.Errorf("empty allowlist has no stale entries, got %d", len(stale))
	}
}
