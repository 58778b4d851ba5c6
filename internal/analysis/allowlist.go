package analysis

import (
	"fmt"
	"go/token"
	"os"
	"strings"
)

// AllowEntry suppresses one analyzer in one package (optionally one file of
// that package). The format of a libralint.allow line is
//
//	<analyzer> <module-relative-package-path>[:<file.go>]   # reason
//
// Blank lines and full-line # comments are ignored. Entries are
// package-scoped on purpose: an allowlist that could name arbitrary lines
// would drift as code moves, and the point of the file is to stay tiny.
type AllowEntry struct {
	Analyzer string
	Package  string // module-relative package path
	File     string // optional base name within the package
	Line     int    // allowlist line, for stale-entry reporting
	used     bool
}

// Allowlist is the parsed suppression file. The zero value (or nil) allows
// nothing and reports nothing stale.
type Allowlist struct {
	Source  string
	Entries []*AllowEntry
}

// ParseAllowlistFile reads path; a missing file yields an empty allowlist.
func ParseAllowlistFile(path string) (*Allowlist, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Allowlist{Source: path}, nil
	}
	if err != nil {
		return nil, err
	}
	return ParseAllowlist(path, string(data))
}

// ParseAllowlist parses allowlist text. source names the origin for
// diagnostics.
func ParseAllowlist(source, text string) (*Allowlist, error) {
	al := &Allowlist{Source: source}
	for i, line := range strings.Split(text, "\n") {
		if idx := strings.Index(line, "#"); idx >= 0 {
			line = line[:idx]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"<analyzer> <package>[:<file.go>]\", got %q", source, i+1, line)
		}
		entry := &AllowEntry{Analyzer: fields[0], Line: i + 1}
		entry.Package, entry.File, _ = strings.Cut(fields[1], ":")
		al.Entries = append(al.Entries, entry)
	}
	return al, nil
}

// matches reports whether the entry suppresses d, given the module-relative
// package path the diagnostic was produced in.
func (e *AllowEntry) matches(d Diagnostic, relPath string) bool {
	if e.Analyzer != d.Analyzer || e.Package != relPath {
		return false
	}
	return e.File == "" || e.File == baseName(d.File)
}

// Filter removes allowed diagnostics, marking the entries that fired. The
// diagnostic's package is recovered from its file path relative to the
// module root encoded in the entry's package path; callers populate
// Diagnostic positions with paths that end in "<pkg-dir>/<file>.go".
func (al *Allowlist) Filter(diags []Diagnostic) []Diagnostic {
	if al == nil || len(al.Entries) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		rel := packageOfFile(d.File)
		allowed := false
		for _, e := range al.Entries {
			if e.matches(d, rel) {
				e.used = true
				allowed = true
			}
		}
		if !allowed {
			kept = append(kept, d)
		}
	}
	return kept
}

// StaleFor returns one diagnostic per entry that suppressed nothing, so a
// fixed violation forces its allowlist line to be deleted in the same
// change. Only entries of the analyzers in ran count (nil means all): a
// `-analyzer` subset run must not misreport entries whose analyzer never
// executed.
func (al *Allowlist) StaleFor(ran map[string]bool) []Diagnostic {
	if al == nil {
		return nil
	}
	var diags []Diagnostic
	for _, e := range al.Entries {
		if e.used {
			continue
		}
		if ran != nil && !ran[e.Analyzer] {
			continue
		}
		pos := token.Position{Filename: al.Source, Line: e.Line, Column: 1}
		diags = append(diags, Diagnostic{
			Pos:      pos,
			File:     pos.Filename,
			Line:     pos.Line,
			Column:   pos.Column,
			Analyzer: "allowlist",
			Message:  fmt.Sprintf("stale entry: %s no longer reports in %s — delete this line", e.Analyzer, e.Package),
		})
	}
	return diags
}

// packageOfFile derives a module-relative package path from a diagnostic's
// file path. Diagnostics carry paths relative to the module root (the driver
// loads with relative positions), so this is simply the directory part.
func packageOfFile(file string) string {
	file = strings.ReplaceAll(file, "\\", "/")
	if idx := strings.LastIndex(file, "/"); idx >= 0 {
		return file[:idx]
	}
	return ""
}
