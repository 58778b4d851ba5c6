// Command resultstore maintains a persistent result store directory (the
// -result-dir of cmd/suite, cmd/sweep and cmd/librasim).
//
// Usage:
//
//	resultstore -dir DIR ls                     # list entries (key, age, size, label)
//	resultstore -dir DIR stats                  # entry/byte/quarantine/lock counts
//	resultstore -dir DIR verify                 # re-checksum everything, quarantine corrupt
//	resultstore -dir DIR gc -older-than 168h    # drop old entries, sweep orphans
//
// -dir defaults to $LIBRA_RESULT_DIR.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/resultstore"
)

func main() {
	var dir string
	experiments.ResultDirVar(flag.CommandLine, &dir, "dir", "result store directory (or $LIBRA_RESULT_DIR)")
	flag.Usage = usage
	flag.Parse()
	if dir == "" || flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	st, err := resultstore.Open(dir)
	if err != nil {
		fatal(err)
	}
	code, err := run(st, flag.Arg(0), flag.Args()[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if code == 2 {
			usage()
		}
	}
	os.Exit(code)
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: resultstore -dir DIR {ls | stats | verify | gc [-older-than DURATION] [-dry-run]}\n")
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// run dispatches one subcommand, writing human output to w, and returns the
// process exit code (verify exits 1 when it had to quarantine entries).
func run(st *resultstore.Store, cmd string, args []string, w io.Writer) (int, error) {
	switch cmd {
	case "ls":
		return ls(st, w)
	case "stats":
		return stats(st, w)
	case "verify":
		return verify(st, w)
	case "gc":
		return gc(st, args, w)
	default:
		return 2, fmt.Errorf("unknown command %q", cmd)
	}
}

func ls(st *resultstore.Store, w io.Writer) (int, error) {
	entries, err := st.List()
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "%-16s %-8s %10s  %-20s %s\n", "key", "state", "bytes", "modified", "label")
	for _, e := range entries {
		state := "ok"
		if e.Corrupt {
			state = "corrupt"
		}
		fmt.Fprintf(w, "%-16s %-8s %10d  %-20s %s\n",
			e.Key[:min(16, len(e.Key))], state, e.Size,
			e.ModTime.UTC().Format(time.RFC3339), e.Label)
	}
	fmt.Fprintf(w, "%d entries\n", len(entries))
	return 0, nil
}

func stats(st *resultstore.Store, w io.Writer) (int, error) {
	s, err := st.Stats()
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "entries:     %d\n", s.Entries)
	fmt.Fprintf(w, "bytes:       %d\n", s.Bytes)
	fmt.Fprintf(w, "quarantined: %d\n", s.Quarantined)
	fmt.Fprintf(w, "temp files:  %d\n", s.TempFiles)
	fmt.Fprintf(w, "locks:       %d\n", s.Locks)
	return 0, nil
}

func verify(st *resultstore.Store, w io.Writer) (int, error) {
	res, err := st.Verify()
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "ok: %d  quarantined: %d\n", res.OK, res.Quarantined)
	if res.Quarantined > 0 {
		return 1, nil
	}
	return 0, nil
}

func gc(st *resultstore.Store, args []string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("gc", flag.ContinueOnError)
	olderThan := fs.Duration("older-than", 0, "remove entries older than this (0 = only sweep crash leftovers)")
	dryRun := fs.Bool("dry-run", false, "report what would be removed without removing")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *dryRun {
		entries, err := st.List()
		if err != nil {
			return 1, err
		}
		cutoff := time.Now().Add(-*olderThan)
		n := 0
		for _, e := range entries {
			if *olderThan > 0 && e.ModTime.Before(cutoff) {
				n++
			}
		}
		fmt.Fprintf(w, "would remove %d of %d entries\n", n, len(entries))
		return 0, nil
	}
	res, err := st.GC(*olderThan)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "removed %d entries, %d temp files, %d stale locks\n",
		res.Entries, res.Temps, res.Locks)
	return 0, nil
}
