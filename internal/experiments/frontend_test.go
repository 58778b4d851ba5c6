package experiments

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestHostFlagDefaults checks every shared host flag's default with and
// without its LIBRA_* variable: a valid value takes over, anything else
// falls back to the built-in default.
func TestHostFlagDefaults(t *testing.T) {
	type want struct {
		jobs       int
		renderElim bool
		resultDir  string
	}
	def := want{jobs: runtime.NumCPU()}
	with := func(f func(*want)) want { w := def; f(&w); return w }
	cases := []struct {
		env  map[string]string
		want want
	}{
		{nil, def},
		{map[string]string{"LIBRA_JOBS": "3"}, with(func(w *want) { w.jobs = 3 })},
		{map[string]string{"LIBRA_JOBS": "garbage"}, def},
		{map[string]string{"LIBRA_JOBS": "-2"}, def},
		{map[string]string{"LIBRA_JOBS": "0"}, def},
		{map[string]string{"LIBRA_RENDER_ELIM": "1"}, with(func(w *want) { w.renderElim = true })},
		{map[string]string{"LIBRA_RENDER_ELIM": "true"}, with(func(w *want) { w.renderElim = true })},
		{map[string]string{"LIBRA_RENDER_ELIM": "0"}, def},
		{map[string]string{"LIBRA_RENDER_ELIM": "yes"}, def},
		{map[string]string{"LIBRA_RESULT_DIR": ""}, def},
		{map[string]string{"LIBRA_RESULT_DIR": "/some/dir"}, with(func(w *want) { w.resultDir = "/some/dir" })},
	}
	for _, tc := range cases {
		name := "unset"
		for k, v := range tc.env {
			name = k + "=" + v
		}
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"LIBRA_JOBS", "LIBRA_RENDER_ELIM", "LIBRA_RESULT_DIR"} {
				t.Setenv(k, tc.env[k])
			}
			c := CLI{P: DefaultParams()}
			fs := flag.NewFlagSet("t", flag.ContinueOnError)
			c.RegisterFlags(fs)
			if err := c.Parse(fs, nil); err != nil {
				t.Fatal(err)
			}
			got := want{c.Jobs, c.P.RenderElim, c.ResultDir}
			if got != tc.want {
				t.Errorf("defaults = %+v, want %+v", got, tc.want)
			}
			if DefaultJobs() != tc.want.jobs {
				t.Errorf("DefaultJobs() = %d, want %d", DefaultJobs(), tc.want.jobs)
			}
			var dir string
			ResultDirVar(fs, &dir, "dir", "")
			if dir != tc.want.resultDir {
				t.Errorf("-dir default = %q, want %q", dir, tc.want.resultDir)
			}
		})
	}
}

// TestServiceFlagsAreASubset pins what libraserve registers: -result-dir,
// and neither -jobs nor -render-elim.
func TestServiceFlagsAreASubset(t *testing.T) {
	var c CLI
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c.RegisterServiceFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got := strings.Join(names, ","); got != "result-dir" {
		t.Errorf("service flags = %s, want result-dir", got)
	}
}

func TestParamsValidate(t *testing.T) {
	with := func(f func(*Params)) Params { p := DefaultParams(); f(&p); return p }
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"default", DefaultParams(), true},
		{"paper", PaperParams(), true},
		{"one frame", with(func(p *Params) { p.Frames, p.Warmup = 1, 0 }), true},
		{"frames 0", with(func(p *Params) { p.Frames, p.Warmup = 0, 0 }), false},
		{"frames -1", with(func(p *Params) { p.Frames, p.Warmup = -1, 0 }), false},
		{"warmup -1", with(func(p *Params) { p.Warmup = -1 }), false},
		{"warmup = frames", with(func(p *Params) { p.Warmup = p.Frames }), false},
		{"l2kb 0", with(func(p *Params) { p.L2KB = 0 }), true},
		{"l2kb 512", with(func(p *Params) { p.L2KB = 512 }), true},
		{"l2kb 576", with(func(p *Params) { p.L2KB = 576 }), false},
		{"l2kb -5", with(func(p *Params) { p.L2KB = -5 }), false},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate(%+v) = %v, want ok=%v", tc.name, tc.p, err, tc.ok)
		}
	}
}

// TestParseWarmupRule checks the frame-window rule of Parse: DefaultWarmup
// unless -warmup is given, and a window Validate rejects is an error.
func TestParseWarmupRule(t *testing.T) {
	cases := []struct {
		withWarmupFlag bool
		args           []string
		warmup         int
		ok             bool
	}{
		{false, nil, 2, true},
		{false, []string{"-frames", "2"}, 0, true},
		{false, []string{"-frames", "1"}, 0, true},
		{false, []string{"-frames", "3"}, 2, true},
		{false, []string{"-frames", "0"}, 0, false},
		{true, nil, 2, true},
		{true, []string{"-frames", "2"}, 0, true},
		{true, []string{"-frames", "4", "-warmup", "1"}, 1, true},
		{true, []string{"-frames", "2", "-warmup", "5"}, 5, false},
		{true, []string{"-frames", "-1"}, 0, false},
	}
	for _, tc := range cases {
		c := CLI{P: DefaultParams()}
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		c.RegisterFlags(fs)
		fs.IntVar(&c.P.Frames, "frames", 8, "")
		if tc.withWarmupFlag {
			fs.IntVar(&c.P.Warmup, "warmup", 2, "")
		}
		err := c.Parse(fs, tc.args)
		if (err == nil) != tc.ok || c.P.Warmup != tc.warmup {
			t.Errorf("warmup flag %v, %q: warmup %d, err %v; want warmup %d, ok=%v",
				tc.withWarmupFlag, tc.args, c.P.Warmup, err, tc.warmup, tc.ok)
		}
	}
}

// hostFlagNames are the flags RegisterFlags alone may declare.
var hostFlagNames = map[string]bool{"jobs": true, "render-elim": true, "result-dir": true}

// parityExempt lists the declarations the parity walk allows: loadgen's
// -render-elim sets a field of the request bodies it sends, not a host knob
// of its own.
var parityExempt = map[string]bool{
	"cmd/loadgen/main.go -render-elim": true,
}

// flagDecls returns "file -name" for every call in file that declares one
// of the host flags (a flag-package or ResultDirVar call with its name as a
// string argument).
func flagDecls(t *testing.T, path, rel string) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declarers := map[string]bool{
		"Int": true, "IntVar": true, "Bool": true, "BoolVar": true, "String": true,
		"StringVar": true, "Var": true, "Func": true, "BoolFunc": true, "TextVar": true,
		"Int64": true, "Int64Var": true, "Uint": true, "UintVar": true, "ResultDirVar": true,
	}
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var fn string
		switch f := call.Fun.(type) {
		case *ast.SelectorExpr:
			fn = f.Sel.Name
		case *ast.Ident:
			fn = f.Name
		}
		if !declarers[fn] {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, _ := strconv.Unquote(lit.Value); hostFlagNames[name] {
					out = append(out, rel+" -"+name)
				}
			}
		}
		return true
	})
	return out
}

// parityViolations walks root/cmd/*/main.go for host flags declared outside
// the shared registration.
func parityViolations(t *testing.T, root string) []string {
	t.Helper()
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go under %s (%v)", root, err)
	}
	var bad []string
	for _, path := range mains {
		rel, _ := filepath.Rel(root, path)
		for _, d := range flagDecls(t, path, filepath.ToSlash(rel)) {
			if !parityExempt[d] {
				bad = append(bad, d)
			}
		}
	}
	return bad
}

// TestFlagParity keeps every front-end on the shared host flags: no
// cmd/*/main.go declares -jobs, -render-elim or -result-dir itself, and
// RegisterFlags declares each exactly once.
func TestFlagParity(t *testing.T) {
	if bad := parityViolations(t, filepath.Join("..", "..")); len(bad) > 0 {
		t.Errorf("host flags declared outside experiments.CLI.RegisterFlags:\n%s", strings.Join(bad, "\n"))
	}
	count := map[string]int{}
	for _, d := range flagDecls(t, "frontend.go", "frontend.go") {
		count[d]++
	}
	for name := range hostFlagNames {
		if n := count["frontend.go -"+name]; n != 1 {
			t.Errorf("frontend.go declares -%s %d times, want 1", name, n)
		}
	}
}

// TestFlagParityCatchesPlantedFlag proves the walk is not vacuous: a
// scratch main that declares -jobs by hand fails it.
func TestFlagParityCatchesPlantedFlag(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cmd", "scratch")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package main\n\nimport \"flag\"\n\nfunc main() {\n\t_ = flag.Int(\"jobs\", 1, \"hand-copied\")\n\tflag.Parse()\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := parityViolations(t, root)
	if fmt.Sprint(bad) != "[cmd/scratch/main.go -jobs]" {
		t.Errorf("planted flag.Int(\"jobs\", …): violations %q, want [cmd/scratch/main.go -jobs]", bad)
	}
}
