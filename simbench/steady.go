package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// steady runs two interleaved sets of untraced runs of this build, of every
// workload in BENCHMARK.json at its run_seconds, run r of set s with seed
// 2r+s+1, and prints for every workload and end-to-end metric each set's
// median and quartiles, the spread (quartile distance over the median), and
// whether the second set's median is within the metric's bound of the
// first's. It exits 1 if any pair disagrees or a run fails.
func steady(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runs := fs.Int("runs", 5, "runs per set and workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "simbench steady:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "simbench steady:", err)
		return 2
	}

	// sets[s][workload] holds set s's results in run order.
	sets := [2]map[string][]result{{}, {}}
	ok := true
	for r := 0; r < *runs; r++ {
		for s := 0; s < 2; s++ {
			for _, w := range bf.Workloads {
				seed := int64(2*r + s + 1)
				res, summary, err := runChild(self, w.Name, seed, bf.RunSeconds)
				if err != nil {
					fmt.Fprintf(stderr, "simbench steady: %s seed %d: %v\n", w.Name, seed, err)
					ok = false
					continue
				}
				fmt.Fprintf(stderr, "set %c: %s\n", 'A'+s, summary)
				sets[s][w.Name] = append(sets[s][w.Name], res)
			}
		}
	}

	fmt.Fprintf(stdout, "%-13s %-28s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %6s %s\n",
		"workload", "metric", "A.q1", "A.median", "A.q3", "A.sprd", "B.q1", "B.median", "B.q3", "B.sprd", "all", "bound", "agree")
	for _, w := range bf.Workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		if len(a) < 2 || len(b) < 2 {
			ok = false
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			qa, qb := quantiles(va, 4), quantiles(vb, 4)
			ma, mb := median(va), median(vb)
			agree := worseBy(ma, mb, m.Better) <= m.Bound
			ok = ok && agree
			fmt.Fprintf(stdout, "%-13s %-28s %12.6g %12.6g %12.6g %7.4f | %12.6g %12.6g %12.6g %7.4f | %7.4f %6.3f %v\n",
				w.Name, m.Name, qa[0], ma, qa[2], spread(va), qb[0], mb, qb[2], spread(vb),
				spread(append(va, vb...)), m.Bound, agree)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runChild runs one untraced benchmark run and returns its parsed result
// and the summary line it printed last on stderr.
func runChild(self, workload string, seed int64, seconds int) (result, string, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return result{}, "", fmt.Errorf("%w: %s", err, strings.TrimSpace(errb.String()))
	}
	errLines := strings.Split(strings.TrimSpace(errb.String()), "\n")
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, "", fmt.Errorf("parsing result: %w", err)
	}
	return res, errLines[len(errLines)-1], nil
}

func values(rs []result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// spread is the distance between the first and third quartiles of xs as a
// share of their median.
func spread(xs []float64) float64 {
	q := quantiles(xs, 4)
	if q[1] == 0 {
		return math.Abs(q[2] - q[0])
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// better direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return math.Abs(b - a)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}
