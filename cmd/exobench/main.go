// Command exobench measures how much host time the simulator spends to
// produce its simulated results, end to end and layer by layer, on four
// workloads that each stress one host path: guest compute (matmul), traps
// (appel), the network (udp-echo) and storage (fs-journal).
//
// It drives the simulator only through the public APIs of hw, vm, aegis,
// exos, ether, pkt and dpf, and reads their public counters. A parent
// process runs rounds; each (round, workload) pair is a fresh child
// process of the same binary, one at a time, driving a fixed op count from
// one goroutine in a closed loop, followed by children that only time a
// set-up. The parent prints each metric's median over rounds:
//
//	exobench [-workload all|matmul|appel|udp-echo|fs-journal] [-seed N]
//	         [-seconds S] [-trace 0|1] [-tracedir DIR] [-json]
//
// Output lines read `workload metric value unit n=… q1=… q3=…`. When one
// workload is selected, the last line is a JSON object with the keys
// correct, attempted, failed and metrics: the end_to_end metrics of
// BENCHMARK.json, or with -trace 1 its per_layer metrics. The exit code is
// non-zero if any output check fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// minRounds is the fewest rounds a run makes, so that every median has
// quartiles around it.
const minRounds = 3

// setupReps is how many fresh processes time one set-up of a workload in a
// round: the round's own child and setupReps-1 children that only set up.
// The round's set-up time is their median. Set-ups repeated inside one
// process would time the Go heap instead: a machine's 32 MB of memory,
// once freed, is cleared again when the next boot reuses it.
const setupReps = 5

type options struct {
	workloads []workload
	seed      uint64
	seconds   float64
	trace     bool
	traceDir  string
	json      bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("exobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "all", "workload to run: all, matmul, appel, udp-echo or fs-journal")
	seed := fs.Uint64("seed", 1, "seed for every generated input (1 for development, 2 held out for claims)")
	seconds := fs.Float64("seconds", 24, "run rounds, each a fresh child process per workload, until this many seconds per workload have passed (at least 3 rounds)")
	trace := fs.Int("trace", 0, "1 adds a traced child to every round and reports the per-layer metrics")
	traceDir := fs.String("tracedir", "", "with -trace 1, write each workload's Chrome trace and the per-layer table here")
	jsonOut := fs.Bool("json", false, "print the summary as one JSON document")
	child := fs.String("child", "", "internal: run one round (round) or one set-up (setup) of -workload in this process and print its raw result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "exobench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "exobench: -seconds must not be negative")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceDir: *traceDir, json: *jsonOut}
	if *wname == "all" {
		opt.workloads = workloads
	} else if w, ok := findWorkload(*wname); ok {
		opt.workloads = []workload{w}
	} else {
		fmt.Fprintf(stderr, "exobench: unknown workload %q\n", *wname)
		return 2
	}
	if *child != "" {
		if len(opt.workloads) != 1 {
			fmt.Fprintln(stderr, "exobench: -child needs one -workload")
			return 2
		}
		w := opt.workloads[0]
		var res *roundResult
		var err error
		switch *child {
		case "round":
			res, err = runRound(w, opt.seed, opt.trace, w.ops, opt.traceDir)
		case "setup":
			res, err = runSetUp(w, opt.seed)
		default:
			fmt.Fprintf(stderr, "exobench: -child must be round or setup, not %q\n", *child)
			return 2
		}
		if err != nil {
			fmt.Fprintln(stderr, "exobench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "exobench:", err)
			return 1
		}
		return 0
	}
	if opt.traceDir != "" {
		opt.trace = true
		if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "exobench:", err)
			return 1
		}
	}
	results, err := runRounds(opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "exobench:", err)
		return 1
	}
	return report(opt, results, stdout, stderr)
}

// pair is one round of one workload: the untraced child, with the set-up
// times of the set-up children added, and, in a traced run, the traced
// child that ran after them.
type pair struct{ u, t *roundResult }

// runRounds runs the rounds, visiting the workloads in turn within each.
func runRounds(opt options, stderr io.Writer) (map[string][]pair, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	budget := time.Duration(opt.seconds * float64(len(opt.workloads)) * float64(time.Second))
	start := time.Now()
	var last time.Duration
	out := map[string][]pair{}
	for r := 0; r < minRounds || time.Since(start)+last <= budget; r++ {
		roundStart := time.Now()
		for _, w := range opt.workloads {
			var p pair
			if p.u, err = spawn(exe, w, opt.seed, stderr, "-child", "round"); err != nil {
				return nil, err
			}
			for i := 1; i < setupReps; i++ {
				s, err := spawn(exe, w, opt.seed, stderr, "-child", "setup")
				if err != nil {
					return nil, err
				}
				p.u.Setups = append(p.u.Setups, s.Setups...)
			}
			if opt.trace {
				dir := ""
				if r == 0 {
					dir = opt.traceDir
				}
				if p.t, err = spawn(exe, w, opt.seed, stderr, "-child", "round", "-trace", "1", "-tracedir", dir); err != nil {
					return nil, err
				}
			}
			out[w.name] = append(out[w.name], p)
		}
		last = time.Since(roundStart)
	}
	return out, nil
}

// spawn runs a fresh child process on one workload and waits for it to
// exit.
func spawn(exe string, w workload, seed uint64, stderr io.Writer, args ...string) (*roundResult, error) {
	args = append([]string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}, args...)
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s round: %w", w.name, err)
	}
	res := &roundResult{}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("%s round: bad result: %w", w.name, err)
	}
	return res, nil
}

// workloadReport is one workload's summary.
type workloadReport struct {
	Name      string          `json:"name"`
	Rounds    int             `json:"rounds"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Problems  []string        `json:"problems,omitempty"`
	Metrics   []metricSummary `json:"metrics"`
}

type metricSummary struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	kind   kind
}

// summarizeWorkload folds a workload's rounds into medians.
func summarizeWorkload(name string, pairs []pair) workloadReport {
	rep := workloadReport{Name: name, Rounds: len(pairs)}
	for _, p := range pairs {
		for _, r := range []*roundResult{p.u, p.t} {
			if r == nil {
				continue
			}
			rep.Attempted += r.Ops
			rep.Failed += r.Failed
			for _, msg := range r.Problems {
				if len(rep.Problems) < maxProblems {
					rep.Problems = append(rep.Problems, msg)
				}
			}
		}
	}
	for _, m := range metrics {
		var vals []float64
		for _, p := range pairs {
			if v, ok := m.value(p.u, p.t); ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		s := summarize(vals)
		rep.Metrics = append(rep.Metrics, metricSummary{Name: m.name, Unit: m.unit,
			Median: s.Median, Q1: s.Q1, Q3: s.Q3, N: s.N, kind: m.kind})
	}
	return rep
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func report(opt options, results map[string][]pair, stdout, stderr io.Writer) int {
	var reps []workloadReport
	ok := true
	for _, w := range opt.workloads {
		rep := summarizeWorkload(w.name, results[w.name])
		reps = append(reps, rep)
		if rep.Failed > 0 {
			ok = false
			fmt.Fprintf(stderr, "exobench: %s: %d of %d ops failed\n", w.name, rep.Failed, rep.Attempted)
			for _, msg := range rep.Problems {
				fmt.Fprintln(stderr, "  ", msg)
			}
		}
	}
	if opt.json {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"seed": opt.seed, "workloads": reps}); err != nil {
			fmt.Fprintln(stderr, "exobench:", err)
			return 1
		}
	} else {
		for _, rep := range reps {
			for _, m := range rep.Metrics {
				fmt.Fprintf(stdout, "%-10s %-34s %14.8g %-6s n=%d q1=%.8g q3=%.8g\n",
					rep.Name, m.Name, m.Median, m.Unit, m.N, m.Q1, m.Q3)
			}
		}
	}
	if opt.traceDir != "" {
		if err := writeLayerTable(filepath.Join(opt.traceDir, "layers.txt"), reps); err != nil {
			fmt.Fprintln(stderr, "exobench:", err)
			return 1
		}
	}
	if len(reps) == 1 {
		want := endToEnd
		if opt.trace {
			want = perLayer
		}
		line := contractLine{Correct: ok, Attempted: reps[0].Attempted, Failed: reps[0].Failed,
			Metrics: map[string]contractValue{}}
		for _, m := range reps[0].Metrics {
			if m.kind == want {
				line.Metrics[m.Name] = contractValue{Value: m.Median, Unit: m.Unit}
			}
		}
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			fmt.Fprintln(stderr, "exobench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// writeLayerTable writes the traced rounds' per-layer view: each span's
// inclusive and self time per op, self share and latency percentiles, and
// the CPU profile folded by layer.
func writeLayerTable(path string, reps []workloadReport) error {
	var b bytes.Buffer
	for _, rep := range reps {
		med := map[string]float64{}
		for _, m := range rep.Metrics {
			med[m.Name] = m.Median
		}
		fmt.Fprintf(&b, "== %s (%d rounds)\n%-24s %12s %14s %10s %10s %10s\n", rep.Name, rep.Rounds,
			"span", "ns/op", "self ns/op", "self share", "p50 us", "p99 us")
		for _, name := range spanNames {
			if med[name+".ns_per_op"] == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-24s %12.1f %14.1f %10.4f %10.2f %10.2f\n", name, med[name+".ns_per_op"],
				med[name+".self_ns_per_op"], med[name+".self_share"], med[name+".p50_us"], med[name+".p99_us"])
		}
		fmt.Fprintf(&b, "%-24s %12s\n", "layer (CPU profile)", "share")
		for _, l := range layers {
			fmt.Fprintf(&b, "%-24s %12.4f\n", l, med[l+".cpu_share"])
		}
		fmt.Fprintf(&b, "%-24s %12.4f\n\n", "trace overhead", med["harness.trace_overhead_frac"])
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
