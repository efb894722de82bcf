package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// tinyRound runs one round of a workload in this process, with a thousandth
// of its op count.
func tinyRound(t *testing.T, w workload, seed uint64, traced bool) *roundResult {
	t.Helper()
	res, err := runRound(w, seed, traced, max(1, w.ops/1000), "")
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if res.Failed != 0 {
		t.Fatalf("%s seed %d: %d failed ops: %v", w.name, seed, res.Failed, res.Problems)
	}
	return res
}

// tinyReport runs one tiny round and one more set-up of each workload, plus
// a traced round if traced, and reports them as the parent would.
func tinyReport(t *testing.T, ws []workload, traced bool) (stdout string) {
	t.Helper()
	opt := options{workloads: ws, seed: 1, trace: traced}
	results := map[string][]pair{}
	for _, w := range ws {
		p := pair{u: tinyRound(t, w, 1, false)}
		s, err := runSetUp(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		p.u.Setups = append(p.u.Setups, s.Setups...)
		if traced {
			p.t = tinyRound(t, w, 1, true)
		}
		results[w.name] = []pair{p}
	}
	var out, errb bytes.Buffer
	if code := report(opt, results, &out, &errb); code != 0 {
		t.Fatalf("report exit %d: %s", code, errb.String())
	}
	return out.String()
}

func TestSameSeedRepeatsSimulationExactly(t *testing.T) {
	for _, w := range workloads {
		a, b := tinyRound(t, w, 1, false), tinyRound(t, w, 1, false)
		if a.Delta != b.Delta || a.Inputs != b.Inputs {
			t.Errorf("%s: two seed-1 rounds differ:\n%v\n%v", w.name, a.Delta, b.Delta)
		}
		if a.Delta[cSimCycles] == 0 {
			t.Errorf("%s: no simulated time passed", w.name)
		}
	}
}

func TestSeedsGiveDifferentOps(t *testing.T) {
	for _, w := range workloads {
		if a, b := tinyRound(t, w, 1, false), tinyRound(t, w, 2, false); a.Inputs == b.Inputs {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.name)
		}
	}
}

func TestTracingLeavesSimulationUnchanged(t *testing.T) {
	for _, w := range workloads {
		u, tr := tinyRound(t, w, 1, false), tinyRound(t, w, 1, true)
		if u.Delta != tr.Delta {
			t.Errorf("%s: traced round simulated differently:\n%v\n%v", w.name, u.Delta, tr.Delta)
		}
		var spans int64
		for _, s := range tr.Spans {
			spans += s.Count
		}
		if spans == 0 || tr.CPUNs == nil {
			t.Errorf("%s: traced round recorded %d spans, CPU fold %v", w.name, spans, tr.CPUNs)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMetricsArePrinted(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, exobench %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, exobench %q", i, w.Name, workloads[i].name)
		}
	}
	// Each listed metric must match the code's table, and the table may
	// list nothing more under either key.
	want := map[string]bool{}
	for k, list := range map[kind][]struct{ Name, Unit, Better string }{endToEnd: bf.EndToEnd, perLayer: bf.PerLayer} {
		for _, m := range list {
			want[m.Name] = true
			found := false
			for _, c := range metrics {
				if c.name == m.Name {
					found = true
					if c.kind != k || c.unit != m.Unit || c.better != m.Better {
						t.Errorf("%s: BENCHMARK.json says %s/%s/%v, exobench %s/%s/%v", m.Name, m.Unit, m.Better, k, c.unit, c.better, c.kind)
					}
				}
			}
			if !found {
				t.Errorf("%s is in BENCHMARK.json but not in exobench", m.Name)
			}
		}
	}
	for _, c := range metrics {
		if c.kind != printed && !want[c.name] {
			t.Errorf("%s is an exobench %v metric missing from BENCHMARK.json", c.name, c.kind)
		}
	}

	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(tinyReport(t, workloads, true)))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 4 {
			seen[f[0]+" "+f[1]] = true
		}
	}
	for _, w := range workloads {
		for name := range want {
			if !seen[w.name+" "+name] {
				t.Errorf("%s: %s not printed", w.name, name)
			}
		}
	}
}

// TestSingleWorkloadEndsWithResultLine checks the machine-readable last
// line: end-to-end metrics untraced, per-layer metrics traced.
func TestSingleWorkloadEndsWithResultLine(t *testing.T) {
	udp, _ := findWorkload("udp-echo")
	for _, tc := range []struct {
		traced bool
		want   kind
	}{{false, endToEnd}, {true, perLayer}} {
		out := tinyReport(t, []workload{udp}, tc.traced)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var line contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("traced %v: last line: %v", tc.traced, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("traced %v: %+v", tc.traced, line)
		}
		for _, m := range metrics {
			v, ok := line.Metrics[m.name]
			if ok != (m.kind == tc.want) {
				t.Errorf("traced %v: %s present=%v", tc.traced, m.name, ok)
			}
			if ok && m.kind == endToEnd && v.Value <= 0 {
				t.Errorf("traced %v: end-to-end %s = %v, want > 0", tc.traced, m.name, v.Value)
			}
		}
	}
}

func spin(d time.Duration) uint64 {
	var x uint64
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

func TestPprofDecoderReadsRecordedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.SampleTypes) != 2 || p.SampleTypes[1] != "cpu/nanoseconds" {
		t.Fatalf("sample types %v", p.SampleTypes)
	}
	var spinSeen bool
	for _, name := range p.FuncName {
		spinSeen = spinSeen || strings.HasSuffix(name, ".spin")
	}
	fold, err := foldByLayer(p)
	if err != nil {
		t.Fatal(err)
	}
	if !spinSeen || fold["harness"] <= 0 {
		t.Errorf("spin missing from the profile: functions %d, fold %v", len(p.FuncName), fold)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"exokernel/internal/vm.(*Interp).runFast":                    "vm",
		"exokernel/internal/aegis.(*Kernel).runASH.func1":            "aegis",
		"exokernel/internal/cap.(*Authority).Check":                  "other",
		"main.(*udpEcho).op":                                         "harness",
		"runtime.mallocgc":                                           "runtime",
		"encoding/binary.littleEndian.Uint32":                        "runtime",
		"slices.SortFunc[go.shape.[]exokernel/internal/hw.TLBEntry]": "runtime",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
}

// badOutputs is an instance whose every op succeeds but whose outputs are
// wrong in three places.
type badOutputs struct{}

func (badOutputs) op(int) error       { return nil }
func (badOutputs) counters() counters { return counters{} }
func (badOutputs) verify() []string   { return []string{"one", "two", "three"} }
func (badOutputs) inputs() uint64     { return 0 }

func TestWrongOutputsCountAsOneFailedOp(t *testing.T) {
	w := workload{name: "bad", ops: 4, boot: func(uint64, *tracer) (instance, error) { return badOutputs{}, nil }}
	res, err := runRound(w, 1, false, w.ops, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || len(res.Problems) != 3 {
		t.Errorf("failed %d, problems %v; want 1 failed op and 3 problems", res.Failed, res.Problems)
	}
}
