package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// maxProblems bounds the failure messages one round reports; the counts
// are always complete.
const maxProblems = 10

// roundResult is what one child process reports for one round of one
// workload: raw numbers only, the parent derives every metric.
type roundResult struct {
	Ops      int
	Failed   int // ops that failed inline or whose output failed verification
	Problems []string
	Inputs   uint64  // digest of the generated inputs
	Setups   []int64 // set-up times in ns, one per process; the parent adds its set-up children's
	WallNs   int64
	Delta    counters // exact counters over the timed window
	Mallocs  uint64
	Bytes    uint64
	GCs      uint64
	Spans    [numSpans]spanSummary // traced rounds only
	CPUNs    map[string]int64      // CPU-profile time by layer, traced rounds only
	MaxRSSKB int64                 // the child's own peak resident set (VmHWM)
}

// spanSummary is one span kind over the timed window.
type spanSummary struct {
	Count, TotalNs, SelfNs int64
	P50Ns, P99Ns           float64
}

// setUp boots a workload and runs its warm-up ops.
func setUp(w workload, seed uint64, tr *tracer) (instance, error) {
	inst, err := w.boot(seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: boot: %w", w.name, err)
	}
	for i := 0; i < w.warm; i++ {
		if err := inst.op(i); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}
	return inst, nil
}

// runSetUp times one set-up of a workload, the only one in this process.
func runSetUp(w workload, seed uint64) (*roundResult, error) {
	t0 := time.Now()
	if _, err := setUp(w, seed, nil); err != nil {
		return nil, err
	}
	return &roundResult{Setups: []int64{int64(time.Since(t0))}}, nil
}

// runRound sets a workload up, measures ops ops in one closed loop from one
// goroutine, and checks the outputs. A traced round also records spans and
// a CPU profile; traceDir, if set, receives the round's Chrome trace.
func runRound(w workload, seed uint64, traced bool, ops int, traceDir string) (*roundResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res := &roundResult{Ops: ops}
	t0 := time.Now()
	inst, err := setUp(w, seed, tr)
	if err != nil {
		return nil, err
	}
	res.Setups = []int64{int64(time.Since(t0))}
	tr.reset() // spans cover the timed window only
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := inst.counters()
	var cpu bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return nil, err
		}
	}
	t0 = time.Now()
	for i := w.warm; i < w.warm+res.Ops; i++ {
		if err := inst.op(i); err != nil {
			res.Failed++
			if len(res.Problems) < maxProblems {
				res.Problems = append(res.Problems, err.Error())
			}
		}
	}
	res.WallNs = int64(time.Since(t0))
	if traced {
		pprof.StopCPUProfile()
	}
	res.Delta = inst.counters().sub(c0)
	runtime.ReadMemStats(&ms1)
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	res.Bytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.GCs = uint64(ms1.NumGC - ms0.NumGC)
	res.Inputs = inst.inputs()

	// A wrong output found after the window is one failed op, however
	// many lines describe it.
	bad := inst.verify()
	if len(bad) > 0 {
		res.Failed++
	}
	for _, b := range bad {
		if len(res.Problems) < maxProblems {
			res.Problems = append(res.Problems, b)
		}
	}
	if res.MaxRSSKB, err = peakRSSKB(); err != nil {
		return nil, err
	}
	if !traced {
		return res, nil
	}
	for id := range tr.stats {
		s := &tr.stats[id]
		res.Spans[id] = spanSummary{Count: s.Count, TotalNs: s.TotalNs, SelfNs: s.SelfNs,
			P50Ns: s.Hist.quantile(0.50), P99Ns: s.Hist.quantile(0.99)}
	}
	prof, err := decodeProfile(cpu.Bytes())
	if err != nil {
		return nil, err
	}
	if res.CPUNs, err = foldByLayer(prof); err != nil {
		return nil, err
	}
	if traceDir != "" {
		f, err := os.Create(filepath.Join(traceDir, w.name+".trace.json"))
		if err != nil {
			return nil, err
		}
		if err := tr.writeChrome(f, w.name); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// peakRSSKB reads the process's own peak resident set, in KB, from VmHWM in
// /proc/self/status. The rusage the parent gets from waiting on the child
// cannot stand in for it: a child started with CLONE_VM shares its parent's
// memory until exec, and exec carries the parent's peak into the child's
// ru_maxrss.
func peakRSSKB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) == 2 && f[1] == "kB" {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
