package main

import "sort"

// kind places a metric in BENCHMARK.json.
type kind int

const (
	endToEnd kind = iota // end_to_end: what a user of the simulator sees, bounded
	perLayer             // per_layer: one layer, no bound
	printed              // printed by exobench only
)

// metric derives one number from a round. u is the untraced child of the
// round; t is its traced child, nil unless the round was traced. ok is
// false when the round cannot give the metric.
type metric struct {
	name, unit, better string
	kind               kind
	value              func(u, t *roundResult) (v float64, ok bool)
}

func perOp(c counter) func(u, t *roundResult) (float64, bool) {
	return func(u, _ *roundResult) (float64, bool) { return float64(u.Delta[c]) / float64(u.Ops), true }
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics lists every metric in print order. Counters are exact; host
// times are medians over rounds.
var metrics = buildMetrics()

func buildMetrics() []metric {
	ms := []metric{
		{"ops_per_s", "1/s", "higher", perLayer, func(u, _ *roundResult) (float64, bool) {
			return float64(u.Ops) / (float64(u.WallNs) / 1e9), true
		}},
		{"setup_s", "s", "lower", endToEnd, func(u, _ *roundResult) (float64, bool) {
			s := make([]float64, len(u.Setups))
			for i, ns := range u.Setups {
				s[i] = float64(ns) / 1e9
			}
			return summarize(s).Median, len(s) > 0
		}},
		{"host_ns_per_sim_cycle", "ns", "lower", perLayer, func(u, _ *roundResult) (float64, bool) {
			return ratio(float64(u.WallNs), float64(u.Delta[cSimCycles])), true
		}},
		{"allocs_per_op", "count", "lower", endToEnd, func(u, _ *roundResult) (float64, bool) {
			return float64(u.Mallocs) / float64(u.Ops), true
		}},
		{"alloc_bytes_per_op", "B", "lower", endToEnd, func(u, _ *roundResult) (float64, bool) {
			return float64(u.Bytes) / float64(u.Ops), true
		}},
		{"max_rss_mb", "MB", "lower", endToEnd, func(u, _ *roundResult) (float64, bool) {
			return float64(u.MaxRSSKB) / 1024, true
		}},
		{"error_rate", "frac", "lower", printed, func(u, _ *roundResult) (float64, bool) {
			return float64(u.Failed) / float64(u.Ops), true
		}},
		{"sim_cycles_per_op", "cycle", "lower", perLayer, perOp(cSimCycles)},
		{"vm.guest_instr_per_op", "1/op", "lower", perLayer, perOp(cVMSteps)},
		{"vm.guest_mips", "MIPS", "higher", perLayer, func(u, _ *roundResult) (float64, bool) {
			return float64(u.Delta[cVMSteps]) / (float64(u.WallNs) / 1e3), true
		}},
		{"aegis.exceptions_per_op", "1/op", "lower", perLayer, perOp(cExceptions)},
		{"aegis.tlb_misses_per_op", "1/op", "lower", perLayer, perOp(cTLBMisses)},
		{"aegis.syscalls_per_op", "1/op", "lower", perLayer, perOp(cSyscalls)},
		{"aegis.ash_runs_per_op", "1/op", "lower", perLayer, perOp(cASHRuns)},
		{"aegis.pkt_delivered_per_op", "1/op", "lower", perLayer, perOp(cPktDelivered)},
		{"aegis.pkt_dropped_per_op", "1/op", "lower", perLayer, perOp(cPktDropped)},
		{"aegis.stlb_hit_ratio", "frac", "higher", perLayer, func(u, _ *roundResult) (float64, bool) {
			return ratio(float64(u.Delta[cSTLBHits]), float64(u.Delta[cTLBMisses])), true
		}},
		{"hw.tlb_mutations_per_op", "1/op", "lower", perLayer, perOp(cTLBMutations)},
		{"hw.disk_reads_per_op", "1/op", "lower", perLayer, perOp(cDiskReads)},
		{"hw.disk_writes_per_op", "1/op", "lower", perLayer, perOp(cDiskWrites)},
		{"hw.disk_flushes_per_op", "1/op", "lower", perLayer, perOp(cDiskFlushes)},
		{"hw.disk_seek_blocks_per_op", "1/op", "lower", perLayer, perOp(cDiskSeekBlocks)},
		{"exos.faults_per_op", "1/op", "lower", perLayer, perOp(cFaults)},
		{"exos.bufcache_hit_ratio", "frac", "higher", perLayer, func(u, _ *roundResult) (float64, bool) {
			h := float64(u.Delta[cCacheHits])
			return ratio(h, h+float64(u.Delta[cCacheMisses])), true
		}},
		{"exos.bufcache_writebacks_per_op", "1/op", "lower", perLayer, perOp(cWritebacks)},
		{"ether.frames_per_op", "1/op", "lower", perLayer, perOp(cFrames)},
		{"ether.dropped_per_op", "1/op", "lower", perLayer, perOp(cDropped)},
		{"runtime.gc_cycles_per_kop", "1/kop", "lower", perLayer, func(u, _ *roundResult) (float64, bool) {
			return float64(u.GCs) * 1000 / float64(u.Ops), true
		}},
	}
	for _, l := range layers {
		ms = append(ms, metric{l + ".cpu_share", "frac", "lower", perLayer, func(_, t *roundResult) (float64, bool) {
			if t == nil {
				return 0, false
			}
			var total int64
			for _, ns := range t.CPUNs {
				total += ns
			}
			return ratio(float64(t.CPUNs[l]), float64(total)), true
		}})
	}
	for id := spanID(0); id < numSpans; id++ {
		name := spanNames[id]
		span := func(f func(s spanSummary, t *roundResult) float64) func(_, t *roundResult) (float64, bool) {
			return func(_, t *roundResult) (float64, bool) {
				if t == nil {
					return 0, false
				}
				return f(t.Spans[id], t), true
			}
		}
		ms = append(ms,
			metric{name + ".ns_per_op", "ns", "lower", printed, span(func(s spanSummary, t *roundResult) float64 {
				return float64(s.TotalNs) / float64(t.Ops)
			})},
			metric{name + ".self_ns_per_op", "ns", "lower", printed, span(func(s spanSummary, t *roundResult) float64 {
				return float64(s.SelfNs) / float64(t.Ops)
			})},
			metric{name + ".self_share", "frac", "lower", perLayer, span(func(s spanSummary, t *roundResult) float64 {
				return float64(s.SelfNs) / float64(t.WallNs)
			})},
			metric{name + ".p50_us", "us", "lower", printed, span(func(s spanSummary, _ *roundResult) float64 {
				return s.P50Ns / 1e3
			})},
			metric{name + ".p99_us", "us", "lower", printed, span(func(s spanSummary, _ *roundResult) float64 {
				return s.P99Ns / 1e3
			})},
		)
	}
	ms = append(ms, metric{"harness.trace_overhead_frac", "frac", "lower", perLayer, func(u, t *roundResult) (float64, bool) {
		if t == nil {
			return 0, false
		}
		// Both children ran the same ops; compare their window times.
		return 1 - float64(u.WallNs)/float64(t.WallNs), true
	}})
	return ms
}

// summary is a metric's distribution over rounds.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize gives the median and the quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default exclusive method).
func summarize(vals []float64) summary {
	s := summary{N: len(vals)}
	if s.N == 0 {
		return s
	}
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	if s.N%2 == 1 {
		s.Median = d[s.N/2]
	} else {
		s.Median = (d[s.N/2-1] + d[s.N/2]) / 2
	}
	if s.N == 1 {
		s.Q1, s.Q3 = d[0], d[0]
		return s
	}
	q := func(i int) float64 {
		m := s.N + 1
		j := i * m / 4
		j = min(max(j, 1), s.N-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}
