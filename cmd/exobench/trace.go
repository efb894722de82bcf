package main

import (
	"encoding/json"
	"io"
	"math/bits"
	"strings"
	"time"
)

// Host-time spans. Each span is recorded by exobench's own code around a
// public call into one layer, or inside a callback exobench owns (OnFault,
// the app-echo NativeRun). Layers nest — an OnFault upcall runs inside
// Interp.Run — so every span also gets a self time: its duration minus
// the part its child spans cover.

type spanID uint8

const (
	spanVMRun spanID = iota
	spanProtectN
	spanOnFault
	spanUDPSend
	spanUDPRecv
	spanAppEcho
	spanDispatchNative
	spanEtherSync
	spanFSRead
	spanFSWrite
	spanFSSync
	numSpans
)

// spanNames are the metric prefixes, <layer>.<call>.
var spanNames = [numSpans]string{
	spanVMRun:          "vm.run",
	spanProtectN:       "exos.protect_n",
	spanOnFault:        "exos.on_fault",
	spanUDPSend:        "exos.udp_send",
	spanUDPRecv:        "exos.udp_recv",
	spanAppEcho:        "exos.app_echo",
	spanDispatchNative: "aegis.dispatch_native",
	spanEtherSync:      "ether.sync",
	spanFSRead:         "exos.fs_read",
	spanFSWrite:        "exos.fs_write",
	spanFSSync:         "exos.fs_sync",
}

// maxEvents bounds the spans kept for the Chrome export; the statistics
// cover every span regardless.
const maxEvents = 20000

// tracer records spans in memory. A nil *tracer is the untraced run: every
// method returns at once, so the workloads call it unconditionally.
type tracer struct {
	epoch  time.Time
	stack  []openSpan
	stats  [numSpans]spanStat
	events []spanEvent
}

type openSpan struct {
	id    spanID
	start int64 // ns since epoch
	child int64 // ns covered by child spans so far
}

type spanEvent struct {
	id         spanID
	start, dur int64
	depth      int
}

// spanStat accumulates one span kind over a round.
type spanStat struct {
	Count, TotalNs, SelfNs int64
	Hist                   durHist
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), events: make([]spanEvent, 0, maxEvents)}
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	*t = tracer{epoch: time.Now(), stack: t.stack[:0], events: t.events[:0]}
}

func (t *tracer) begin(id spanID) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, openSpan{id: id, start: int64(time.Since(t.epoch))})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	d := now - o.start
	s := &t.stats[o.id]
	s.Count++
	s.TotalNs += d
	s.SelfNs += d - o.child
	s.Hist.add(d)
	if n > 0 {
		t.stack[n-1].child += d
	}
	if len(t.events) < maxEvents {
		t.events = append(t.events, spanEvent{id: o.id, start: o.start, dur: d, depth: n})
	}
}

// durHist is a log-linear histogram of durations in ns: values below 16
// are exact, above that each power of two splits into 16 buckets (about
// 4% wide), which is enough for p50/p99 of a span.
type durHist [64 * 16]uint32

func histBucket(ns int64) int {
	if ns < 16 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	m := (uint64(ns) >> (e - 4)) & 15
	return (e-3)*16 + int(m)
}

// histLow is the smallest duration that falls in bucket b.
func histLow(b int) float64 {
	if b < 16 {
		return float64(b)
	}
	e, m := b/16+3, b%16
	return float64(uint64(16+m) << (e - 4))
}

func (h *durHist) add(ns int64) { h[histBucket(ns)]++ }

// quantile returns the q-quantile in ns, as the midpoint of its bucket.
func (h *durHist) quantile(q float64) float64 {
	var n uint64
	for _, c := range h {
		n += uint64(c)
	}
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n-1))
	var seen uint64
	for b, c := range h {
		seen += uint64(c)
		if seen > rank {
			if b < 16 {
				return histLow(b)
			}
			return (histLow(b) + histLow(b+1)) / 2
		}
	}
	return 0
}

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome exports the kept spans as a Chrome trace_event file, one
// complete ("X") slice per span on a single track, timestamps in host µs.
func (t *tracer) writeChrome(w io.Writer, workload string) error {
	out := make([]chromeEvent, 0, len(t.events)+1)
	out = append(out, chromeEvent{Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": "exobench " + workload}})
	for _, e := range t.events {
		name := spanNames[e.id]
		layer, _, _ := strings.Cut(name, ".")
		out = append(out, chromeEvent{Name: name, Cat: layer, Ph: "X",
			Ts: float64(e.start) / 1e3, Dur: float64(e.dur) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"depth": e.depth}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": out, "displayTimeUnit": "ns"})
}
