package ktrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Exporters. Three formats cover the three audiences: WriteText for eyes,
// WriteJSONL for scripts, and WriteChrome for the chrome://tracing /
// Perfetto timeline UI.

// WriteText renders events as an aligned human-readable log:
//
//	cycle        env  kind             args
func WriteText(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%12s  %-5s  %-16s %s\n", "cycle", "env", "event", "args")
	for _, e := range events {
		fmt.Fprintf(bw, "%12d  %-5d  %-16s %d %d %d\n", e.Cycle, e.Env, e.Kind, e.Arg0, e.Arg1, e.Arg2)
	}
	return bw.Flush()
}

// jsonEvent is the JSONL wire form of an Event. Machine is the source
// dimension of merged multi-machine streams (internal/fleet); single-
// machine traces leave it empty and the field is omitted, so old traces
// and old readers are untouched.
type jsonEvent struct {
	Machine string `json:"machine,omitempty"`
	Cycle   uint64 `json:"cycle"`
	Kind    string `json:"kind"`
	Env     uint32 `json:"env"`
	Arg0    uint64 `json:"arg0,omitempty"`
	Arg1    uint64 `json:"arg1,omitempty"`
	Arg2    uint64 `json:"arg2,omitempty"`
}

// SourcedEvent is an Event tagged with the machine it was recorded on —
// the unit of a merged fleet stream. Machine "" means "the only machine"
// (a plain single-recorder trace).
type SourcedEvent struct {
	Machine string
	Event
}

// WriteJSONL writes one JSON object per line, in event order.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(jsonEvent{Cycle: e.Cycle, Kind: e.Kind.String(), Env: e.Env, Arg0: e.Arg0, Arg1: e.Arg1, Arg2: e.Arg2}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONLSourced writes a merged multi-machine stream, one JSON object
// per line with the machine dimension on every tagged event.
func WriteJSONLSourced(w io.Writer, events []SourcedEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(jsonEvent{Machine: e.Machine, Cycle: e.Cycle, Kind: e.Kind.String(), Env: e.Env, Arg0: e.Arg0, Arg1: e.Arg1, Arg2: e.Arg2}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// kindsByName is the inverse of kindNames, for parsing exported traces.
var kindsByName = func() map[string]Kind {
	m := make(map[string]Kind, int(numKinds))
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()

// KindByName resolves an event-kind name (the inverse of Kind.String).
func KindByName(name string) (Kind, bool) {
	k, ok := kindsByName[name]
	return k, ok
}

// ParseJSONL reads a WriteJSONL / WriteJSONLSourced stream back into
// events, so scripts (and tests) can round-trip a trace instead of
// scraping text. Blank lines are skipped and any machine tag is
// discarded (use ParseJSONLSourced to keep it).
//
// A final line that is not valid JSON is treated as a truncated tail,
// not an error: flight-recorder dumps are read at crash time, exactly
// when the writer may have died mid-line. The skipped-line count (0 or
// 1) is returned so callers can report the loss. Garbage *before* the
// last line, or a well-formed line with an unknown kind name, is still
// an error.
func ParseJSONL(r io.Reader) (events []Event, truncated int, err error) {
	sourced, truncated, err := ParseJSONLSourced(r)
	if err != nil {
		return nil, truncated, err
	}
	if sourced == nil {
		return nil, truncated, nil
	}
	events = make([]Event, len(sourced))
	for i, se := range sourced {
		events[i] = se.Event
	}
	return events, truncated, nil
}

// ParseJSONLSourced is ParseJSONL keeping the machine dimension of each
// line (empty for plain single-machine traces).
func ParseJSONLSourced(r io.Reader) (events []SourcedEvent, truncated int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	// A malformed line is held pending: if it turns out to be the last
	// non-blank line it was a truncated tail (skip, count); if anything
	// follows it, the file is corrupt (error).
	var pending error
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		if pending != nil {
			return nil, 0, pending
		}
		var je jsonEvent
		if err := json.Unmarshal(text, &je); err != nil {
			pending = fmt.Errorf("ktrace: line %d: %w", line, err)
			continue
		}
		kind, ok := KindByName(je.Kind)
		if !ok {
			return nil, 0, fmt.Errorf("ktrace: line %d: unknown event kind %q", line, je.Kind)
		}
		events = append(events, SourcedEvent{Machine: je.Machine,
			Event: Event{Cycle: je.Cycle, Kind: kind, Env: je.Env, Arg0: je.Arg0, Arg1: je.Arg1, Arg2: je.Arg2}})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("ktrace: %w", err)
	}
	if pending != nil {
		truncated = 1
	}
	return events, truncated, nil
}

// chromeEvent is one entry of the Chrome trace_event "JSON Object Format"
// (the {"traceEvents": [...]} envelope), loadable in chrome://tracing and
// in Perfetto's legacy-trace importer.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds
	Dur   *float64       `json:"dur,omitempty"`
	Pid   uint32         `json:"pid"`
	Tid   uint32         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome exports one machine's events in Chrome trace_event format:
// WriteChromeMerged with that machine alone, so the process track is the
// machine (pid 1) and each environment is a thread track under it (tid =
// env; env 0 is the kernel itself — drops, decisions with no owner). mhz
// converts cycle stamps to microseconds (the trace_event time base); pass
// the simulated machine's clock rate.
func WriteChrome(w io.Writer, events []Event, mhz float64) error {
	sourced := make([]SourcedEvent, len(events))
	for i, e := range events {
		sourced[i] = SourcedEvent{Event: e}
	}
	return WriteChromeMerged(w, sourced, []string{""}, mhz)
}

// WriteChromeMerged exports a merged multi-machine stream in Chrome
// trace_event format with one process track per machine: pid = 1 + the
// machine's index in machines, tid = the responsible environment. The
// machines slice fixes the pid assignment (and the track order in the
// UI); events whose Machine is not listed are dropped. Syscall
// enter/exit pairs become complete ("X") slices (an enter left unmatched
// at the window edge degrades to an instant), the rest are instants, and
// the output is deterministic — the same event stream always serializes
// to the same bytes.
func WriteChromeMerged(w io.Writer, events []SourcedEvent, machines []string, mhz float64) error {
	if mhz <= 0 {
		mhz = 1
	}
	us := func(cycle uint64) float64 { return float64(cycle) / mhz }
	pids := make(map[string]uint32, len(machines))
	for i, name := range machines {
		pids[name] = uint32(i + 1)
	}

	type track struct {
		pid, tid uint32
	}
	out := make([]chromeEvent, 0, len(events)+8)
	tracks := map[track]bool{}
	pending := map[track]Event{}

	flushPending := func(tr track) {
		if enter, ok := pending[tr]; ok {
			out = append(out, chromeEvent{
				Name: enter.Kind.String(), Ph: "i", Ts: us(enter.Cycle),
				Pid: tr.pid, Tid: tr.tid, Scope: "t",
				Args: map[string]any{"code": enter.Arg0, "cycle": enter.Cycle},
			})
			delete(pending, tr)
		}
	}

	for _, se := range events {
		pid, ok := pids[se.Machine]
		if !ok {
			continue
		}
		e := se.Event
		tr := track{pid: pid, tid: e.Env}
		tracks[tr] = true
		switch e.Kind {
		case KindSyscallEnter:
			flushPending(tr)
			pending[tr] = e
		case KindSyscallExit:
			if enter, ok := pending[tr]; ok && enter.Arg0 == e.Arg0 {
				dur := us(e.Cycle) - us(enter.Cycle)
				out = append(out, chromeEvent{
					Name: fmt.Sprintf("syscall %d", e.Arg0), Ph: "X",
					Ts: us(enter.Cycle), Dur: &dur,
					Pid: tr.pid, Tid: tr.tid,
					Args: map[string]any{"code": e.Arg0, "cycles": e.Cycle - enter.Cycle},
				})
				delete(pending, tr)
				continue
			}
			fallthrough
		default:
			out = append(out, chromeEvent{
				Name: e.Kind.String(), Ph: "i", Ts: us(e.Cycle),
				Pid: tr.pid, Tid: tr.tid, Scope: "t",
				Args: map[string]any{"arg0": e.Arg0, "arg1": e.Arg1, "arg2": e.Arg2, "cycle": e.Cycle},
			})
		}
	}
	// Window-edge unmatched enters, in deterministic track order.
	open := make([]track, 0, len(pending))
	for tr := range pending {
		open = append(open, tr)
	}
	sort.Slice(open, func(i, j int) bool {
		if open[i].pid != open[j].pid {
			return open[i].pid < open[j].pid
		}
		return open[i].tid < open[j].tid
	})
	for _, tr := range open {
		flushPending(tr)
	}

	// Metadata: one process_name per machine (every machine listed gets a
	// track, even if it recorded nothing this window), and one
	// thread_name per (machine, env) seen.
	seen := make([]track, 0, len(tracks))
	for tr := range tracks {
		seen = append(seen, tr)
	}
	sort.Slice(seen, func(i, j int) bool {
		if seen[i].pid != seen[j].pid {
			return seen[i].pid < seen[j].pid
		}
		return seen[i].tid < seen[j].tid
	})
	meta := make([]chromeEvent, 0, len(machines)+len(seen))
	for i, name := range machines {
		label := "machine " + name
		if name == "" {
			label = "machine" // the only machine of a WriteChrome trace
		}
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", Pid: uint32(i + 1),
			Args: map[string]any{"name": label},
		})
	}
	for _, tr := range seen {
		name := fmt.Sprintf("env %d", tr.tid)
		if tr.tid == 0 {
			name = "kernel"
		}
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: tr.pid, Tid: tr.tid,
			Args: map[string]any{"name": name},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: append(meta, out...), DisplayTimeUnit: "ms"})
}
