package ktrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := New(8)
	if !r.Enabled() {
		t.Fatal("new recorder not enabled")
	}
	r.Emit(10, KindSyscallEnter, 1, 0, 0, 0)
	r.Emit(20, KindSyscallExit, 1, 0, 0, 0)
	if r.Len() != 2 || r.Total() != 2 || r.Dropped() != 0 {
		t.Fatalf("len/total/dropped = %d/%d/%d", r.Len(), r.Total(), r.Dropped())
	}
	ev := r.Events()
	if len(ev) != 2 || ev[0].Cycle != 10 || ev[1].Cycle != 20 {
		t.Fatalf("events = %+v", ev)
	}
}

func TestNilAndDisabledRecorder(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder enabled")
	}
	r.Emit(1, KindTLBMiss, 1, 0, 0, 0) // must not panic
	if r.Events() != nil || r.Len() != 0 {
		t.Error("nil recorder holds events")
	}
	r2 := New(4)
	r2.SetEnabled(false)
	r2.Emit(1, KindTLBMiss, 1, 0, 0, 0)
	if r2.Len() != 0 {
		t.Error("disabled recorder recorded")
	}
}

// TestWraparound: events beyond capacity overwrite the oldest; the reader
// sees a consistent, cycle-ordered window of the most recent capacity
// events.
func TestWraparound(t *testing.T) {
	const capacity = 16
	const emitted = 100
	r := New(capacity)
	for i := 0; i < emitted; i++ {
		r.Emit(uint64(i*5), Kind(1+i%int(numKinds-1)), uint32(i%3), uint64(i), 0, 0)
	}
	if r.Len() != capacity {
		t.Fatalf("Len = %d, want %d", r.Len(), capacity)
	}
	if r.Total() != emitted {
		t.Fatalf("Total = %d, want %d", r.Total(), emitted)
	}
	if r.Dropped() != emitted-capacity {
		t.Fatalf("Dropped = %d, want %d", r.Dropped(), emitted-capacity)
	}
	ev := r.Events()
	if len(ev) != capacity {
		t.Fatalf("window = %d events, want %d", len(ev), capacity)
	}
	// The window is exactly the newest `capacity` events, oldest first,
	// with non-decreasing cycle stamps.
	for i, e := range ev {
		want := uint64((emitted - capacity + i))
		if e.Arg0 != want {
			t.Errorf("window[%d].Arg0 = %d, want %d", i, e.Arg0, want)
		}
		if i > 0 && e.Cycle < ev[i-1].Cycle {
			t.Errorf("window not cycle-ordered at %d: %d < %d", i, e.Cycle, ev[i-1].Cycle)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(250).String() != "kind?" {
		t.Errorf("out-of-range kind = %q", Kind(250).String())
	}
}

func sample() []Event {
	return []Event{
		{Cycle: 100, Kind: KindEnvCreate, Env: 1},
		{Cycle: 110, Kind: KindSyscallEnter, Env: 1, Arg0: 3},
		{Cycle: 140, Kind: KindSyscallExit, Env: 1, Arg0: 3},
		{Cycle: 150, Kind: KindTLBMiss, Env: 1, Arg0: 0x1000},
		{Cycle: 160, Kind: KindCtxSwitch, Env: 1, Arg0: 2},
		{Cycle: 170, Kind: KindPktDeliver, Env: 2, Arg0: 64},
		{Cycle: 200, Kind: KindSyscallEnter, Env: 2, Arg0: 5}, // unmatched
	}
}

func TestWriteText(t *testing.T) {
	var b bytes.Buffer
	if err := WriteText(&b, sample()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"syscall-enter", "tlb-miss", "ctx-switch", "pkt-deliver"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q", want)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	var b bytes.Buffer
	if err := WriteJSONL(&b, sample()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != len(sample()) {
		t.Fatalf("%d lines, want %d", len(lines), len(sample()))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if _, ok := m["kind"]; !ok {
			t.Errorf("line %d missing kind", i)
		}
	}
}

// TestWriteChrome checks the export is valid Chrome trace_event JSON in
// the one-machine layout: every entry carries name/ph/ts/pid, the machine
// is process 1 and each environment a thread under it, and syscall
// enter/exit pairs fold into complete ("X") slices on the caller's
// thread while an unmatched enter degrades to an instant.
func TestWriteChrome(t *testing.T) {
	var b bytes.Buffer
	if err := WriteChrome(&b, sample(), 25); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	var sawComplete, sawUnmatched bool
	meta := map[string]bool{}
	for _, e := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event missing %q: %v", key, e)
			}
		}
		if e["pid"].(float64) != 1 {
			t.Errorf("pid = %v, want 1 (the machine): %v", e["pid"], e)
		}
		switch e["ph"] {
		case "X":
			sawComplete = true
			if e["dur"].(float64) <= 0 {
				t.Errorf("X event with non-positive dur: %v", e)
			}
			// 30 cycles at 25 MHz = 1.2 us.
			if ts := e["ts"].(float64); ts != 110.0/25 {
				t.Errorf("X ts = %v, want %v", ts, 110.0/25)
			}
			if e["tid"].(float64) != 1 {
				t.Errorf("X tid = %v, want env 1", e["tid"])
			}
		case "i":
			if e["name"] == "syscall-enter" {
				sawUnmatched = true
				if e["tid"].(float64) != 2 {
					t.Errorf("unmatched enter tid = %v, want env 2", e["tid"])
				}
			}
		case "M":
			meta[e["name"].(string)+"/"+e["args"].(map[string]any)["name"].(string)] = true
		}
	}
	if !sawComplete || !sawUnmatched {
		t.Errorf("complete/unmatched-instant = %v/%v, want both", sawComplete, sawUnmatched)
	}
	for _, want := range []string{"process_name/machine", "thread_name/env 1", "thread_name/env 2"} {
		if !meta[want] {
			t.Errorf("missing metadata %q (have %v)", want, meta)
		}
	}
}

// TestWriteChromeDeterministicWindowEdge: enters left open at the window
// edge by several environments must serialize in a fixed order, so the
// same events always give the same bytes.
func TestWriteChromeDeterministicWindowEdge(t *testing.T) {
	var events []Event
	for env := uint32(1); env <= 6; env++ {
		events = append(events, Event{Cycle: 100 + uint64(env), Kind: KindSyscallEnter, Env: env, Arg0: uint64(env)})
	}
	var first bytes.Buffer
	if err := WriteChrome(&first, events, 25); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var b bytes.Buffer
		if err := WriteChrome(&b, events, 25); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), first.Bytes()) {
			t.Fatalf("call %d serialized differently:\n%s\nfirst:\n%s", i+2, b.Bytes(), first.Bytes())
		}
	}
}
