// Package ether simulates an Ethernet segment connecting machines. Each
// machine keeps its own cycle clock; the segment imposes a wire latency
// and keeps clocks causally consistent: a frame sent at sender-time t
// arrives at receiver-time max(receiver clock, t + wire latency), and the
// receiver's clock is advanced to the arrival time. Round-trip
// measurements on the initiating machine therefore include the remote
// processing time, as they would on real hardware.
package ether

import (
	"exokernel/internal/fault"
	"exokernel/internal/hw"
)

// DefaultWireCycles is the one-way frame latency in cycles at 25 MHz:
// ~126 µs, calibrated so that the paper's "lower bound for cross-machine
// communication on Ethernet" (253 µs round trip for 60-byte frames,
// measured on DECstations [49]) is reproduced by two bare traversals.
const DefaultWireCycles = 3160

// WireFault decides, per broadcast frame, whether the wire misbehaves:
// loss, duplication, a flipped byte, or a bounded hold-back (reorder).
// nil means a perfect wire — the default.
type WireFault interface {
	FrameFate(frame []byte) fault.WireVerdict
}

// DefaultHoldSpan is how many later frames may overtake a held frame
// before the segment releases it (bounded reorder, not starvation).
const DefaultHoldSpan = 2

// heldFrame is a frame under an injected hold: it keeps its original
// causal arrival time but is delivered after up to HoldSpan later frames.
type heldFrame struct {
	from    *hw.Machine
	data    []byte
	arrival uint64
	age     int
}

// Segment is one shared wire.
type Segment struct {
	WireCycles uint64
	machines   []*hw.Machine
	// Frames counts deliveries (diagnostics).
	Frames uint64
	// Drop, when set, is consulted per frame: returning true discards it
	// (loss injection for protocol testing).
	Drop func(from *hw.Machine, frame []byte) bool
	// Dropped counts frames discarded by Drop or by injected loss.
	Dropped uint64

	// Fault, when non-nil, is the seeded fault layer (internal/fault).
	Fault WireFault
	// HoldSpan bounds reorder depth (0 means DefaultHoldSpan).
	HoldSpan int
	held     []heldFrame
	// Fault-injection stats; all zero with Fault nil.
	Corrupted, Duplicated, Reordered uint64
}

// NewSegment creates a segment with the default wire latency.
func NewSegment() *Segment { return &Segment{WireCycles: DefaultWireCycles} }

// Attach connects a machine's NIC to the wire.
func (s *Segment) Attach(m *hw.Machine) {
	s.machines = append(s.machines, m)
	m.NIC.ConnectTx(func(p hw.Packet) { s.broadcast(m, p) })
}

// broadcast delivers a frame to every other machine on the segment,
// advancing receiver clocks to the causal arrival time. With a fault
// layer attached the frame may instead be dropped, duplicated, held back
// behind later frames, or delivered with one byte flipped. p is only
// borrowed for the call (hw.NIC.Send), so a frame that is corrupted or
// held is copied first.
func (s *Segment) broadcast(from *hw.Machine, p hw.Packet) {
	if s.Drop != nil && s.Drop(from, p.Data) {
		s.Dropped++
		return
	}
	if s.Fault == nil {
		s.deliver(from, p.Data, from.Clock.Cycles()+s.WireCycles)
		return
	}
	v := s.Fault.FrameFate(p.Data)
	if v.Drop {
		s.Dropped++
		s.releaseHeld(false)
		return
	}
	data := p.Data
	if v.CorruptOff >= 0 && len(data) > 0 {
		buf := make([]byte, len(data))
		copy(buf, data)
		buf[v.CorruptOff%len(buf)] ^= v.CorruptXor
		data = buf
		s.Corrupted++
	}
	arrival := from.Clock.Cycles() + s.WireCycles
	if v.Hold {
		buf := make([]byte, len(data))
		copy(buf, data)
		s.held = append(s.held, heldFrame{from: from, data: buf, arrival: arrival})
		s.Reordered++
		return
	}
	s.deliver(from, data, arrival)
	if v.Dup {
		s.Duplicated++
		s.deliver(from, data, arrival)
	}
	s.releaseHeld(false)
}

// releaseHeld ages held frames by one delivery slot and delivers those
// whose hold has expired (or all of them, on a flush). It detaches the
// queue before iterating: a delivery can re-enter broadcast (an ASH
// transmitting from interrupt context), which may append fresh holds.
func (s *Segment) releaseHeld(flush bool) {
	span := s.HoldSpan
	if span == 0 {
		span = DefaultHoldSpan
	}
	pending := s.held
	s.held = nil
	for i := range pending {
		h := pending[i]
		h.age++
		if flush || h.age > span {
			s.deliver(h.from, h.data, h.arrival)
		} else {
			s.held = append(s.held, h)
		}
	}
}

// deliver hands one frame to every machine except the sender. Each NIC
// copies the frame into its own receive ring, so data stays the sender's.
func (s *Segment) deliver(from *hw.Machine, data []byte, arrival uint64) {
	for _, m := range s.machines {
		if m == from {
			continue
		}
		if m.Clock.Cycles() < arrival {
			m.Clock.Tick(arrival - m.Clock.Cycles())
		}
		m.NIC.Deliver(hw.Packet{Data: data})
		s.Frames++
	}
}

// Sync flushes any held frames and advances every attached clock to the
// maximum across the segment — used by experiment drivers between phases
// so no machine lags behind (and no frame is held back forever).
func (s *Segment) Sync() {
	// Flushing can trigger replies that are themselves held; drain a
	// bounded number of rounds (leftovers go out on the next Sync).
	for i := 0; i < 64 && len(s.held) > 0; i++ {
		s.releaseHeld(true)
	}
	var max uint64
	for _, m := range s.machines {
		if c := m.Clock.Cycles(); c > max {
			max = c
		}
	}
	for _, m := range s.machines {
		if c := m.Clock.Cycles(); c < max {
			m.Clock.Tick(max - c)
		}
	}
}
