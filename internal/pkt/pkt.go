// Package pkt builds and parses the simulated network's frame formats:
// Ethernet II, a minimal IPv4 header (no options), and UDP/TCP headers.
// The kernel never looks inside frames — only packet filters and library
// operating systems do — so this package is shared by the filter engines,
// the ExOS protocol stack, and the benchmarks.
package pkt

import "encoding/binary"

// Header sizes and offsets (bytes).
const (
	EtherLen   = 14
	IPLen      = 20
	UDPLen     = 8
	TCPLen     = 20
	EtherType  = 12 // offset of the EtherType field
	TypeIP     = 0x0800
	TypeARP    = 0x0806
	ProtoTCP   = 6
	ProtoUDP   = 17
	IPProto    = EtherLen + 9  // offset of the IP protocol byte
	IPSrc      = EtherLen + 12 // offset of the source address
	IPDst      = EtherLen + 16
	L4SrcPort  = EtherLen + IPLen
	L4DstPort  = EtherLen + IPLen + 2
	UDPPayload = EtherLen + IPLen + UDPLen
)

// Addr is a 6-byte link-layer address.
type Addr [6]byte

// Flow names one UDP/TCP flow endpoint pair.
type Flow struct {
	Proto            byte // ProtoUDP or ProtoTCP
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
}

// Build composes a frame for the flow carrying payload. dst/src are the
// link-layer addresses. Every frame ends with a zeroed trace-context
// trailer (TraceOptLen bytes past the IP datagram; see traceopt.go) so
// frame length never depends on whether a trace is active.
func Build(dst, src Addr, f Flow, payload []byte) []byte {
	return BuildInto(nil, dst, src, f, payload)
}

// BuildInto is Build composing the frame in buf's backing array when it
// has the capacity, allocating a new one otherwise; it returns the frame.
// Every byte of the frame is written, so buf's old contents never leak.
// A sender that reuses one buffer for every frame must keep it until the
// send returns: hw.NIC.Send borrows the frame only for the call.
func BuildInto(buf []byte, dst, src Addr, f Flow, payload []byte) []byte {
	hlen := EtherLen + IPLen + UDPLen
	if f.Proto == ProtoTCP {
		hlen = EtherLen + IPLen + TCPLen
	}
	n := hlen + len(payload) + TraceOptLen
	var b []byte
	if cap(buf) >= n {
		b = buf[:n]
		clear(b)
	} else {
		b = make([]byte, n)
	}
	copy(b[0:6], dst[:])
	copy(b[6:12], src[:])
	binary.BigEndian.PutUint16(b[EtherType:], TypeIP)

	ip := b[EtherLen:]
	ip[0] = 0x45 // v4, 5-word header
	binary.BigEndian.PutUint16(ip[2:], uint16(hlen-EtherLen+len(payload)))
	ip[8] = 64 // TTL
	ip[9] = f.Proto
	binary.BigEndian.PutUint32(ip[12:], f.SrcIP)
	binary.BigEndian.PutUint32(ip[16:], f.DstIP)
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip[:IPLen]))

	l4 := b[EtherLen+IPLen:]
	binary.BigEndian.PutUint16(l4[0:], f.SrcPort)
	binary.BigEndian.PutUint16(l4[2:], f.DstPort)
	if f.Proto == ProtoUDP {
		binary.BigEndian.PutUint16(l4[4:], uint16(UDPLen+len(payload)))
		copy(l4[UDPLen:], payload)
	} else {
		l4[12] = 5 << 4 // data offset
		copy(l4[TCPLen:], payload)
	}
	return b
}

// Payload returns the transport payload of a frame built by Build. The
// payload ends where the IP datagram does — the trace-context trailer
// (and anything else past the datagram) is not payload.
func Payload(frame []byte) []byte {
	if len(frame) < EtherLen+IPLen {
		return nil
	}
	off := EtherLen + IPLen + UDPLen
	if frame[IPProto] == ProtoTCP {
		off = EtherLen + IPLen + TCPLen
	}
	end := EtherLen + int(binary.BigEndian.Uint16(frame[EtherLen+2:]))
	if end > len(frame) {
		end = len(frame)
	}
	if end < off {
		return nil
	}
	return frame[off:end]
}

// ParseFlow extracts the flow identifiers of a frame (zero Flow if the
// frame is not IP/UDP/TCP).
func ParseFlow(frame []byte) (Flow, bool) {
	if len(frame) < EtherLen+IPLen || binary.BigEndian.Uint16(frame[EtherType:]) != TypeIP {
		return Flow{}, false
	}
	f := Flow{
		Proto: frame[IPProto],
		SrcIP: binary.BigEndian.Uint32(frame[IPSrc:]),
		DstIP: binary.BigEndian.Uint32(frame[IPDst:]),
	}
	if f.Proto != ProtoUDP && f.Proto != ProtoTCP {
		return Flow{}, false
	}
	min := EtherLen + IPLen + UDPLen
	if f.Proto == ProtoTCP {
		min = EtherLen + IPLen + TCPLen
	}
	if len(frame) < min {
		return Flow{}, false
	}
	f.SrcPort = binary.BigEndian.Uint16(frame[L4SrcPort:])
	f.DstPort = binary.BigEndian.Uint16(frame[L4DstPort:])
	return f, true
}

// Reply swaps the direction of a flow.
func (f Flow) Reply() Flow {
	return Flow{Proto: f.Proto, SrcIP: f.DstIP, DstIP: f.SrcIP, SrcPort: f.DstPort, DstPort: f.SrcPort}
}

// IP composes a dotted-quad address.
func IP(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

func ipChecksum(h []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(h); i += 2 {
		if i == 10 {
			continue
		}
		sum += uint32(binary.BigEndian.Uint16(h[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}
