package pkt

import (
	"bytes"
	"testing"
	"testing/quick"
)

func sampleFlow() Flow {
	return Flow{Proto: ProtoUDP, SrcIP: IP(10, 0, 0, 1), DstIP: IP(10, 0, 0, 2), SrcPort: 1234, DstPort: 80}
}

func TestBuildParseRoundTrip(t *testing.T) {
	f := sampleFlow()
	payload := []byte("hello exokernel")
	frame := Build(Addr{1}, Addr{2}, f, payload)
	got, ok := ParseFlow(frame)
	if !ok {
		t.Fatal("ParseFlow failed")
	}
	if got != f {
		t.Errorf("flow = %+v, want %+v", got, f)
	}
	if !bytes.Equal(Payload(frame), payload) {
		t.Errorf("payload = %q", Payload(frame))
	}
	if len(frame) != EtherLen+IPLen+UDPLen+len(payload)+TraceOptLen {
		t.Errorf("frame length = %d", len(frame))
	}
}

func TestBuildTCP(t *testing.T) {
	f := sampleFlow()
	f.Proto = ProtoTCP
	frame := Build(Addr{1}, Addr{2}, f, []byte("x"))
	if len(frame) != EtherLen+IPLen+TCPLen+1+TraceOptLen {
		t.Errorf("tcp frame length = %d", len(frame))
	}
	got, ok := ParseFlow(frame)
	if !ok || got.Proto != ProtoTCP || got.DstPort != 80 {
		t.Errorf("tcp parse = %+v, %v", got, ok)
	}
	if string(Payload(frame)) != "x" {
		t.Errorf("tcp payload = %q", Payload(frame))
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, ok := ParseFlow(nil); ok {
		t.Error("nil frame parsed")
	}
	if _, ok := ParseFlow(make([]byte, 10)); ok {
		t.Error("short frame parsed")
	}
	// Non-IP ethertype.
	frame := Build(Addr{}, Addr{}, sampleFlow(), nil)
	frame[EtherType] = 0x08
	frame[EtherType+1] = 0x06 // ARP
	if _, ok := ParseFlow(frame); ok {
		t.Error("ARP frame parsed as IP flow")
	}
	// Unknown IP protocol.
	frame = Build(Addr{}, Addr{}, sampleFlow(), nil)
	frame[IPProto] = 99
	if _, ok := ParseFlow(frame); ok {
		t.Error("unknown protocol parsed")
	}
}

func TestReplySwapsDirection(t *testing.T) {
	f := sampleFlow()
	r := f.Reply()
	if r.SrcIP != f.DstIP || r.DstIP != f.SrcIP || r.SrcPort != f.DstPort || r.DstPort != f.SrcPort {
		t.Errorf("Reply = %+v", r)
	}
	if r.Reply() != f {
		t.Error("double Reply is not identity")
	}
}

func TestIPComposition(t *testing.T) {
	if IP(1, 2, 3, 4) != 0x01020304 {
		t.Errorf("IP = %#x", IP(1, 2, 3, 4))
	}
}

func TestChecksumPopulated(t *testing.T) {
	frame := Build(Addr{}, Addr{}, sampleFlow(), nil)
	if frame[EtherLen+10] == 0 && frame[EtherLen+11] == 0 {
		t.Error("IP checksum not populated")
	}
}

// Property: any flow round-trips through Build/ParseFlow, and payloads are
// preserved byte-for-byte.
func TestQuickRoundTrip(t *testing.T) {
	f := func(srcIP, dstIP uint32, srcP, dstP uint16, tcp bool, payload []byte) bool {
		fl := Flow{Proto: ProtoUDP, SrcIP: srcIP, DstIP: dstIP, SrcPort: srcP, DstPort: dstP}
		if tcp {
			fl.Proto = ProtoTCP
		}
		frame := Build(Addr{9}, Addr{8}, fl, payload)
		got, ok := ParseFlow(frame)
		return ok && got == fl && bytes.Equal(Payload(frame), payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: building into a dirty reused buffer yields exactly the bytes
// Build produces, and reuses the buffer when it is large enough.
func TestQuickBuildIntoMatchesBuild(t *testing.T) {
	f := func(srcP, dstP uint16, tcp bool, payload, junk []byte) bool {
		fl := sampleFlow()
		fl.SrcPort, fl.DstPort = srcP, dstP
		if tcp {
			fl.Proto = ProtoTCP
		}
		want := Build(Addr{9}, Addr{8}, fl, payload)
		buf := bytes.Repeat([]byte{0xA5}, len(junk)+len(want))
		got := BuildInto(buf[:len(junk)], Addr{9}, Addr{8}, fl, payload)
		return bytes.Equal(got, want) && &got[0] == &buf[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildIntoSmallBufferAllocates(t *testing.T) {
	small := make([]byte, 4)
	frame := BuildInto(small, Addr{1}, Addr{2}, sampleFlow(), []byte("payload"))
	if !bytes.Equal(frame, Build(Addr{1}, Addr{2}, sampleFlow(), []byte("payload"))) {
		t.Fatal("frame differs from Build")
	}
	if &frame[0] == &small[0] {
		t.Fatal("frame overran a too-small buffer")
	}
}
