package exos

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"exokernel/internal/aegis"
	"exokernel/internal/ether"
	"exokernel/internal/fault"
	"exokernel/internal/hw"
	"exokernel/internal/pkt"
	"exokernel/internal/sandbox"
)

var (
	tMacA = pkt.Addr{2, 0, 0, 0, 0, 1}
	tMacB = pkt.Addr{2, 0, 0, 0, 0, 2}
	tIPA  = pkt.IP(10, 1, 0, 1)
	tIPB  = pkt.IP(10, 1, 0, 2)
)

func twoMachines(t *testing.T) (ka, kb *aegis.Kernel, na, nb *Net, sa, sb *UDPSocket) {
	t.Helper()
	seg := ether.NewSegment()
	ma := hw.NewMachine(hw.DEC5000)
	mb := hw.NewMachine(hw.DEC5000)
	ka = aegis.New(ma)
	kb = aegis.New(mb)
	seg.Attach(ma)
	seg.Attach(mb)
	na = NewNet(ka, tMacA, tIPA)
	nb = NewNet(kb, tMacB, tIPB)
	osA, err := Boot(ka)
	if err != nil {
		t.Fatal(err)
	}
	osB, err := Boot(kb)
	if err != nil {
		t.Fatal(err)
	}
	sa, err = na.Bind(osA, 7)
	if err != nil {
		t.Fatal(err)
	}
	sb, err = nb.Bind(osB, 7)
	if err != nil {
		t.Fatal(err)
	}
	return
}

func TestUDPSendReceive(t *testing.T) {
	_, _, _, _, sa, sb := twoMachines(t)
	sa.SendTo(tMacB, tIPB, 7, []byte("ping"))
	data, flow, ok := sb.TryRecv()
	if !ok {
		t.Fatal("no datagram delivered")
	}
	if string(data) != "ping" {
		t.Errorf("payload = %q", data)
	}
	if flow.SrcIP != tIPA || flow.SrcPort != 7 {
		t.Errorf("flow = %+v", flow)
	}
	if sb.Delivered != 1 || sb.Pending() != 0 {
		t.Errorf("delivered=%d pending=%d", sb.Delivered, sb.Pending())
	}
}

func TestUDPWrongPortDropped(t *testing.T) {
	ka, kb, _, _, sa, sb := twoMachines(t)
	sa.SendTo(tMacB, tIPB, 9999, []byte("stray"))
	if sb.Pending() != 0 {
		t.Error("datagram for port 9999 reached port 7 socket")
	}
	if kb.Stats.PktDropped != 1 {
		t.Errorf("receiver dropped = %d", kb.Stats.PktDropped)
	}
	_ = ka
}

func TestUDPEchoASHRoundTrip(t *testing.T) {
	_, kb, _, _, sa, sb := twoMachines(t)
	if err := sb.AttachEchoASH(); err != nil {
		t.Fatal(err)
	}
	sa.SendTo(tMacB, tIPB, 7, []byte("echo-me-please"))
	// The reply was generated in B's interrupt context during delivery —
	// no scheduling of B's application occurred.
	data, flow, ok := sa.TryRecv()
	if !ok {
		t.Fatal("no echo reply")
	}
	if !bytes.Equal(data, []byte("echo-me-please")) {
		t.Errorf("reply payload = %q", data)
	}
	if flow.SrcIP != tIPB || flow.DstIP != tIPA {
		t.Errorf("reply flow = %+v", flow)
	}
	if kb.Stats.ASHRuns != 1 {
		t.Errorf("ASHRuns = %d", kb.Stats.ASHRuns)
	}
	if sb.Delivered != 0 {
		t.Error("application buffer filled despite ASH")
	}
}

func TestEchoASHVerifies(t *testing.T) {
	code := EchoASH()
	res, err := sandbox.Verify(code, sandbox.PolicyASH)
	if err != nil {
		t.Fatalf("echo ASH rejected by the verifier: %v", err)
	}
	if res.MaxSteps != len(code) {
		t.Errorf("bound = %d, want %d", res.MaxSteps, len(code))
	}
}

func TestDemuxCyclesCharged(t *testing.T) {
	ka, _, _, _, sa, sb := twoMachines(t)
	_ = ka
	before := sb.os.K.M.Clock.Cycles()
	sa.SendTo(tMacB, tIPB, 7, []byte("x"))
	if sb.os.K.M.Clock.Cycles() == before {
		t.Error("delivery charged nothing on the receiving machine")
	}
}

func TestRecvBlocksViaYield(t *testing.T) {
	ka, _, _, _, sa, sb := twoMachines(t)
	_ = ka
	sa.SendTo(tMacB, tIPB, 7, []byte("later"))
	data, _ := sb.Recv()
	if string(data) != "later" {
		t.Errorf("Recv = %q", data)
	}
}

func TestMultipleSocketsPerMachine(t *testing.T) {
	seg := ether.NewSegment()
	ma := hw.NewMachine(hw.DEC5000)
	mb := hw.NewMachine(hw.DEC5000)
	ka := aegis.New(ma)
	kb := aegis.New(mb)
	seg.Attach(ma)
	seg.Attach(mb)
	na := NewNet(ka, tMacA, tIPA)
	nb := NewNet(kb, tMacB, tIPB)
	osA, _ := Boot(ka)
	osB1, _ := Boot(kb)
	osB2, _ := Boot(kb)
	sa, _ := na.Bind(osA, 1000)
	s7, err := nb.Bind(osB1, 7)
	if err != nil {
		t.Fatal(err)
	}
	s9, err := nb.Bind(osB2, 9)
	if err != nil {
		t.Fatal(err)
	}
	sa.SendTo(tMacB, tIPB, 9, []byte("to-nine"))
	sa.SendTo(tMacB, tIPB, 7, []byte("to-seven"))
	if d, _, ok := s9.TryRecv(); !ok || string(d) != "to-nine" {
		t.Errorf("socket 9 got %q (%v)", d, ok)
	}
	if d, _, ok := s7.TryRecv(); !ok || string(d) != "to-seven" {
		t.Errorf("socket 7 got %q (%v)", d, ok)
	}
}

func TestUDPSocketClose(t *testing.T) {
	ka, kb, _, _, sa, sb := twoMachines(t)
	_ = ka
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	sa.SendTo(tMacB, tIPB, 7, []byte("into the void"))
	if sb.Pending() != 0 {
		t.Error("closed socket received a datagram")
	}
	if kb.Stats.PktDropped != 1 {
		t.Errorf("receiver dropped = %d, want 1", kb.Stats.PktDropped)
	}
	if err := sb.Close(); err == nil {
		t.Error("double close succeeded")
	}
}

// Steady-state round trips allocate only the payload copy TryRecv hands
// to each receiving application: one on the ASH path (the client's), two
// on the app path (the server's and the client's).
func TestUDPRoundTripAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 18)
	t.Run("echo-ash", func(t *testing.T) {
		_, _, _, _, sa, sb := twoMachines(t)
		if err := sb.AttachEchoASH(); err != nil {
			t.Fatal(err)
		}
		op := func() {
			sa.SendTo(tMacB, tIPB, 7, payload)
			if data, _, ok := sa.TryRecv(); !ok || !bytes.Equal(data, payload) {
				t.Fatalf("echo = %v, %v", data, ok)
			}
		}
		op()
		if n := testing.AllocsPerRun(100, op); n > 1 {
			t.Errorf("echo-ASH round trip allocates %v times, want <= 1", n)
		}
	})
	t.Run("app-echo", func(t *testing.T) {
		_, kb, _, _, sa, sb := twoMachines(t)
		sb.os.Env.NativeRun = func(k *aegis.Kernel) {
			for {
				data, flow, ok := sb.TryRecv()
				if !ok {
					return
				}
				sb.SendTo(tMacA, flow.SrcIP, flow.SrcPort, data)
			}
		}
		op := func() {
			sa.SendTo(tMacB, tIPB, 7, payload)
			for sa.Pending() == 0 {
				if !kb.DispatchNative() {
					t.Fatal("reply lost")
				}
			}
			if data, _, ok := sa.TryRecv(); !ok || !bytes.Equal(data, payload) {
				t.Fatalf("echo = %v, %v", data, ok)
			}
		}
		op()
		if n := testing.AllocsPerRun(100, op); n > 2 {
			t.Errorf("app-echo round trip allocates %v times, want <= 2", n)
		}
	})
}

// peerPayloads drains a bare machine's receive ring and returns the UDP
// payloads of the frames sent from ip, in arrival order.
func peerPayloads(m *hw.Machine, ip uint32) []string {
	var out []string
	for {
		p, ok := m.NIC.Recv()
		if !ok {
			return out
		}
		if f, ok := pkt.ParseFlow(p.Data); ok && f.SrcIP == ip {
			out = append(out, string(pkt.Payload(p.Data)))
		}
		m.NIC.Release(p)
	}
}

// SendTo builds into a scratch frame that the NIC only borrows. A SendTo
// re-entered from inside a delivery (the echo ASH on B replies while A's
// first frame is still on its way to C) must not overwrite the frame
// still in flight.
func TestUDPSendToReentrantFromDelivery(t *testing.T) {
	ka, kb, _, _, sa, sb := twoMachines(t)
	c := hw.NewMachine(hw.DEC5000)
	seg := ether.NewSegment() // attach order A, B, C: B answers before C hears
	seg.Attach(ka.M)
	seg.Attach(kb.M)
	seg.Attach(c)
	if err := sb.AttachEchoASH(); err != nil {
		t.Fatal(err)
	}
	first, second := "first-frame-000000", "second-frame-11111"
	sa.SendTo(tMacB, tIPB, 9, []byte("warm-the-scratch!!")) // nobody listens on 9
	peerPayloads(c, tIPA)
	deliver := sa.EP.Deliver
	resent := false
	sa.EP.Deliver = func(k *aegis.Kernel, frame []byte) {
		deliver(k, frame)
		if !resent {
			resent = true
			sa.SendTo(tMacB, tIPB, 9, []byte(second))
		}
	}
	sa.SendTo(tMacB, tIPB, 7, []byte(first))
	if !resent {
		t.Fatal("the echo never reached A's delivery hook")
	}
	got := peerPayloads(c, tIPA)
	if len(got) != 2 || got[0] != second || got[1] != first {
		t.Errorf("C received %q, want [%q %q]", got, second, first)
	}
}

// scriptedWire replays a fixed verdict per frame; later frames pass
// intact.
type scriptedWire []fault.WireVerdict

func (w *scriptedWire) FrameFate([]byte) fault.WireVerdict {
	if len(*w) == 0 {
		return fault.WireVerdict{CorruptOff: -1}
	}
	v := (*w)[0]
	*w = (*w)[1:]
	return v
}

// A frame the wire holds back, duplicates or corrupts must not alias the
// socket's scratch frame, which the next SendTo rebuilds.
func TestUDPFaultedFramesSurviveNextSend(t *testing.T) {
	ka, _, _, _, sa, _ := twoMachines(t)
	peer := hw.NewMachine(hw.DEC5000)
	seg := ether.NewSegment()
	seg.Attach(ka.M)
	seg.Attach(peer)
	seg.Fault = &scriptedWire{
		{Hold: true, CorruptOff: -1},
		{Dup: true, CorruptOff: -1},
		{Hold: true, CorruptOff: pkt.UDPPayload, CorruptXor: 0x20},
	}
	var sent []string
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("payload-number-%03d", i)
		sent = append(sent, p)
		sa.SendTo(pkt.Addr{}, tIPB, 7, []byte(p))
	}
	seg.Sync()
	got := peerPayloads(peer, tIPA)
	want := []string{sent[1], sent[1], sent[0], "Payload-number-002", sent[3], sent[4]}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("peer received %q, want %q", got, want)
	}
}
