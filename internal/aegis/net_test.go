package aegis

import (
	"bytes"
	"testing"

	"exokernel/internal/asm"
	"exokernel/internal/cap"
	"exokernel/internal/ether"
	"exokernel/internal/hw"
	"exokernel/internal/isa"
)

// byteFilter accepts frames whose first byte matches.
type byteFilter byte

func (f byteFilter) Match(frame []byte) (bool, uint64) {
	return len(frame) > 0 && frame[0] == byte(f), 2
}

func TestFilterDemuxAndQueue(t *testing.T) {
	m, k := boot(t)
	a, _ := k.NewEnv(nil)
	b, _ := k.NewEnv(nil)
	epA, err := k.InstallFilter(a, byteFilter(1))
	if err != nil {
		t.Fatal(err)
	}
	epB, err := k.InstallFilter(b, byteFilter(2))
	if err != nil {
		t.Fatal(err)
	}
	m.NIC.Deliver(hw.Packet{Data: []byte{1, 10}})
	m.NIC.Deliver(hw.Packet{Data: []byte{2, 20}})
	m.NIC.Deliver(hw.Packet{Data: []byte{9, 90}}) // matches nobody
	if len(epA.Queue) != 1 || epA.Queue[0][1] != 10 {
		t.Errorf("epA queue = %v", epA.Queue)
	}
	if len(epB.Queue) != 1 || epB.Queue[0][1] != 20 {
		t.Errorf("epB queue = %v", epB.Queue)
	}
	if k.Stats.PktDropped != 1 {
		t.Errorf("dropped = %d", k.Stats.PktDropped)
	}
	if epA.Delivered != 1 || epB.Delivered != 1 {
		t.Error("delivery counters wrong")
	}
}

func TestDeliverHook(t *testing.T) {
	m, k := boot(t)
	a, _ := k.NewEnv(nil)
	ep, _ := k.InstallFilter(a, byteFilter(5))
	var got []byte
	ep.Deliver = func(k *Kernel, frame []byte) { got = append([]byte(nil), frame...) }
	m.NIC.Deliver(hw.Packet{Data: []byte{5, 55}})
	if len(got) != 2 || got[1] != 55 {
		t.Errorf("deliver hook got %v", got)
	}
	if len(ep.Queue) != 0 {
		t.Error("frame queued despite hook")
	}
}

func TestSharedDemuxOverridesLinearWalk(t *testing.T) {
	m, k := boot(t)
	a, _ := k.NewEnv(nil)
	epWrong, _ := k.InstallFilter(a, byteFilter(1))
	epRight, _ := k.InstallFilter(a, byteFilter(1)) // same predicate, later in line
	k.SetDemux(func(frame []byte) (*Endpoint, uint64, bool) {
		return epRight, 3, true
	})
	m.NIC.Deliver(hw.Packet{Data: []byte{1}})
	if epRight.Delivered != 1 || epWrong.Delivered != 0 {
		t.Error("shared demux not consulted")
	}
	k.SetDemux(nil)
	m.NIC.Deliver(hw.Packet{Data: []byte{1}})
	if epWrong.Delivered != 1 {
		t.Error("linear walk not restored")
	}
}

func TestRemoveEndpoint(t *testing.T) {
	m, k := boot(t)
	a, _ := k.NewEnv(nil)
	ep, _ := k.InstallFilter(a, byteFilter(1))
	k.RemoveEndpoint(ep)
	m.NIC.Deliver(hw.Packet{Data: []byte{1}})
	if ep.Delivered != 0 {
		t.Error("removed endpoint still receives")
	}
	if k.Stats.PktDropped != 1 {
		t.Error("frame not dropped after removal")
	}
}

func TestInstallFilterRejectsDeadEnv(t *testing.T) {
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	k.NewEnv(nil)
	k.Kill(a, TrapInfo{})
	if _, err := k.InstallFilter(a, byteFilter(1)); err == nil {
		t.Error("filter installed for dead env")
	}
}

func TestASHInstallVerification(t *testing.T) {
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	ep, _ := k.InstallFilter(a, byteFilter(1))
	frame, guard, _ := k.AllocPage(a, AnyFrame)

	// Looping code is rejected at download time.
	loop := asm.MustAssemble("loop:\n j loop\n")
	if _, err := k.InstallASH(ep, loop, frame, guard); err == nil {
		t.Error("looping ASH accepted")
	}
	// Privileged code is rejected.
	priv := isa.Code{{Op: isa.TLBWR}, {Op: isa.HALT}}
	if _, err := k.InstallASH(ep, priv, frame, guard); err == nil {
		t.Error("privileged ASH accepted")
	}
	// A forged sandbox capability is rejected.
	ok := asm.MustAssemble("pktlen t0\nhalt\n")
	forged := cap.Capability{Resource: guard.Resource, Rights: cap.Write}
	if _, err := k.InstallASH(ep, ok, frame, forged); err == nil {
		t.Error("forged sandbox capability accepted")
	}
	// Unallocated sandbox frame is rejected.
	if _, err := k.InstallASH(ep, ok, 9999, guard); err == nil {
		t.Error("bad sandbox frame accepted")
	}
	// And the good case.
	ash, err := k.InstallASH(ep, ok, frame, guard)
	if err != nil {
		t.Fatal(err)
	}
	if ash.Budget != 2 {
		t.Errorf("budget = %d", ash.Budget)
	}
}

func TestASHRunsInInterruptContextAndReplies(t *testing.T) {
	m, k := boot(t)
	a, _ := k.NewEnv(nil)
	ep, _ := k.InstallFilter(a, byteFilter(7))
	frame, guard, _ := k.AllocPage(a, AnyFrame)
	// Echo ASH: copy first word, transmit 4 bytes.
	code := asm.MustAssemble(`
		pktlw t0, 0(zero)
		sw    t0, 0(zero)
		addiu t1, zero, 4
		xmit  zero, t1
		halt
	`)
	if _, err := k.InstallASH(ep, code, frame, guard); err != nil {
		t.Fatal(err)
	}
	var sent []hw.Packet
	// Send borrows the frame only for the call: keep a copy.
	m.NIC.ConnectTx(func(p hw.Packet) { sent = append(sent, hw.Packet{Data: bytes.Clone(p.Data)}) })

	// Preserve the interrupted computation's registers.
	m.CPU.SetReg(hw.RegT0, 0xAAAA)
	pcBefore := m.CPU.PC
	m.NIC.Deliver(hw.Packet{Data: []byte{7, 1, 2, 3}})

	if len(sent) != 1 {
		t.Fatalf("ASH sent %d frames", len(sent))
	}
	if sent[0].Data[0] != 7 || sent[0].Data[3] != 3 {
		t.Errorf("echo payload = %v", sent[0].Data)
	}
	if m.CPU.Reg(hw.RegT0) != 0xAAAA || m.CPU.PC != pcBefore {
		t.Error("ASH execution clobbered the interrupted context")
	}
	if k.Stats.ASHRuns != 1 {
		t.Errorf("ASHRuns = %d", k.Stats.ASHRuns)
	}
	// The sandbox page belongs to the application: the ASH's store is
	// visible there (direct, dynamic message vectoring).
	if got := m.Phys.ReadWord(frame << hw.PageShift); got != 0x03020107 {
		t.Errorf("sandbox word = %#x", got)
	}
}

// XMIT hands Xmit a scratch buffer that the next XMIT overwrites; every
// receiver must still see the bytes of its own frame.
func TestASHXmitTwiceEachFrameIntact(t *testing.T) {
	m, k := boot(t)
	peer := hw.NewMachine(hw.DEC5000)
	seg := ether.NewSegment()
	seg.Attach(m)
	seg.Attach(peer)
	a, _ := k.NewEnv(nil)
	ep, _ := k.InstallFilter(a, byteFilter(7))
	frame, guard, _ := k.AllocPage(a, AnyFrame)
	code := asm.MustAssemble(`
		addiu t1, zero, 4
		pktlw t0, 0(zero)
		sw    t0, 0(zero)
		xmit  zero, t1
		pktlw t0, 4(zero)
		sw    t0, 0(zero)
		xmit  zero, t1
		halt
	`)
	if _, err := k.InstallASH(ep, code, frame, guard); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ { // the second run reuses the handler's interpreter
		m.NIC.Deliver(hw.Packet{Data: []byte{7, 1, 2, 3, 4, 5, 6, byte(run)}})
		for i, want := range [][]byte{{7, 1, 2, 3}, {4, 5, 6, byte(run)}} {
			p, ok := peer.NIC.Recv()
			if !ok || !bytes.Equal(p.Data, want) {
				t.Fatalf("run %d frame %d = %v, want %v", run, i, p.Data, want)
			}
		}
	}
	if k.Stats.ASHRuns != 2 {
		t.Errorf("ASHRuns = %d", k.Stats.ASHRuns)
	}
}

// Interrupt entry leaves interrupts enabled, so a frame arriving while a
// delivery hook runs is serviced by a nested serviceNIC. The nested
// delivery must never be handed the receive buffer the outer one still
// reads.
func TestNestedServiceNICKeepsOuterFrame(t *testing.T) {
	m, k := boot(t)
	a, _ := k.NewEnv(nil)
	ep, _ := k.InstallFilter(a, byteFilter(5))
	// Warm the NIC's free list with released buffers.
	m.NIC.Deliver(hw.Packet{Data: []byte{9, 0, 0, 0}})
	m.NIC.Deliver(hw.Packet{Data: []byte{9, 0, 0, 0}})
	var inner []byte
	nested := false
	ep.Deliver = func(k *Kernel, frame []byte) {
		if nested {
			inner = bytes.Clone(frame)
			return
		}
		nested = true
		want := bytes.Clone(frame)
		m.NIC.Deliver(hw.Packet{Data: []byte{5, 0xBB, 0xBB, 0xBB}})
		if inner == nil {
			t.Fatal("no nested delivery: interrupts were masked")
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("outer frame overwritten by nested delivery: %v, want %v", frame, want)
		}
	}
	m.NIC.Deliver(hw.Packet{Data: []byte{5, 1, 2, 3}})
	if !bytes.Equal(inner, []byte{5, 0xBB, 0xBB, 0xBB}) {
		t.Errorf("nested frame = %v", inner)
	}
}

func TestRevocationVisiblePhase(t *testing.T) {
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	frame, guard, _ := k.AllocPage(a, AnyFrame)
	released := false
	a.NativeRevoke = func(k *Kernel, f uint32) bool {
		released = true
		return k.DeallocPage(f, guard) == nil
	}
	out, err := k.RevokePage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out != RevokeComplied || !released {
		t.Errorf("outcome = %v, released = %v", out, released)
	}
	if len(a.Repossessed) != 0 {
		t.Error("compliant revocation filled the repossession vector")
	}
	if k.Stats.Aborts != 0 {
		t.Error("abort counted despite compliance")
	}
}

func TestRevocationAbortProtocol(t *testing.T) {
	m, k := boot(t)
	a, _ := k.NewEnv(nil)
	frame, guard, _ := k.AllocPage(a, AnyFrame)
	const va = 0x5000_0000
	if err := k.InstallMapping(a, va, frame, hw.PermWrite, guard); err != nil {
		t.Fatal(err)
	}
	// The library OS refuses to cooperate.
	a.NativeRevoke = func(k *Kernel, f uint32) bool { return false }
	out, err := k.RevokePage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out != RevokeAborted {
		t.Errorf("outcome = %v", out)
	}
	if len(a.Repossessed) != 1 || a.Repossessed[0] != frame {
		t.Errorf("repossession vector = %v", a.Repossessed)
	}
	// All secure bindings are broken: the old mapping is gone.
	m.CPU.ASID = a.ASID
	if _, exc := m.Translate(va, false); exc == hw.ExcNone {
		t.Error("abort left a live translation")
	}
	// The frame is reusable.
	if f2, _, err := k.AllocPage(a, frame); err != nil || f2 != frame {
		t.Errorf("frame not reusable after abort: %v", err)
	}
	if out, _ := k.RevokePage(9999); out != RevokeNoOwner {
		t.Error("revoking unallocated frame misreported")
	}
}

func TestRevocationWithoutHandlerAborts(t *testing.T) {
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	frame, _, _ := k.AllocPage(a, AnyFrame)
	out, err := k.RevokePage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out != RevokeAborted {
		t.Errorf("outcome = %v", out)
	}
	if len(a.Repossessed) != 1 {
		t.Error("loss not recorded")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []RevokeOutcome{RevokeComplied, RevokeAborted, RevokeNoOwner} {
		if o.String() == "revoke?" {
			t.Errorf("outcome %d unnamed", o)
		}
	}
}
