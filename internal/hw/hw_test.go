package hw

import (
	"bytes"
	"testing"
)

func TestClockStopwatch(t *testing.T) {
	var c Clock
	w := c.StartWatch()
	c.Tick(10)
	c.Tick(5)
	if got := w.Elapsed(); got != 15 {
		t.Errorf("Elapsed = %d, want 15", got)
	}
	if c.Cycles() != 15 {
		t.Errorf("Cycles = %d, want 15", c.Cycles())
	}
	c.Reset()
	if c.Cycles() != 0 {
		t.Error("Reset did not zero the clock")
	}
}

func TestConfigMicros(t *testing.T) {
	if got := DEC5000.Micros(25); got != 1.0 {
		t.Errorf("25 cycles at 25 MHz = %v us, want 1", got)
	}
	if got := DEC2100.Micros(25); got != 2.0 {
		t.Errorf("25 cycles at 12.5 MHz = %v us, want 2", got)
	}
	if len(Platforms()) != 3 {
		t.Errorf("Platforms() = %d entries, want 3", len(Platforms()))
	}
}

func TestPhysMemAllocFree(t *testing.T) {
	var c Clock
	m := NewPhysMem(&c, 8, 0)
	if m.FreeFrames() != 8 {
		t.Fatalf("FreeFrames = %d, want 8", m.FreeFrames())
	}
	f, ok := m.AllocFrame()
	if !ok {
		t.Fatal("AllocFrame failed")
	}
	if !m.AllocFrameAt(5) {
		t.Fatal("AllocFrameAt(5) failed")
	}
	if m.AllocFrameAt(5) {
		t.Fatal("AllocFrameAt(5) succeeded twice")
	}
	if m.FreeFrames() != 6 {
		t.Errorf("FreeFrames = %d, want 6", m.FreeFrames())
	}
	m.WriteWord(f*PageSize+4, 0xDEADBEEF)
	if got := m.ReadWord(f*PageSize + 4); got != 0xDEADBEEF {
		t.Errorf("ReadWord = %#x", got)
	}
	if err := m.FreeFrame(f); err != nil {
		t.Fatal(err)
	}
	// Freed frames are zeroed.
	if got := m.ReadWord(f*PageSize + 4); got != 0 {
		t.Errorf("freed frame not zeroed: %#x", got)
	}
	if err := m.FreeFrame(99); err == nil {
		t.Error("FreeFrame(99) should fail")
	}
}

func TestPhysMemExhaustion(t *testing.T) {
	var c Clock
	m := NewPhysMem(&c, 2, 0)
	if _, ok := m.AllocFrame(); !ok {
		t.Fatal("first alloc failed")
	}
	if _, ok := m.AllocFrame(); !ok {
		t.Fatal("second alloc failed")
	}
	if _, ok := m.AllocFrame(); ok {
		t.Fatal("alloc beyond capacity succeeded")
	}
}

func TestPhysMemAccessWidths(t *testing.T) {
	var c Clock
	m := NewPhysMem(&c, 1, 0)
	m.WriteWord(0, 0x04030201)
	if m.LoadByte(0) != 0x01 || m.LoadByte(3) != 0x04 {
		t.Error("little-endian byte order violated")
	}
	m.WriteHalf(4, 0xBEEF)
	if m.ReadHalf(4) != 0xBEEF {
		t.Error("halfword round trip failed")
	}
	m.StoreByte(8, 0x7F)
	if m.LoadByte(8) != 0x7F {
		t.Error("byte round trip failed")
	}
}

func TestPhysMemCharges(t *testing.T) {
	var c Clock
	m := NewPhysMem(&c, 1, 0)
	before := c.Cycles()
	m.ReadWord(0)
	if c.Cycles() != before+CostMemWord {
		t.Errorf("cached read charged %d, want %d", c.Cycles()-before, CostMemWord)
	}
	before = c.Cycles()
	m.ReadWordUncached(0)
	if c.Cycles() != before+CostUncached {
		t.Errorf("uncached read charged %d, want %d", c.Cycles()-before, CostUncached)
	}
	before = c.Cycles()
	m.CopyIn(0, make([]byte, 64))
	if got := c.Cycles() - before; got != 16*CostMemWord {
		t.Errorf("CopyIn(64B) charged %d, want %d", got, 16*CostMemWord)
	}
}

func TestCacheMissModel(t *testing.T) {
	var c Clock
	m := NewPhysMem(&c, 1, 4) // 1 miss per ~4 refs
	before := c.Cycles()
	for i := 0; i < 1000; i++ {
		m.ReadWord(0)
	}
	extra := c.Cycles() - before - 1000*CostMemWord
	misses := extra / CostCacheMiss
	if misses < 100 || misses > 500 {
		t.Errorf("miss model produced %d misses out of 1000 refs, want roughly 250", misses)
	}
}

func TestTLBLookupAndPerms(t *testing.T) {
	var c Clock
	tlb := NewTLB(&c, 4)
	tlb.WriteRandom(TLBEntry{VPN: 7, ASID: 1, PFN: 3, Perms: PermValid})
	if _, ok := tlb.Lookup(7, 1); !ok {
		t.Fatal("lookup missed installed entry")
	}
	if _, ok := tlb.Lookup(7, 2); ok {
		t.Fatal("lookup hit wrong ASID")
	}
	if _, ok := tlb.Lookup(8, 1); ok {
		t.Fatal("lookup hit wrong VPN")
	}
}

func TestTLBOverwriteSameTag(t *testing.T) {
	var c Clock
	tlb := NewTLB(&c, 4)
	tlb.WriteRandom(TLBEntry{VPN: 7, ASID: 1, PFN: 3, Perms: PermValid})
	tlb.WriteRandom(TLBEntry{VPN: 7, ASID: 1, PFN: 9, Perms: PermValid | PermWrite})
	e, ok := tlb.Lookup(7, 1)
	if !ok || e.PFN != 9 || e.Perms&PermWrite == 0 {
		t.Fatalf("stale entry survived: %+v (ok=%v)", e, ok)
	}
	// Exactly one slot holds the tag (duplicates would machine-check).
	live := 0
	for i := 0; i < tlb.Size(); i++ {
		if idx := tlb.Probe(7, 1); idx >= 0 {
			live = 1
			tlb.WriteIndexed(idx, TLBEntry{})
		}
	}
	if live != 1 {
		t.Fatalf("expected exactly one live entry, probe pattern says %d", live)
	}
	if tlb.Probe(7, 1) >= 0 {
		t.Fatal("duplicate entry for the same tag")
	}
}

func TestTLBEvictionAndFlush(t *testing.T) {
	var c Clock
	tlb := NewTLB(&c, 4)
	for i := uint32(0); i < 8; i++ {
		tlb.WriteRandom(TLBEntry{VPN: i, ASID: 1, PFN: i, Perms: PermValid})
	}
	hits := 0
	for i := uint32(0); i < 8; i++ {
		if _, ok := tlb.Lookup(i, 1); ok {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("after 8 inserts into a 4-entry TLB, %d entries live, want 4", hits)
	}
	tlb.FlushFrame(2)
	if _, ok := tlb.Lookup(2, 1); ok {
		t.Error("FlushFrame left the frame mapped")
	}
	tlb.Flush()
	for i := uint32(0); i < 8; i++ {
		if _, ok := tlb.Lookup(i, 1); ok {
			t.Fatal("Flush left entries")
		}
	}
}

func TestTLBInvalidate(t *testing.T) {
	var c Clock
	tlb := NewTLB(&c, 4)
	tlb.WriteRandom(TLBEntry{VPN: 1, ASID: 1, PFN: 1, Perms: PermValid})
	if !tlb.Invalidate(1, 1) {
		t.Fatal("Invalidate missed present entry")
	}
	if tlb.Invalidate(1, 1) {
		t.Fatal("Invalidate hit absent entry")
	}
	tlb.WriteRandom(TLBEntry{VPN: 2, ASID: 3, PFN: 1, Perms: PermValid})
	tlb.InvalidateASID(3)
	if _, ok := tlb.Lookup(2, 3); ok {
		t.Error("InvalidateASID left entry")
	}
}

func TestMachineTranslate(t *testing.T) {
	m := NewMachine(DEC5000)
	m.TLB.WriteRandom(TLBEntry{VPN: 0x10, ASID: 0, PFN: 2, Perms: PermValid})
	if _, exc := m.Translate(0x20<<PageShift, false); exc != ExcTLBMissL {
		t.Errorf("unmapped read exc = %v, want tlbl", exc)
	}
	if _, exc := m.Translate(0x20<<PageShift, true); exc != ExcTLBMissS {
		t.Errorf("unmapped write exc = %v, want tlbs", exc)
	}
	pa, exc := m.Translate(0x10<<PageShift|8, false)
	if exc != ExcNone || pa != 2<<PageShift|8 {
		t.Errorf("Translate = %#x, %v", pa, exc)
	}
	if _, exc := m.Translate(0x10<<PageShift, true); exc != ExcTLBMod {
		t.Errorf("read-only write exc = %v, want mod", exc)
	}
}

func TestMachineKernelOnlyPages(t *testing.T) {
	m := NewMachine(DEC5000)
	m.TLB.WriteRandom(TLBEntry{VPN: 1, ASID: 0, PFN: 1, Perms: PermValid | PermKernel})
	m.CPU.Mode = ModeUser
	if _, exc := m.Translate(1<<PageShift, false); exc == ExcNone {
		t.Error("user access to kernel page succeeded")
	}
	m.CPU.Mode = ModeKernel
	if _, exc := m.Translate(1<<PageShift, false); exc != ExcNone {
		t.Error("kernel access to kernel page failed")
	}
}

type recordingHandler struct {
	causes []Exc
}

func (h *recordingHandler) HandleTrap(m *Machine) {
	h.causes = append(h.causes, m.CPU.Cause)
}

func TestRaiseExceptionChargesAndDispatches(t *testing.T) {
	m := NewMachine(DEC5000)
	h := &recordingHandler{}
	m.SetTrapHandler(h)
	before := m.Clock.Cycles()
	m.RaiseException(ExcSyscall, 42, 0)
	if len(h.causes) != 1 || h.causes[0] != ExcSyscall {
		t.Fatalf("handler saw %v", h.causes)
	}
	if m.CPU.EPC != 42 {
		t.Errorf("EPC = %d, want 42", m.CPU.EPC)
	}
	if m.CPU.Mode != ModeKernel {
		t.Error("exception did not enter kernel mode")
	}
	if m.Clock.Cycles() != before+CostExcEntry {
		t.Errorf("exception charged %d", m.Clock.Cycles()-before)
	}
}

func TestTimer(t *testing.T) {
	m := NewMachine(DEC5000)
	m.Timer.Arm(100)
	if m.Timer.Check() {
		t.Fatal("timer fired immediately")
	}
	m.Clock.Tick(101)
	if !m.Timer.Check() {
		t.Fatal("timer did not fire after deadline")
	}
	if m.CPU.Pending&IRQTimer == 0 {
		t.Fatal("IRQTimer not asserted")
	}
	m.CPU.Pending = 0
	m.Timer.Disarm()
	m.Clock.Tick(1000)
	if m.Timer.Check() {
		t.Fatal("disarmed timer fired")
	}
	if m.Timer.Interval() != 0 {
		t.Error("disarmed Interval != 0")
	}
}

func TestNICDeliverRecvAndDrop(t *testing.T) {
	m := NewMachine(DEC5000)
	for i := 0; i < 70; i++ {
		m.NIC.Deliver(Packet{Data: []byte{byte(i)}})
	}
	if m.NIC.RxDropped != 6 {
		t.Errorf("RxDropped = %d, want 6 (ring depth 64)", m.NIC.RxDropped)
	}
	if m.CPU.Pending&IRQNIC == 0 {
		t.Fatal("IRQNIC not asserted")
	}
	n := 0
	for {
		if _, ok := m.NIC.Recv(); !ok {
			break
		}
		n++
	}
	if n != 64 {
		t.Errorf("received %d packets, want 64", n)
	}
	if m.CPU.Pending&IRQNIC != 0 {
		t.Error("IRQNIC still pending after drain")
	}
}

// Deliver copies its input, a received frame stays the receiver's until
// Release, and a released buffer is the one the next delivery reuses.
func TestNICReceiveBufferOwnership(t *testing.T) {
	m := NewMachine(DEC5000)
	src := []byte{1, 2, 3}
	m.NIC.Deliver(Packet{Data: src})
	src[0] = 9
	p, _ := m.NIC.Recv()
	if p.Data[0] != 1 {
		t.Fatal("Deliver kept the sender's buffer instead of copying it")
	}
	m.NIC.Release(p)
	m.NIC.Deliver(Packet{Data: []byte{4, 5}})
	q, _ := m.NIC.Recv()
	if &q.Data[0] != &p.Data[0] || !bytes.Equal(q.Data, []byte{4, 5}) {
		t.Fatalf("released buffer not reused: got %v", q.Data)
	}
	m.NIC.Deliver(Packet{Data: []byte{6}})
	r, _ := m.NIC.Recv()
	if &r.Data[0] == &q.Data[0] || q.Data[0] != 4 {
		t.Fatal("a buffer still held by the receiver was handed out again")
	}
}

// Once warm, the receive path allocates nothing.
func TestNICReceiveSteadyStateAllocs(t *testing.T) {
	m := NewMachine(DEC5000)
	frame := make([]byte, 84)
	cycle := func() {
		m.NIC.Deliver(Packet{Data: frame})
		m.NIC.Deliver(Packet{Data: frame})
		for {
			p, ok := m.NIC.Recv()
			if !ok {
				break
			}
			m.NIC.Release(p)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Deliver/Recv/Release allocates %v times per cycle", n)
	}
}

func TestNICImmediateInterrupt(t *testing.T) {
	m := NewMachine(DEC5000)
	h := &recordingHandler{}
	m.SetTrapHandler(h)
	m.NIC.Deliver(Packet{Data: []byte{1}})
	if len(h.causes) != 1 || h.causes[0] != ExcInterrupt {
		t.Fatalf("immediate interrupt not raised: %v", h.causes)
	}
	// With interrupts masked, delivery only sets the pending bit.
	m.CPU.IntrOn = false
	m.NIC.Deliver(Packet{Data: []byte{2}})
	if len(h.causes) != 1 {
		t.Fatal("interrupt raised while masked")
	}
	if m.CPU.Pending&IRQNIC == 0 {
		t.Fatal("pending bit lost while masked")
	}
}

func TestNICSendChargesAndForwards(t *testing.T) {
	m := NewMachine(DEC5000)
	var sent []Packet
	// Send borrows the frame only for the call: keep a copy.
	m.NIC.ConnectTx(func(p Packet) { sent = append(sent, Packet{Data: bytes.Clone(p.Data)}) })
	before := m.Clock.Cycles()
	m.NIC.Send(Packet{Data: make([]byte, 60)})
	if len(sent) != 1 {
		t.Fatal("packet not transmitted")
	}
	if got := m.Clock.Cycles() - before; got != 15*CostMemWord {
		t.Errorf("Send charged %d, want %d", got, 15*CostMemWord)
	}
}

func TestFrameBufferOwnership(t *testing.T) {
	fb := NewFrameBuffer(4)
	if err := fb.SetOwner(1, 42); err != nil {
		t.Fatal(err)
	}
	if err := fb.Write(42, 1, 0, []byte{1, 2, 3}); err != nil {
		t.Fatalf("owner write rejected: %v", err)
	}
	if err := fb.Write(7, 1, 0, []byte{9}); err == nil {
		t.Fatal("non-owner write accepted")
	}
	buf := make([]byte, 3)
	if err := fb.Read(42, 1, 0, buf); err != nil || buf[1] != 2 {
		t.Fatalf("owner read failed: %v %v", err, buf)
	}
	if err := fb.Read(7, 1, 0, buf); err == nil {
		t.Fatal("non-owner read accepted")
	}
	if err := fb.SetOwner(99, 1); err == nil {
		t.Fatal("out-of-range row accepted")
	}
}
