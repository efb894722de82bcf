package hw

import (
	"bytes"
	"errors"
	"testing"
)

func writeBlockBytes(t *testing.T, m *Machine, b uint32, frame uint32, data []byte) {
	t.Helper()
	page := m.Phys.Page(frame)
	clear(page)
	copy(page, data)
	if err := m.Disk.WriteBlock(b, m.Phys, frame); err != nil {
		t.Fatal(err)
	}
}

func TestDiskWriteCacheAndFlush(t *testing.T) {
	m := NewMachine(DEC5000)
	frame, _ := m.Phys.AllocFrame()
	writeBlockBytes(t, m, 3, frame, []byte("volatile"))

	// Readable immediately (read-your-writes), but not yet stable.
	frame2, _ := m.Phys.AllocFrame()
	if err := m.Disk.ReadBlock(3, m.Phys, frame2); err != nil {
		t.Fatal(err)
	}
	if string(m.Phys.Page(frame2)[:8]) != "volatile" {
		t.Fatal("read did not see cached write")
	}
	if string(m.Disk.Peek(3)[:8]) == "volatile" {
		t.Fatal("write reached the platter without a flush")
	}
	if m.Disk.CacheDirty() != 1 {
		t.Fatalf("CacheDirty = %d, want 1", m.Disk.CacheDirty())
	}

	// Flush is the barrier.
	if err := m.Disk.Flush(); err != nil {
		t.Fatal(err)
	}
	if string(m.Disk.Peek(3)[:8]) != "volatile" {
		t.Fatal("flush did not stabilize the write")
	}
	if m.Disk.CacheDirty() != 0 || m.Disk.Flushes != 1 || m.Disk.FlushedBlocks != 1 {
		t.Fatalf("flush stats: dirty=%d flushes=%d blocks=%d",
			m.Disk.CacheDirty(), m.Disk.Flushes, m.Disk.FlushedBlocks)
	}
	// An empty flush is free and uncounted.
	c0 := m.Clock.Cycles()
	if err := m.Disk.Flush(); err != nil {
		t.Fatal(err)
	}
	if m.Clock.Cycles() != c0 || m.Disk.Flushes != 1 {
		t.Error("empty flush charged or counted")
	}
}

func TestDiskCrashDropsSeededSubset(t *testing.T) {
	run := func(seed uint64) (kept, lost int, image [][]byte) {
		m := NewMachine(DEC5000)
		frame, _ := m.Phys.AllocFrame()
		// One stable write, then eight cached ones.
		writeBlockBytes(t, m, 0, frame, []byte("stable"))
		if err := m.Disk.Flush(); err != nil {
			t.Fatal(err)
		}
		for b := uint32(1); b <= 8; b++ {
			writeBlockBytes(t, m, b, frame, []byte{byte(b), 0xAA})
		}
		kept, lost = m.Disk.Crash(seed)
		for b := uint32(0); b <= 8; b++ {
			image = append(image, append([]byte(nil), m.Disk.Peek(b)[:2]...))
		}
		return kept, lost, image
	}

	kept, lost, image := run(42)
	if kept+lost != 8 {
		t.Fatalf("kept %d + lost %d != 8 cached writes", kept, lost)
	}
	if kept == 0 || lost == 0 {
		t.Fatalf("seed 42 should split the cache (kept=%d lost=%d)", kept, lost)
	}
	if string(image[0][:2]) != "st" {
		t.Fatal("crash damaged the stable image")
	}
	// Same seed, same fate — the crash is replayable.
	kept2, lost2, image2 := run(42)
	if kept != kept2 || lost != lost2 {
		t.Fatalf("crash not deterministic: (%d,%d) vs (%d,%d)", kept, lost, kept2, lost2)
	}
	for b := range image {
		if !bytes.Equal(image[b], image2[b]) {
			t.Fatalf("block %d differs across same-seed crashes", b)
		}
	}
	// A different seed picks a different subset (overwhelmingly likely
	// for 8 independent coin flips; pinned here for these two seeds).
	_, _, image3 := run(43)
	same := true
	for b := range image {
		if !bytes.Equal(image[b], image3[b]) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical crash outcomes")
	}
}

func TestDiskPowerFailStopsAllIO(t *testing.T) {
	m := NewMachine(DEC5000)
	frame, _ := m.Phys.AllocFrame()
	writeBlockBytes(t, m, 1, frame, []byte("x"))
	m.Disk.PowerOff()
	if err := m.Disk.ReadBlock(1, m.Phys, frame); !errors.Is(err, ErrPowerFail) {
		t.Fatalf("read after power-off: %v", err)
	}
	if err := m.Disk.WriteBlock(1, m.Phys, frame); !errors.Is(err, ErrPowerFail) {
		t.Fatalf("write after power-off: %v", err)
	}
	if err := m.Disk.Flush(); !errors.Is(err, ErrPowerFail) {
		t.Fatalf("flush after power-off: %v", err)
	}
	if !m.Disk.PowerFailed() || m.Disk.PowerFails != 1 {
		t.Fatal("power state not recorded")
	}
	m.Disk.Crash(1)
	m.Disk.PowerOn()
	if err := m.Disk.ReadBlock(1, m.Phys, frame); err != nil {
		t.Fatalf("read after power-on: %v", err)
	}
}

// hookAt fails the power at the completion of the nth write.
type hookAt struct {
	n      uint64
	writes uint64
}

func (h *hookAt) PowerFail(write bool, b uint32, cycle uint64) bool {
	if !write {
		return false
	}
	h.writes++
	return h.writes == h.n
}

func TestDiskPowerHookFiresAtExactWriteBoundary(t *testing.T) {
	m := NewMachine(DEC5000)
	m.Disk.Power = &hookAt{n: 3}
	frame, _ := m.Phys.AllocFrame()
	for i := uint32(1); i <= 2; i++ {
		writeBlockBytes(t, m, i, frame, []byte{byte(i)})
	}
	// Third write completes — lands in the cache — but the caller sees
	// the power failure, not success.
	page := m.Phys.Page(frame)
	clear(page)
	copy(page, []byte{3})
	if err := m.Disk.WriteBlock(3, m.Phys, frame); !errors.Is(err, ErrPowerFail) {
		t.Fatalf("third write: %v", err)
	}
	if m.Disk.CacheDirty() != 3 {
		t.Fatalf("CacheDirty = %d: the in-flight write should be cached (fate undecided)",
			m.Disk.CacheDirty())
	}
	if !m.Disk.PowerFailed() {
		t.Fatal("disk should be dead")
	}
}

func TestMachineRebootPreservesClockAndDisk(t *testing.T) {
	m := NewMachine(DEC5000)
	frame, _ := m.Phys.AllocFrame()
	writeBlockBytes(t, m, 5, frame, []byte("survives"))
	if err := m.Disk.Flush(); err != nil {
		t.Fatal(err)
	}
	m.TLB.WriteRandom(TLBEntry{VPN: 9, PFN: 9, Perms: PermValid})
	cycles := m.Clock.Cycles()
	m.Disk.PowerOff()
	m.Disk.Crash(1)

	m.Reboot()

	if m.Clock.Cycles() != cycles {
		t.Fatal("reboot rewound the clock")
	}
	if string(m.Disk.Peek(5)[:8]) != "survives" {
		t.Fatal("reboot lost the stable disk image")
	}
	if m.Disk.PowerFailed() {
		t.Fatal("reboot did not restore disk power")
	}
	if m.Phys.FreeFrames() != m.Phys.NumPages() {
		t.Fatalf("physical memory not reset: %d free of %d",
			m.Phys.FreeFrames(), m.Phys.NumPages())
	}
	if _, ok := m.TLB.Lookup(9, 0); ok {
		t.Fatal("TLB survived the reboot")
	}
	if m.CPU.Mode != ModeKernel || !m.CPU.IntrOn || m.CPU.Pending != 0 {
		t.Fatal("CPU not in power-on state")
	}
	// The machine is usable: memory zeroed, allocation works.
	f2, ok := m.Phys.AllocFrame()
	if !ok {
		t.Fatal("no frames after reboot")
	}
	for _, by := range m.Phys.Page(f2) {
		if by != 0 {
			t.Fatal("reboot left stale bytes in physical memory")
		}
	}
}

// Flush retires write-cache buffers for reuse. A buffer that once held
// block 1's write and now holds block 2's must not reach back into block
// 1: the platter keeps what was flushed there.
func TestDiskRecycledBufferNeverAliases(t *testing.T) {
	m := NewMachine(DEC5000)
	frame, _ := m.Phys.AllocFrame()
	writeBlockBytes(t, m, 1, frame, []byte("first"))
	if err := m.Disk.Flush(); err != nil {
		t.Fatal(err)
	}
	writeBlockBytes(t, m, 2, frame, []byte("second"))
	if err := m.Disk.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := string(m.Disk.Peek(1)[:6]); got != "first\x00" {
		t.Errorf("block 1 on platter = %q after its buffer was reused", got)
	}
	if got := string(m.Disk.Peek(2)[:6]); got != "second" {
		t.Errorf("block 2 on platter = %q", got)
	}
	if err := m.Disk.ReadBlock(1, m.Phys, frame); err != nil {
		t.Fatal(err)
	}
	if got := string(m.Phys.Page(frame)[:6]); got != "first\x00" {
		t.Errorf("block 1 reads back %q after its buffer was reused", got)
	}
}

// Crash retires buffers too, whichever fate each cached write meets. Over
// enough seeds both fates occur for both crashes; in every combination
// block 1 keeps exactly what the first crash left on the platter.
func TestDiskRecycledBufferAcrossCrash(t *testing.T) {
	zero := make([]byte, 6)
	var fates [2][2]int // [crash][kept]
	for seed := uint64(0); seed < 16; seed++ {
		m := NewMachine(DEC5000)
		frame, _ := m.Phys.AllocFrame()
		writeBlockBytes(t, m, 1, frame, []byte("first"))
		kept1, _ := m.Disk.Crash(seed)
		m.Disk.PowerOn()
		want1 := zero
		if kept1 == 1 {
			want1 = []byte("first\x00")
		}
		writeBlockBytes(t, m, 2, frame, []byte("second"))
		kept2, _ := m.Disk.Crash(seed * 7)
		m.Disk.PowerOn()
		want2 := zero
		if kept2 == 1 {
			want2 = []byte("second")
		}
		fates[0][kept1]++
		fates[1][kept2]++
		if got := m.Disk.Peek(1)[:6]; !bytes.Equal(got, want1) {
			t.Errorf("seed %d: block 1 on platter = %q, want %q", seed, got, want1)
		}
		if got := m.Disk.Peek(2)[:6]; !bytes.Equal(got, want2) {
			t.Errorf("seed %d: block 2 on platter = %q, want %q", seed, got, want2)
		}
	}
	for c, f := range fates {
		if f[0] == 0 || f[1] == 0 {
			t.Errorf("crash %d: fates lost=%d kept=%d; want both", c+1, f[0], f[1])
		}
	}
}

// A warm write → Flush cycle reuses its write-cache buffers and its
// sorted-order scratch: no allocation.
func TestDiskWriteFlushAllocs(t *testing.T) {
	m := NewMachine(DEC5000)
	frame, _ := m.Phys.AllocFrame()
	cycle := func() {
		for _, b := range []uint32{9, 3, 5, 1} {
			if err := m.Disk.WriteBlock(b, m.Phys, frame); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Disk.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("write/Flush cycle allocates %v times", n)
	}
}
