package hw

import (
	"errors"
	"fmt"
	"slices"

	"exokernel/internal/fault"
)

// DiskFault decides, per block transfer, whether the simulated disk
// misbehaves: a latency spike, a hard error, or a flipped byte in the
// transferred data. nil means perfect hardware — the default, and the
// only configuration the benchmarks ever run.
type DiskFault interface {
	ReadFault(b uint32) fault.DiskVerdict
	WriteFault(b uint32) fault.DiskVerdict
}

// DiskPower decides, at each completed disk transfer (a disk-I/O
// boundary), whether power fails at that instant. nil means the power
// never fails. The hook sees the operation kind, the block, and the
// simulated cycle so a harness can fire at an exact write boundary or an
// exact simulated time (internal/fault implements it).
type DiskPower interface {
	PowerFail(write bool, b uint32, cycle uint64) bool
}

// ErrPowerFail is returned by every disk operation once power has
// failed, including the operation during which the failure fired: the
// caller cannot know whether that transfer reached the platter — the
// defining ambiguity of a power-fail crash.
var ErrPowerFail = errors.New("hw: disk power failed")

// Disk models a fixed disk with page-sized blocks, a seek-dependent
// access cost, and a volatile write cache — the storage substrate for
// the paper's claim that an exokernel should "protect disks without
// understanding file systems". The geometry model is deliberately
// simple: cost = fixed controller overhead + seek proportional to
// cylinder distance + per-word transfer. At 25 MHz the defaults give
// ~1 ms for an adjacent access and ~9 ms for a full-stroke seek,
// 1995-plausible numbers.
//
// Durability model: WriteBlock lands in the volatile write cache;
// ReadBlock sees cached writes (read-your-writes), so within a powered
// session the cache is invisible. Flush is the barrier that moves every
// cached write to the stable image. A power failure (Crash) destroys an
// arbitrary seeded subset of the un-flushed writes — each cached block
// independently either reached the platter or evaporated — while the
// stable image is preserved exactly. Crash-consistent storage clients
// (internal/exos journaling) are built on exactly these semantics.
type Disk struct {
	clock  *Clock
	blocks [][]byte
	head   uint32 // current head position (block number)

	// Volatile write cache: block → pending contents. Writes are
	// charged at WriteBlock time (write-through timing, write-back
	// durability); Flush charges the barrier.
	wcache map[uint32][]byte
	// spare holds write-cache buffers that Flush and Crash have retired;
	// WriteBlock reuses them before allocating. order is cachedBlocks'
	// reusable result. Both are simulator economy only.
	spare [][]byte
	order []uint32
	dead  bool // power failed; every operation errors until PowerOn

	// Cost parameters in cycles (documented like hw/costs.go).
	CostFixed   uint64 // controller + rotational average
	CostPerSeek uint64 // per blocksBetween(head, target)/seekUnit step
	seekUnit    uint32

	// Fault, when non-nil, is consulted once per block transfer (after
	// the bounds check, before the DMA). See internal/fault.
	Fault DiskFault
	// Power, when non-nil, is consulted at the completion of every
	// successful transfer; returning true fails the power at that exact
	// I/O boundary.
	Power DiskPower

	// Stats.
	Reads, Writes, SeekBlocks uint64
	// Write-cache and crash stats: barrier flushes issued, blocks made
	// stable by them, power failures suffered, and the fate of cached
	// writes at each crash (reached the platter vs evaporated).
	Flushes, FlushedBlocks           uint64
	PowerFails, CrashKept, CrashLost uint64
	// Fault-injection stats: failed transfers, injected latency, and
	// corrupted transfers. All zero with Fault nil.
	ReadErrs, WriteErrs, SlowCycles, Corruptions uint64
}

// DiskBlockSize is the disk block size; equal to the page size so a block
// DMA fills exactly one frame.
const DiskBlockSize = PageSize

// NewDisk creates a disk with nblocks zeroed blocks. Block storage is
// allocated lazily on first touch (simulator memory economy only; the
// cost model is unaffected).
func NewDisk(clock *Clock, nblocks int) *Disk {
	return &Disk{
		clock:       clock,
		blocks:      make([][]byte, nblocks),
		wcache:      make(map[uint32][]byte),
		CostFixed:   25000, // 1 ms at 25 MHz
		CostPerSeek: 500,
		seekUnit:    16, // blocks per "cylinder"
	}
}

// block materializes block b's stable storage.
func (d *Disk) block(b uint32) []byte {
	if d.blocks[b] == nil {
		d.blocks[b] = make([]byte, DiskBlockSize)
	}
	return d.blocks[b]
}

// NumBlocks reports the disk capacity in blocks.
func (d *Disk) NumBlocks() int { return len(d.blocks) }

// CacheDirty reports how many blocks sit in the volatile write cache,
// i.e. are readable but not yet stable.
func (d *Disk) CacheDirty() int { return len(d.wcache) }

// PowerFailed reports whether the disk has lost power.
func (d *Disk) PowerFailed() bool { return d.dead }

// access charges the seek + rotation + transfer cost of touching block b.
func (d *Disk) access(b uint32) {
	dist := uint64(0)
	if b > d.head {
		dist = uint64((b - d.head) / d.seekUnit)
	} else {
		dist = uint64((d.head - b) / d.seekUnit)
	}
	d.SeekBlocks += dist
	d.clock.Tick(d.CostFixed + dist*d.CostPerSeek + DiskBlockSize/WordSize)
	d.head = b
}

// boundary consults the power hook at the completion of a transfer.
// If power fails here, the operation's own outcome becomes unknowable
// to the caller: ErrPowerFail is returned even though the transfer
// finished an instant earlier.
func (d *Disk) boundary(write bool, b uint32) error {
	if d.Power != nil && d.Power.PowerFail(write, b, d.clock.Cycles()) {
		d.dead = true
		d.PowerFails++
		return ErrPowerFail
	}
	return nil
}

// ReadBlock DMAs block b into the physical frame. Reads see the write
// cache (read-your-writes). Under fault injection a read may stall
// (latency spike), fail outright after the seek cost is paid (a stalled
// controller still consumed the time), or deliver the block with one
// byte flipped — which only a caller that checksums its data can detect.
func (d *Disk) ReadBlock(b uint32, mem *PhysMem, frame uint32) error {
	if d.dead {
		return ErrPowerFail
	}
	if int(b) >= len(d.blocks) {
		return fmt.Errorf("hw: disk read past end: block %d", b)
	}
	var v fault.DiskVerdict
	v.CorruptOff = -1
	if d.Fault != nil {
		v = d.Fault.ReadFault(b)
	}
	d.access(b)
	if v.Delay > 0 {
		d.clock.Tick(v.Delay)
		d.SlowCycles += v.Delay
	}
	if v.Err != nil {
		d.ReadErrs++
		return v.Err
	}
	d.Reads++
	page := mem.Page(frame)
	if pending, ok := d.wcache[b]; ok {
		copy(page, pending)
	} else {
		copy(page, d.block(b))
	}
	if v.CorruptOff >= 0 {
		page[v.CorruptOff%len(page)] ^= v.CorruptXor
		d.Corruptions++
	}
	return d.boundary(false, b)
}

// WriteBlock DMAs the physical frame into the volatile write cache for
// block b; the data is readable immediately but stable only after Flush.
// Fault injection mirrors ReadBlock; a corrupted write lands the flipped
// byte in the cached copy, so the damage is durable once flushed.
func (d *Disk) WriteBlock(b uint32, mem *PhysMem, frame uint32) error {
	if d.dead {
		return ErrPowerFail
	}
	if int(b) >= len(d.blocks) {
		return fmt.Errorf("hw: disk write past end: block %d", b)
	}
	var v fault.DiskVerdict
	v.CorruptOff = -1
	if d.Fault != nil {
		v = d.Fault.WriteFault(b)
	}
	d.access(b)
	if v.Delay > 0 {
		d.clock.Tick(v.Delay)
		d.SlowCycles += v.Delay
	}
	if v.Err != nil {
		d.WriteErrs++
		return v.Err
	}
	d.Writes++
	blk, ok := d.wcache[b]
	if !ok {
		if n := len(d.spare); n > 0 {
			blk = d.spare[n-1]
			d.spare = d.spare[:n-1]
		} else {
			blk = make([]byte, DiskBlockSize)
		}
		d.wcache[b] = blk
	}
	copy(blk, mem.Page(frame))
	if v.CorruptOff >= 0 {
		blk[v.CorruptOff%len(blk)] ^= v.CorruptXor
		d.Corruptions++
	}
	return d.boundary(true, b)
}

// Flush is the write barrier: every cached write is committed to the
// stable image, in ascending block order (the order is observable
// through seek costs, so it is pinned for determinism). One controller
// overhead is charged for the barrier plus a transfer per block.
func (d *Disk) Flush() error {
	if d.dead {
		return ErrPowerFail
	}
	if len(d.wcache) == 0 {
		return nil
	}
	d.Flushes++
	d.clock.Tick(d.CostFixed)
	for _, b := range d.cachedBlocks() {
		d.access(b)
		copy(d.block(b), d.wcache[b])
		d.retire(b)
		d.FlushedBlocks++
	}
	return nil
}

// retire drops block b's cached write and keeps its buffer for reuse.
// Every buffer is fully overwritten by the WriteBlock that takes it, so
// no old contents can surface.
func (d *Disk) retire(b uint32) {
	d.spare = append(d.spare, d.wcache[b])
	delete(d.wcache, b)
}

// cachedBlocks returns the write-cache keys in ascending order. The
// slice is reused: it is valid until the next call.
func (d *Disk) cachedBlocks() []uint32 {
	d.order = d.order[:0]
	for b := range d.wcache {
		d.order = append(d.order, b)
	}
	slices.Sort(d.order)
	return d.order
}

// PowerOff fails the power between I/O boundaries (the "any simulated
// cycle" crash point): every subsequent operation errors until the
// machine reboots and calls PowerOn. The write cache keeps its contents
// until Crash decides their fate.
func (d *Disk) PowerOff() {
	if !d.dead {
		d.dead = true
		d.PowerFails++
	}
}

// Crash resolves a power failure: each un-flushed cached write
// independently either reached the platter or evaporated, decided by a
// splitmix64 stream over the given seed (so a crash is replayed exactly
// by its seed). The stable image is otherwise preserved. The disk is
// left powered off; PowerOn restores service over the surviving image.
// It returns how many cached writes survived and how many were lost.
func (d *Disk) Crash(seed uint64) (kept, lost int) {
	d.PowerOff()
	rng := seed
	next := func() uint64 {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	for _, b := range d.cachedBlocks() {
		if next()&1 == 0 {
			copy(d.block(b), d.wcache[b])
			kept++
		} else {
			lost++
		}
		d.retire(b)
	}
	d.CrashKept += uint64(kept)
	d.CrashLost += uint64(lost)
	return kept, lost
}

// PowerOn restores power after a crash. The write cache is empty (Crash
// resolved it); the stable image is whatever survived.
func (d *Disk) PowerOn() { d.dead = false }

// Peek returns a block's raw *stable* contents without charging (test
// assertions, and the platter-corruption tests mutate the returned
// slice in place). Cached writes that have not been flushed are not
// visible here — that is the point of the distinction.
func (d *Disk) Peek(b uint32) []byte { return d.block(b) }
