package aegis

import (
	"fmt"

	"exokernel/internal/cap"
	"exokernel/internal/hw"
	"exokernel/internal/ktrace"
)

// Secure bindings for stable storage. "An exokernel should protect
// framebuffers without understanding windowing systems and disks without
// understanding file systems" (§3). The kernel's entire disk interface is:
// allocate an *extent* of raw blocks guarded by a capability, and move
// blocks between an extent and physical memory after checking that
// capability. File systems — layout, naming, caching, consistency — are
// library code (internal/exos/fs.go).

// extent records one secure binding on a block range.
type extent struct {
	owner   EnvID
	start   uint32
	nblocks uint32
	name    uint64 // bindingName at allocation; the capability resource
}

// findExtent returns the index of the live extent [start, start+nblocks),
// or -1.
func (k *Kernel) findExtent(start, nblocks uint32) int {
	for i, x := range k.extents {
		if x.start == start && x.nblocks == nblocks {
			return i
		}
	}
	return -1
}

// AllocExtent allocates a contiguous range of nblocks disk blocks for an
// environment and mints the guarding capability. First-fit: disk layout
// is the application's concern, and physical block numbers are exposed
// ("expose names" applies to disk addresses too).
func (k *Kernel) AllocExtent(e *Env, nblocks uint32) (uint32, cap.Capability, error) {
	if nblocks == 0 {
		return 0, cap.Capability{}, fmt.Errorf("aegis: empty extent")
	}
	k.charge(12)
	total := uint32(k.M.Disk.NumBlocks())
	for start := uint32(0); start+nblocks <= total; {
		if conflict, next := k.extentConflict(start, nblocks); conflict {
			start = next
			continue
		}
		name := k.bindingName(start)
		guard := k.Auth.Mint(name, cap.Read|cap.Write|cap.Grant)
		k.extents = append(k.extents, extent{owner: e.ID, start: start, nblocks: nblocks, name: name})
		k.Stats.acct(e.ID).Extents++
		k.trace(ktrace.KindExtentAlloc, e.ID, uint64(start), uint64(nblocks), 0)
		return start, guard, nil
	}
	return 0, cap.Capability{}, fmt.Errorf("aegis: no contiguous %d-block extent free", nblocks)
}

// extentConflict reports whether [start, start+n) overlaps an allocated
// extent, and the first candidate start past the conflict.
func (k *Kernel) extentConflict(start, n uint32) (bool, uint32) {
	for _, x := range k.extents {
		if start < x.start+x.nblocks && x.start < start+n {
			return true, x.start + x.nblocks
		}
	}
	return false, 0
}

// FreeExtent releases an extent; the capability must prove write access.
func (k *Kernel) FreeExtent(start, nblocks uint32, guard cap.Capability) error {
	k.charge(8)
	i := k.findExtent(start, nblocks)
	if i < 0 {
		return fmt.Errorf("aegis: extent %d+%d not allocated", start, nblocks)
	}
	x := k.extents[i]
	if guard.Resource != x.name || !k.Auth.Check(guard, cap.Write) {
		return fmt.Errorf("aegis: capability check failed for extent %d+%d", start, nblocks)
	}
	k.extents = append(k.extents[:i], k.extents[i+1:]...)
	if a := k.Stats.acct(x.owner); a.Extents > 0 {
		a.Extents--
	}
	k.trace(ktrace.KindExtentFree, x.owner, uint64(start), uint64(nblocks), 0)
	return nil
}

// checkExtentAccess validates a block access against an extent capability.
func (k *Kernel) checkExtentAccess(start, nblocks, off uint32, guard cap.Capability, need cap.Rights) error {
	k.charge(10)
	if off >= nblocks {
		return fmt.Errorf("aegis: block offset %d outside extent of %d", off, nblocks)
	}
	// The extent must still be allocated and the capability must name
	// its binding, not an earlier one over the same blocks.
	if i := k.findExtent(start, nblocks); i < 0 || guard.Resource != k.extents[i].name || !k.Auth.Check(guard, need) {
		return fmt.Errorf("aegis: extent capability check failed")
	}
	return nil
}

// DiskRead DMAs extent block (start+off) into a physical frame. Two
// capabilities are checked once per operation — read on the extent, write
// on the frame — and then the device does the work; the kernel never
// interprets the bytes.
func (k *Kernel) DiskRead(start, nblocks, off uint32, extCap cap.Capability, frame uint32, frameCap cap.Capability) error {
	c0 := k.opStart()
	if err := k.checkExtentAccess(start, nblocks, off, extCap, cap.Read); err != nil {
		return err
	}
	if int(frame) >= len(k.frames) || !k.frames[frame].bound {
		return fmt.Errorf("aegis: disk read into unallocated frame %d", frame)
	}
	if !k.frameCapOK(frame, frameCap, cap.Write) {
		return fmt.Errorf("aegis: frame capability check failed")
	}
	k.trace(ktrace.KindDiskRead, k.cur, uint64(start+off), uint64(frame), 0)
	err := k.M.Disk.ReadBlock(start+off, k.M.Phys, frame)
	if err == nil {
		k.recordOp(OpDiskIO, k.cur, c0)
	}
	return err
}

// DiskWrite DMAs a physical frame into extent block (start+off).
func (k *Kernel) DiskWrite(start, nblocks, off uint32, extCap cap.Capability, frame uint32, frameCap cap.Capability) error {
	c0 := k.opStart()
	if err := k.checkExtentAccess(start, nblocks, off, extCap, cap.Write); err != nil {
		return err
	}
	if int(frame) >= len(k.frames) || !k.frames[frame].bound {
		return fmt.Errorf("aegis: disk write from unallocated frame %d", frame)
	}
	if !k.frameCapOK(frame, frameCap, cap.Read) {
		return fmt.Errorf("aegis: frame capability check failed")
	}
	k.trace(ktrace.KindDiskWrite, k.cur, uint64(start+off), uint64(frame), 0)
	err := k.M.Disk.WriteBlock(start+off, k.M.Phys, frame)
	if err == nil {
		k.recordOp(OpDiskIO, k.cur, c0)
	}
	return err
}

// DiskFlush issues the disk's write barrier on behalf of an extent
// holder: every cached write on the device is made stable before the
// call returns. Write access to the extent is required (a flush is a
// mutation of durability state), but the barrier itself is device-wide —
// the disk has one write cache, and the kernel does not track which
// cached blocks belong to whom; the capability check only proves the
// caller is a legitimate writer. File systems decide *when* to flush
// (commit points, swap-frame reuse); the kernel only checks and issues.
func (k *Kernel) DiskFlush(start, nblocks uint32, extCap cap.Capability) error {
	c0 := k.opStart()
	if err := k.checkExtentAccess(start, nblocks, 0, extCap, cap.Write); err != nil {
		return err
	}
	before := k.M.Disk.FlushedBlocks
	err := k.M.Disk.Flush()
	if err == nil {
		k.trace(ktrace.KindDiskFlush, k.cur, uint64(start), k.M.Disk.FlushedBlocks-before, 0)
		k.recordOp(OpDiskIO, k.cur, c0)
	}
	return err
}

// hw import check (Disk block size must match the page size for 1:1 DMA).
var _ = [1]struct{}{}[hw.PageSize-hw.DiskBlockSize]
