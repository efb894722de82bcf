package aegis

import (
	"fmt"

	"exokernel/internal/cap"
	"exokernel/internal/hw"
	"exokernel/internal/ktrace"
)

// AllocPage allocates a physical page for an environment and mints the
// capability that guards it (the secure binding, §3.2: "the exokernel
// creates a secure binding for that page by recording the owner and the
// read and write capabilities"). frame == AnyFrame lets the kernel pick;
// otherwise the specific frame is requested (expose allocation — the
// library OS may want particular physical pages for cache coloring).
func (k *Kernel) AllocPage(e *Env, frame uint32) (uint32, cap.Capability, error) {
	k.charge(6) // free-list pop, owner record, bookkeeping
	var f uint32
	if frame == AnyFrame {
		var ok bool
		f, ok = k.M.Phys.AllocFrame()
		if !ok {
			return 0, cap.Capability{}, fmt.Errorf("aegis: out of physical memory")
		}
	} else {
		if int(frame) >= len(k.frames) {
			return 0, cap.Capability{}, fmt.Errorf("aegis: no such frame %d", frame)
		}
		if !k.M.Phys.AllocFrameAt(frame) {
			return 0, cap.Capability{}, fmt.Errorf("aegis: frame %d not free", frame)
		}
		f = frame
	}
	name := k.bindingName(f)
	guard := k.Auth.Mint(name, cap.Read|cap.Write|cap.Grant)
	k.frames[f] = frameBinding{owner: e.ID, bound: true, name: name}
	k.Stats.acct(e.ID).Frames++
	k.trace(ktrace.KindFrameBind, e.ID, uint64(f), 0, 0)
	return f, guard, nil
}

// AnyFrame asks AllocPage to choose the frame.
const AnyFrame = ^uint32(0)

// DeallocPage releases a page. The caller must present a write-capable
// capability for the frame; ownership alone is not consulted — capabilities
// are the protection model.
func (k *Kernel) DeallocPage(frame uint32, c cap.Capability) error {
	k.charge(6)
	if int(frame) >= len(k.frames) || !k.frames[frame].bound {
		return fmt.Errorf("aegis: frame %d not allocated", frame)
	}
	if !k.frameCapOK(frame, c, cap.Write) {
		return fmt.Errorf("aegis: capability check failed for frame %d", frame)
	}
	owner := k.frames[frame].owner
	k.breakBindings(frame)
	k.frames[frame] = frameBinding{}
	if a := k.Stats.acct(owner); a.Frames > 0 {
		a.Frames--
	}
	k.trace(ktrace.KindFrameUnbind, owner, uint64(frame), 0, 0)
	return k.M.Phys.FreeFrame(frame)
}

// FrameOwner reports the owner of a frame (0 if unallocated). Physical
// names are public in an exokernel; ownership is not a secret.
func (k *Kernel) FrameOwner(frame uint32) EnvID {
	if int(frame) >= len(k.frames) {
		return 0
	}
	return k.frames[frame].owner
}

// InstallMapping installs a virtual→physical translation for the current
// address space. This is the access-time half of the secure binding: the
// presented capability is validated against the frame's guard; on success
// the mapping enters the hardware TLB and the software TLB. Perms is a
// subset of hw.PermWrite.
func (k *Kernel) InstallMapping(e *Env, va uint32, frame uint32, perms uint8, c cap.Capability) error {
	k.charge(8) // argument decode + binding lookup
	if int(frame) >= len(k.frames) || !k.frames[frame].bound {
		return fmt.Errorf("aegis: frame %d not allocated", frame)
	}
	need := cap.Read
	if perms&hw.PermWrite != 0 {
		need |= cap.Write
	}
	if !k.frameCapOK(frame, c, need) {
		return fmt.Errorf("aegis: capability check failed mapping frame %d", frame)
	}
	entry := hw.TLBEntry{
		VPN:   va >> hw.PageShift,
		ASID:  e.ASID,
		PFN:   frame,
		Perms: perms&hw.PermWrite | hw.PermValid,
	}
	k.M.TLB.WriteRandom(entry)
	if k.STLBEnabled {
		k.M.Clock.Tick(hw.CostSTLBLookup)
		k.stlb.insert(entry)
	}
	return nil
}

// UnmapPage removes a translation from both TLBs. Applications use it to
// implement protection changes: ExOS's mprotect is unmap-then-fault-remap.
func (k *Kernel) UnmapPage(e *Env, va uint32) {
	k.charge(4)
	vpn := va >> hw.PageShift
	k.M.TLB.Invalidate(vpn, e.ASID)
	if k.STLBEnabled {
		k.M.Clock.Tick(hw.CostSTLBLookup)
		k.stlb.invalidate(vpn, e.ASID)
	}
}

// breakBindings severs every cached translation of a frame — the
// mechanical core of both deallocation and the abort protocol.
func (k *Kernel) breakBindings(frame uint32) {
	k.M.TLB.FlushFrame(frame)
	k.stlb.invalidateFrame(frame)
}
