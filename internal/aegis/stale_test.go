package aegis

import (
	"testing"

	"exokernel/internal/asm"
	"exokernel/internal/cap"
	"exokernel/internal/hw"
)

// A capability names one secure binding, not a bare frame or block range:
// once the binding is gone — the page deallocated, repossessed by the
// abort protocol or reclaimed with its environment, the extent freed — the
// old holder's capability must stay refused even after the same resource
// is bound to someone else.

// refusesStaleFrame checks that stale, a capability for frame's previous
// binding, is refused by every frame-guarded call, and that the current
// owner's capability fresh still works.
func refusesStaleFrame(t *testing.T, k *Kernel, old *Env, frame uint32, stale, fresh cap.Capability) {
	t.Helper()
	if err := k.InstallMapping(old, 0x5000_0000, frame, hw.PermWrite, stale); err == nil {
		t.Error("InstallMapping accepted a stale frame capability")
	}
	if err := k.InstallMapping(old, 0x5000_0000, frame, 0, stale); err == nil {
		t.Error("read-only InstallMapping accepted a stale frame capability")
	}
	start, ext, err := k.AllocExtent(old, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.DiskRead(start, 1, 0, ext, frame, stale); err == nil {
		t.Error("DiskRead accepted a stale frame capability")
	}
	if err := k.DiskWrite(start, 1, 0, ext, frame, stale); err == nil {
		t.Error("DiskWrite accepted a stale frame capability")
	}
	ep, err := k.InstallFilter(old, byteFilter(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.InstallASH(ep, asm.MustAssemble("pktlen t0\nhalt\n"), frame, stale); err == nil {
		t.Error("InstallASH accepted a stale sandbox capability")
	}
	if err := k.DeallocPage(frame, stale); err == nil {
		t.Fatal("DeallocPage accepted a stale frame capability")
	}
	if k.FrameOwner(frame) == 0 {
		t.Fatal("stale capability freed the new owner's page")
	}
	// The new binding's own capability is unaffected.
	if err := k.DiskWrite(start, 1, 0, ext, frame, fresh); err != nil {
		t.Errorf("current capability refused: %v", err)
	}
	if err := k.DeallocPage(frame, fresh); err != nil {
		t.Errorf("current capability refused: %v", err)
	}
}

// staleWorld boots a kernel with environments a and b, and gives a one
// page, returning it with a's capability for it.
func staleWorld(t *testing.T) (*Kernel, *Env, *Env, uint32, cap.Capability) {
	t.Helper()
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	b, _ := k.NewEnv(nil)
	frame, guard, err := k.AllocPage(a, AnyFrame)
	if err != nil {
		t.Fatal(err)
	}
	return k, a, b, frame, guard
}

// rebind gives frame to e, which must succeed now the old binding is gone.
func rebind(t *testing.T, k *Kernel, e *Env, frame uint32) cap.Capability {
	t.Helper()
	f, guard, err := k.AllocPage(e, frame)
	if err != nil || f != frame {
		t.Fatalf("reallocating frame %d: %d, %v", frame, f, err)
	}
	return guard
}

func TestStaleCapabilityAfterDealloc(t *testing.T) {
	k, a, b, frame, guard := staleWorld(t)
	// A derived capability names the same binding and dies with it too.
	ro, ok := k.Auth.Derive(guard, cap.Read)
	if !ok {
		t.Fatal("derive failed")
	}
	if err := k.DeallocPage(frame, guard); err != nil {
		t.Fatal(err)
	}
	fresh := rebind(t, k, b, frame)
	if err := k.InstallMapping(a, 0x6000_0000, frame, 0, ro); err == nil {
		t.Error("stale derived capability mapped the reallocated frame")
	}
	refusesStaleFrame(t, k, a, frame, guard, fresh)
}

func TestStaleCapabilityAfterAbort(t *testing.T) {
	k, a, b, frame, guard := staleWorld(t)
	if out, err := k.RevokePage(frame); err != nil || out != RevokeAborted {
		t.Fatalf("RevokePage = %v, %v; want aborted", out, err)
	}
	fresh := rebind(t, k, b, frame)
	refusesStaleFrame(t, k, a, frame, guard, fresh)
}

func TestStaleCapabilityAfterDestroy(t *testing.T) {
	k, a, b, frame, guard := staleWorld(t)
	k.DestroyEnv(a)
	fresh := rebind(t, k, b, frame)
	// a is dead; present its stale capability on b's behalf instead.
	refusesStaleFrame(t, k, b, frame, guard, fresh)
}

func TestStaleCapabilityAfterFreeExtent(t *testing.T) {
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	b, _ := k.NewEnv(nil)
	start, stale, err := k.AllocExtent(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	frame, fguard, err := k.AllocPage(a, AnyFrame)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FreeExtent(start, 4, stale); err != nil {
		t.Fatal(err)
	}
	// Freed and not yet reallocated: every use is refused.
	if err := k.DiskRead(start, 4, 0, stale, frame, fguard); err == nil {
		t.Error("DiskRead accepted a capability for a freed extent")
	}
	// First fit hands b the same blocks.
	bstart, fresh, err := k.AllocExtent(b, 4)
	if err != nil || bstart != start {
		t.Fatalf("reallocating extent %d: %d, %v", start, bstart, err)
	}
	if err := k.DiskRead(start, 4, 0, stale, frame, fguard); err == nil {
		t.Error("DiskRead accepted a stale extent capability")
	}
	if err := k.DiskWrite(start, 4, 1, stale, frame, fguard); err == nil {
		t.Error("DiskWrite accepted a stale extent capability")
	}
	if err := k.DiskFlush(start, 4, stale); err == nil {
		t.Error("DiskFlush accepted a stale extent capability")
	}
	if err := k.FreeExtent(start, 4, stale); err == nil {
		t.Fatal("FreeExtent accepted a stale extent capability")
	}
	if err := k.DiskWrite(start, 4, 1, fresh, frame, fguard); err != nil {
		t.Errorf("current extent capability refused: %v", err)
	}
	if err := k.FreeExtent(start, 4, fresh); err != nil {
		t.Errorf("current extent capability refused: %v", err)
	}
}
