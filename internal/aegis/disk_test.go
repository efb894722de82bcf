package aegis

import (
	"testing"

	"exokernel/internal/cap"
)

func TestExtentAllocationDisjoint(t *testing.T) {
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	s1, g1, err := k.AllocExtent(a, 100)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := k.AllocExtent(a, 50)
	if err != nil {
		t.Fatal(err)
	}
	if s1 < s2+50 && s2 < s1+100 {
		t.Errorf("extents overlap: %d+100 and %d+50", s1, s2)
	}
	if _, _, err := k.AllocExtent(a, 0); err == nil {
		t.Error("empty extent accepted")
	}
	if err := k.FreeExtent(s1, 100, g1); err != nil {
		t.Fatal(err)
	}
	// Freed space is reusable.
	s3, _, err := k.AllocExtent(a, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Errorf("first-fit did not reuse freed space: got %d, want %d", s3, s1)
	}
}

func TestExtentCapabilityChecks(t *testing.T) {
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	start, guard, err := k.AllocExtent(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	frame, fguard, err := k.AllocPage(a, AnyFrame)
	if err != nil {
		t.Fatal(err)
	}

	// Happy path.
	if err := k.DiskWrite(start, 10, 3, guard, frame, fguard); err != nil {
		t.Fatalf("genuine write failed: %v", err)
	}
	if err := k.DiskRead(start, 10, 3, guard, frame, fguard); err != nil {
		t.Fatalf("genuine read failed: %v", err)
	}

	// Forged extent capability.
	forged := cap.Capability{Resource: guard.Resource, Rights: cap.Read | cap.Write}
	if err := k.DiskRead(start, 10, 3, forged, frame, fguard); err == nil {
		t.Error("forged extent capability accepted")
	}
	// Out-of-extent offset.
	if err := k.DiskRead(start, 10, 10, guard, frame, fguard); err == nil {
		t.Error("offset past extent accepted")
	}
	// Mislabeled extent (capability for different range).
	if err := k.DiskRead(start+1, 9, 0, guard, frame, fguard); err == nil {
		t.Error("capability accepted for different extent")
	}
	// Bad frame capability.
	badf := cap.Capability{Resource: fguard.Resource, Rights: cap.Write}
	if err := k.DiskRead(start, 10, 0, guard, frame, badf); err == nil {
		t.Error("forged frame capability accepted")
	}
	// Read-only derived extent capability cannot write.
	ro, ok := k.Auth.Derive(guard, cap.Read)
	if !ok {
		t.Fatal("derive failed")
	}
	if err := k.DiskWrite(start, 10, 0, ro, frame, fguard); err == nil {
		t.Error("read capability wrote to disk")
	}
	if err := k.DiskRead(start, 10, 0, ro, frame, fguard); err != nil {
		t.Errorf("read with read capability failed: %v", err)
	}
}

func TestFreeExtentChecks(t *testing.T) {
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	start, guard, err := k.AllocExtent(a, 5)
	if err != nil {
		t.Fatal(err)
	}
	bad := cap.Capability{Resource: guard.Resource, Rights: cap.Write}
	if err := k.FreeExtent(start, 5, bad); err == nil {
		t.Error("forged free accepted")
	}
	if err := k.FreeExtent(start, 5, guard); err != nil {
		t.Fatal(err)
	}
	if err := k.FreeExtent(start, 5, guard); err == nil {
		t.Error("double free accepted")
	}
}

func TestExtentExhaustion(t *testing.T) {
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	total := uint32(k.M.Disk.NumBlocks())
	if _, _, err := k.AllocExtent(a, total+1); err == nil {
		t.Error("oversized extent accepted")
	}
	if _, _, err := k.AllocExtent(a, total); err != nil {
		t.Errorf("whole-disk extent failed: %v", err)
	}
	if _, _, err := k.AllocExtent(a, 1); err == nil {
		t.Error("allocation from full disk succeeded")
	}
}
