package exos

import (
	"bytes"
	"fmt"
	"testing"

	"exokernel/internal/aegis"
	"exokernel/internal/hw"
)

// The Appel–Li fault path — ProtectN, a write fault per page, the OnFault
// upcall, Unprotect and its capability-checked InstallMapping — allocates
// nothing once warm.
func TestProtectFaultCycleAllocs(t *testing.T) {
	_, _, os := boot2(t)
	vas := make([]uint32, 8)
	for i := range vas {
		vas[i] = 0x1000_0000 + uint32(i)*hw.PageSize
		if _, err := os.AllocAndMap(vas[i]); err != nil {
			t.Fatal(err)
		}
	}
	os.OnFault = func(o *LibOS, va uint32, write bool) bool {
		return o.Unprotect(va&^(hw.PageSize-1)) == nil
	}
	cycle := func() {
		if err := os.ProtectN(vas); err != nil {
			t.Fatal(err)
		}
		for _, va := range vas {
			if err := os.TouchWrite(va); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	faults := os.Faults
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("protect/fault/unprotect cycle allocates %v times", n)
	}
	if got, want := os.Faults-faults, uint64(101*len(vas)); got != want {
		t.Errorf("faults = %d, want %d: the cycle did not fault on every page", got, want)
	}
}

// A journaled FS working set twice the cache: reads miss and evict,
// overwrites dirty lines, Sync commits through the journal and the disk's
// write cache. Once warm none of it allocates.
func TestJournaledFSAllocs(t *testing.T) {
	m := hw.NewMachine(hw.DEC5000)
	k := aegis.New(m)
	os, err := Boot(k)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewAegisDev(os, 128)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewFSCache(os, dev, 8, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := FormatJournaled(dev, cache, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	const files, blocks = 2, 8
	var inums [files]Inum
	buf := make([]byte, hw.PageSize)
	for f := range inums {
		if inums[f], err = fs.Create(fmt.Sprintf("f%d", f)); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < blocks; b++ {
			buf[0] = byte(f*blocks + b)
			if err := fs.WriteAt(inums[f], uint32(b*hw.PageSize), buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	cycle := func() {
		i++
		f, b := i%files, (i*3)%blocks
		if _, err := fs.ReadAt(inums[f], uint32(b*hw.PageSize), buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(f*blocks+b) {
			t.Fatalf("f%d block %d reads %d", f, b, buf[0])
		}
		f, b = (i+1)%files, (i*5)%blocks
		buf[0] = byte(f*blocks + b)
		if err := fs.WriteAt(inums[f], uint32(b*hw.PageSize), buf); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 2*files*blocks; w++ {
		cycle()
	}
	misses := cache.Misses
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("read/overwrite/Sync cycle allocates %v times", n)
	}
	if cache.Misses == misses {
		t.Error("the cycle never missed: the working set fits the cache")
	}
}

// A line reused after its dirty victim is written back starts clean: the
// block it now holds is not written back again, and the victim's data
// reached the disk.
func TestCacheLineReusedAfterDirtyEvictionIsClean(t *testing.T) {
	m := hw.NewMachine(hw.DEC5000)
	c := crashCache(t, m, rawDev{m: m, n: 8}, 1)
	frame, err := c.get(1, false)
	if err != nil {
		t.Fatal(err)
	}
	copy(m.Phys.Page(frame), "victim")
	c.markDirty(1)
	if _, err := c.get(2, false); err != nil { // evicts dirty block 1
		t.Fatal(err)
	}
	if c.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1 for the dirty victim", c.Writebacks)
	}
	if ln := c.lines[2]; ln.dirty {
		t.Error("reused cache line starts dirty")
	}
	if d := c.dirtyBlocks(); len(d) != 0 {
		t.Errorf("dirty blocks after eviction = %v, want none", d)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if c.Writebacks != 1 {
		t.Errorf("Sync wrote back a clean reused line (Writebacks = %d)", c.Writebacks)
	}
	if err := m.Disk.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(m.Disk.Peek(1), []byte("victim")) {
		t.Error("dirty victim's data never reached the disk")
	}
}
