package exos

import (
	"encoding/binary"
	"fmt"
	"slices"

	"exokernel/internal/aegis"
	"exokernel/internal/cap"
	"exokernel/internal/hw"
)

// An application-level file system. The kernel's storage interface is
// capability-guarded raw extents (internal/aegis/disk.go); everything a
// file system *is* — layout, naming, allocation, and above all the buffer
// cache and its replacement policy — is unprivileged library code here.
// That last part is the point: Cao et al. [10], cited in the paper's
// introduction, measured that application-controlled file caching cuts
// running time by up to 45%, and Stonebraker [47] catalogued how
// kernel-fixed policies hurt databases. With the cache in the library,
// an application replaces the policy by passing a different object.
//
// On-extent layout (all page-sized blocks):
//
//	block 0            superblock
//	block 1            block-allocation bitmap
//	blocks 2..2+ib-1   inode table (64-byte inodes)
//	blocks dataStart.. data
//
// Inode 0 is the root directory: a flat table of 32-byte entries.

// BlockDev abstracts the storage the file system runs on: ExOS supplies
// the capability-checked kernel extent (AegisDev); the monolithic
// baseline wraps the same engine with per-call crossing charges.
type BlockDev interface {
	ReadBlock(b uint32, frame uint32) error
	WriteBlock(b uint32, frame uint32) error
	// Flush is the durability barrier: every write accepted before the
	// call is stable when it returns (the disk's volatile write cache is
	// drained). Crash consistency is built on its ordering guarantee.
	Flush() error
	NumBlocks() uint32
}

// AegisDev is a kernel disk extent plus the capabilities to use it.
type AegisDev struct {
	K       *aegis.Kernel
	Start   uint32
	NBlocks uint32
	Guard   cap.Capability
	// frameCaps maps cache frames to their capabilities.
	frameCaps map[uint32]cap.Capability
}

// NewAegisDev allocates an extent of nblocks for the environment.
func NewAegisDev(os *LibOS, nblocks uint32) (*AegisDev, error) {
	start, guard, err := os.K.AllocExtent(os.Env, nblocks)
	if err != nil {
		return nil, err
	}
	return &AegisDev{K: os.K, Start: start, NBlocks: nblocks, Guard: guard,
		frameCaps: make(map[uint32]cap.Capability)}, nil
}

// RegisterFrame records the capability for a cache frame.
func (d *AegisDev) RegisterFrame(frame uint32, guard cap.Capability) {
	d.frameCaps[frame] = guard
}

// ReadBlock implements BlockDev over the kernel's checked DMA.
func (d *AegisDev) ReadBlock(b uint32, frame uint32) error {
	return d.K.DiskRead(d.Start, d.NBlocks, b, d.Guard, frame, d.frameCaps[frame])
}

// WriteBlock implements BlockDev.
func (d *AegisDev) WriteBlock(b uint32, frame uint32) error {
	return d.K.DiskWrite(d.Start, d.NBlocks, b, d.Guard, frame, d.frameCaps[frame])
}

// Flush implements BlockDev over the kernel's checked barrier call.
func (d *AegisDev) Flush() error {
	return d.K.DiskFlush(d.Start, d.NBlocks, d.Guard)
}

// NumBlocks implements BlockDev.
func (d *AegisDev) NumBlocks() uint32 { return d.NBlocks }

// --- Buffer cache -------------------------------------------------------

// CachePolicy decides evictions. It sees every access; Evict picks the
// victim. Implementations are application code — swapping one is the
// paper's "application-controlled file caching".
type CachePolicy interface {
	Name() string
	Touched(b uint32, transient bool)
	Removed(b uint32)
	Evict() (uint32, bool)
}

// cacheLine is one cache frame and the state of the block it holds.
// NewBufCache makes one per frame; a line is reused, never reallocated,
// as its frame moves from block to block.
type cacheLine struct {
	frame uint32
	dirty bool
}

// BufCache is the application-managed buffer cache.
type BufCache struct {
	mem    *hw.PhysMem
	clock  *hw.Clock
	dev    BlockDev
	policy CachePolicy
	lines  map[uint32]*cacheLine
	free   []*cacheLine // clean lines caching no block
	sorted []uint32     // dirtyBlocks' reusable result
	// onEvictDirty, when set, runs before a dirty victim would be written
	// back in place — the journal installs its commit here so an eviction
	// can never put an uncommitted metadata block on disk out of order.
	// The hook must leave the victim clean (a commit writes back every
	// dirty line).
	onEvictDirty func() error
	// Stats.
	Hits, Misses, Writebacks uint64
}

// NewBufCache builds a cache over the given frames.
func NewBufCache(mem *hw.PhysMem, clock *hw.Clock, dev BlockDev, frames []uint32, policy CachePolicy) *BufCache {
	pool := make([]cacheLine, len(frames))
	free := make([]*cacheLine, len(frames))
	for i, f := range frames {
		pool[i].frame = f
		free[i] = &pool[i]
	}
	return &BufCache{
		mem: mem, clock: clock, dev: dev, policy: policy,
		lines: make(map[uint32]*cacheLine, len(frames)),
		free:  free,
	}
}

// SetPolicy swaps the replacement policy (resident blocks re-register).
func (c *BufCache) SetPolicy(p CachePolicy) {
	for b := range c.lines {
		c.policy.Removed(b)
		p.Touched(b, false)
	}
	c.policy = p
}

// get returns the frame caching block b, reading it in if needed.
// transient marks the access as part of a scan the caller has advised
// about (the policy may prioritize it for eviction).
func (c *BufCache) get(b uint32, transient bool) (uint32, error) {
	c.clock.Tick(8) // hash lookup + bookkeeping: library code, charged
	if ln, ok := c.lines[b]; ok {
		c.Hits++
		c.policy.Touched(b, transient)
		return ln.frame, nil
	}
	c.Misses++
	ln, err := c.lineFor()
	if err != nil {
		return 0, err
	}
	if err := c.dev.ReadBlock(b, ln.frame); err != nil {
		c.free = append(c.free, ln)
		return 0, err
	}
	c.lines[b] = ln
	c.policy.Touched(b, transient)
	return ln.frame, nil
}

// lineFor finds a clean line with no block, evicting if necessary.
func (c *BufCache) lineFor() (*cacheLine, error) {
	if n := len(c.free); n > 0 {
		ln := c.free[n-1]
		c.free = c.free[:n-1]
		return ln, nil
	}
	victim, ok := c.policy.Evict()
	if !ok {
		return nil, fmt.Errorf("exos: buffer cache empty but no free frame")
	}
	ln := c.lines[victim]
	if ln.dirty && c.onEvictDirty != nil {
		if err := c.onEvictDirty(); err != nil {
			return nil, err
		}
	}
	if ln.dirty {
		c.Writebacks++
		if err := c.dev.WriteBlock(victim, ln.frame); err != nil {
			return nil, err
		}
		ln.dirty = false
	}
	delete(c.lines, victim)
	c.policy.Removed(victim)
	return ln, nil
}

// markDirty flags a resident block as modified.
func (c *BufCache) markDirty(b uint32) {
	if ln, ok := c.lines[b]; ok {
		ln.dirty = true
	}
}

// dirtyBlocks returns the dirty resident blocks in ascending block
// order. Sorted so the on-disk write order — and therefore the set of
// crash states a power failure can expose — is a deterministic function
// of the dirty set, never of map iteration order; the crash-point
// exploration test depends on this. The slice is reused: it is valid
// until the next call, so a caller must consume it without re-entering
// the cache (Sync and Journal.commit only write blocks back).
func (c *BufCache) dirtyBlocks() []uint32 {
	c.sorted = c.sorted[:0]
	for b, ln := range c.lines {
		if ln.dirty {
			c.sorted = append(c.sorted, b)
		}
	}
	slices.Sort(c.sorted)
	return c.sorted
}

// Sync writes back every dirty block, in ascending block order.
func (c *BufCache) Sync() error {
	for _, b := range c.dirtyBlocks() {
		ln := c.lines[b]
		c.Writebacks++
		if err := c.dev.WriteBlock(b, ln.frame); err != nil {
			return err
		}
		ln.dirty = false
	}
	return nil
}

// TakeFrame permanently removes one frame from the cache's free pool
// for the caller's private use (the journal takes its scratch frame
// this way at mount time, before the cache has warmed up).
func (c *BufCache) TakeFrame() (uint32, error) {
	if len(c.free) == 0 {
		return 0, fmt.Errorf("exos: no free cache frame to take")
	}
	ln := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return ln.frame, nil
}

// --- Policies -------------------------------------------------------------

// LRU is the classic kernel default: least-recently-used eviction.
type LRU struct {
	order []uint32 // front = LRU
	pos   map[uint32]int
}

// NewLRU makes an empty LRU policy.
func NewLRU() *LRU { return &LRU{pos: map[uint32]int{}} }

// Name implements CachePolicy.
func (l *LRU) Name() string { return "lru" }

// Touched implements CachePolicy.
func (l *LRU) Touched(b uint32, _ bool) {
	l.remove(b)
	l.pos[b] = len(l.order)
	l.order = append(l.order, b)
}

// Removed implements CachePolicy.
func (l *LRU) Removed(b uint32) { l.remove(b) }

// Evict implements CachePolicy.
func (l *LRU) Evict() (uint32, bool) {
	if len(l.order) == 0 {
		return 0, false
	}
	b := l.order[0]
	l.remove(b)
	return b, true
}

func (l *LRU) remove(b uint32) {
	i, ok := l.pos[b]
	if !ok {
		return
	}
	l.order = append(l.order[:i], l.order[i+1:]...)
	delete(l.pos, b)
	for j := i; j < len(l.order); j++ {
		l.pos[l.order[j]] = j
	}
}

// ScanAware is an application policy: blocks touched as part of an advised
// sequential scan are queued for immediate reuse instead of flooding the
// LRU list — the access-pattern knowledge only the application has.
type ScanAware struct {
	hot  *LRU
	scan []uint32
	in   map[uint32]bool
}

// NewScanAware makes the scan-resistant policy.
func NewScanAware() *ScanAware {
	return &ScanAware{hot: NewLRU(), in: map[uint32]bool{}}
}

// Name implements CachePolicy.
func (s *ScanAware) Name() string { return "scan-aware" }

// Touched implements CachePolicy.
func (s *ScanAware) Touched(b uint32, transient bool) {
	if transient {
		if !s.in[b] {
			s.in[b] = true
			s.scan = append(s.scan, b)
		}
		return
	}
	if s.in[b] {
		s.dropScan(b)
	}
	s.hot.Touched(b, false)
}

// Removed implements CachePolicy.
func (s *ScanAware) Removed(b uint32) {
	if s.in[b] {
		s.dropScan(b)
		return
	}
	s.hot.Removed(b)
}

// Evict implements CachePolicy: scan blocks go first.
func (s *ScanAware) Evict() (uint32, bool) {
	if len(s.scan) > 0 {
		b := s.scan[0]
		s.dropScan(b)
		return b, true
	}
	return s.hot.Evict()
}

func (s *ScanAware) dropScan(b uint32) {
	for i, x := range s.scan {
		if x == b {
			s.scan = append(s.scan[:i], s.scan[i+1:]...)
			break
		}
	}
	delete(s.in, b)
}

// --- The file system --------------------------------------------------------

const (
	fsMagic      = 0x4558_4653 // "EXFS"
	inodeSize    = 64
	inodesPerBlk = hw.PageSize / inodeSize
	nDirect      = 12
	dirEntSize   = 32
	dirNameLen   = 28
	// Inum 0 is the root directory.
	rootInum = 0
)

// Inum names an inode.
type Inum uint32

type superblock struct {
	nblocks   uint32
	ninodes   uint32
	bitmapBlk uint32
	inodeBlk  uint32
	dataBlk   uint32
	// Journal region, at the tail of the extent. journalBlks == 0 means
	// a legacy non-journaled image (Format leaves the fields zero, so
	// old images mount unchanged with no recovery pass).
	journalBlk  uint32
	journalBlks uint32
}

// FS is the library file system instance.
type FS struct {
	dev   BlockDev
	cache *BufCache
	mem   *hw.PhysMem
	clock *hw.Clock
	sb    superblock
	// jn is the write-ahead journal; nil for non-journaled images. When
	// set, Sync commits through the journal instead of writing metadata
	// in place (see journal.go).
	jn *Journal
	// sequential advice state (per-FS for simplicity; per-file in a
	// larger implementation).
	advSequential bool
}

// Advice values for Advise.
const (
	AdviceNormal = iota
	AdviceSequential
)

// Format writes a fresh file system and returns it mounted. The image
// is not journaled: metadata writes go to their home locations in
// place, and a power failure mid-Sync can tear them. FormatJournaled
// (journal.go) is the crash-consistent variant.
func Format(dev BlockDev, cache *BufCache, ninodes uint32) (*FS, error) {
	return format(dev, cache, ninodes, 0)
}

// format writes the common initial image; journalBlks > 0 reserves a
// journal region at the extent tail (FormatJournaled finishes the job).
func format(dev BlockDev, cache *BufCache, ninodes, journalBlks uint32) (*FS, error) {
	fs := &FS{dev: dev, cache: cache, mem: cache.mem, clock: cache.clock}
	ib := (ninodes + inodesPerBlk - 1) / inodesPerBlk
	fs.sb = superblock{
		nblocks:   dev.NumBlocks(),
		ninodes:   ninodes,
		bitmapBlk: 1,
		inodeBlk:  2,
		dataBlk:   2 + ib,
	}
	if journalBlks > 0 {
		if journalBlks >= fs.sb.nblocks {
			return nil, fmt.Errorf("exos: journal of %d blocks exceeds extent", journalBlks)
		}
		fs.sb.journalBlk = fs.sb.nblocks - journalBlks
		fs.sb.journalBlks = journalBlks
	}
	if fs.sb.dataBlk >= fs.dataEnd() {
		return nil, fmt.Errorf("exos: extent too small for %d inodes", ninodes)
	}
	// Superblock.
	frame, err := cache.get(0, false)
	if err != nil {
		return nil, err
	}
	page := fs.mem.Page(frame)
	clear(page)
	binary.LittleEndian.PutUint32(page[0:], fsMagic)
	binary.LittleEndian.PutUint32(page[4:], fs.sb.nblocks)
	binary.LittleEndian.PutUint32(page[8:], fs.sb.ninodes)
	binary.LittleEndian.PutUint32(page[12:], fs.sb.bitmapBlk)
	binary.LittleEndian.PutUint32(page[16:], fs.sb.inodeBlk)
	binary.LittleEndian.PutUint32(page[20:], fs.sb.dataBlk)
	binary.LittleEndian.PutUint32(page[24:], fs.sb.journalBlk)
	binary.LittleEndian.PutUint32(page[28:], fs.sb.journalBlks)
	fs.clock.Tick(6)
	cache.markDirty(0)
	// Zero bitmap and inode blocks.
	for b := fs.sb.bitmapBlk; b < fs.sb.dataBlk; b++ {
		f, err := cache.get(b, false)
		if err != nil {
			return nil, err
		}
		clear(fs.mem.Page(f))
		fs.clock.Tick(hw.PageSize / hw.WordSize / 8) // zeroing, cached line fills
		cache.markDirty(b)
	}
	// Root directory inode.
	if err := fs.writeInode(rootInum, inode{used: 1}); err != nil {
		return nil, err
	}
	return fs, fs.cache.Sync()
}

// Mount reads the superblock of an existing file system.
func Mount(dev BlockDev, cache *BufCache) (*FS, error) {
	fs := &FS{dev: dev, cache: cache, mem: cache.mem, clock: cache.clock}
	frame, err := cache.get(0, false)
	if err != nil {
		return nil, err
	}
	page := fs.mem.Page(frame)
	if binary.LittleEndian.Uint32(page[0:]) != fsMagic {
		return nil, fmt.Errorf("exos: bad file system magic")
	}
	fs.sb = superblock{
		nblocks:     binary.LittleEndian.Uint32(page[4:]),
		ninodes:     binary.LittleEndian.Uint32(page[8:]),
		bitmapBlk:   binary.LittleEndian.Uint32(page[12:]),
		inodeBlk:    binary.LittleEndian.Uint32(page[16:]),
		dataBlk:     binary.LittleEndian.Uint32(page[20:]),
		journalBlk:  binary.LittleEndian.Uint32(page[24:]),
		journalBlks: binary.LittleEndian.Uint32(page[28:]),
	}
	fs.clock.Tick(6)
	if fs.sb.journalBlks > 0 {
		if err := fs.enableJournal(); err != nil {
			return nil, err
		}
		if err := fs.jn.recover(); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// dataEnd is one past the last allocatable data block: the journal
// region at the extent tail is never handed out by allocBlock.
func (fs *FS) dataEnd() uint32 {
	if fs.sb.journalBlks > 0 {
		return fs.sb.journalBlk
	}
	return fs.sb.nblocks
}

// Journal exposes the write-ahead journal (stats; nil if non-journaled).
func (fs *FS) Journal() *Journal { return fs.jn }

// Advise sets the access-pattern hint subsequent reads carry into the
// cache policy (the application-to-policy channel of [10]).
func (fs *FS) Advise(advice int) { fs.advSequential = advice == AdviceSequential }

// Cache exposes the buffer cache (stats, policy swap).
func (fs *FS) Cache() *BufCache { return fs.cache }

// inode is the in-memory form: 12 direct blocks plus one single-indirect
// block of 1024 entries.
type inode struct {
	size     uint32
	used     uint32
	direct   [nDirect]uint32
	indirect uint32
}

func (fs *FS) inodeLoc(i Inum) (blk uint32, off uint32, err error) {
	if uint32(i) >= fs.sb.ninodes {
		return 0, 0, fmt.Errorf("exos: inode %d out of range", i)
	}
	return fs.sb.inodeBlk + uint32(i)/inodesPerBlk, (uint32(i) % inodesPerBlk) * inodeSize, nil
}

func (fs *FS) readInode(i Inum) (inode, error) {
	blk, off, err := fs.inodeLoc(i)
	if err != nil {
		return inode{}, err
	}
	frame, err := fs.cache.get(blk, false)
	if err != nil {
		return inode{}, err
	}
	p := fs.mem.Page(frame)[off:]
	var in inode
	in.size = binary.LittleEndian.Uint32(p[0:])
	in.used = binary.LittleEndian.Uint32(p[4:])
	for d := 0; d < nDirect; d++ {
		in.direct[d] = binary.LittleEndian.Uint32(p[8+4*d:])
	}
	in.indirect = binary.LittleEndian.Uint32(p[8+4*nDirect:])
	fs.clock.Tick(inodeSize / hw.WordSize)
	return in, nil
}

func (fs *FS) writeInode(i Inum, in inode) error {
	blk, off, err := fs.inodeLoc(i)
	if err != nil {
		return err
	}
	frame, err := fs.cache.get(blk, false)
	if err != nil {
		return err
	}
	p := fs.mem.Page(frame)[off:]
	binary.LittleEndian.PutUint32(p[0:], in.size)
	binary.LittleEndian.PutUint32(p[4:], in.used)
	for d := 0; d < nDirect; d++ {
		binary.LittleEndian.PutUint32(p[8+4*d:], in.direct[d])
	}
	binary.LittleEndian.PutUint32(p[8+4*nDirect:], in.indirect)
	fs.clock.Tick(inodeSize / hw.WordSize)
	fs.cache.markDirty(blk)
	return nil
}

// allocBlock finds a free data block in the bitmap.
func (fs *FS) allocBlock() (uint32, error) {
	frame, err := fs.cache.get(fs.sb.bitmapBlk, false)
	if err != nil {
		return 0, err
	}
	page := fs.mem.Page(frame)
	for b := fs.sb.dataBlk; b < fs.dataEnd(); b++ {
		byteIdx, bit := b/8, byte(1)<<(b%8)
		fs.clock.Tick(1)
		if page[byteIdx]&bit == 0 {
			page[byteIdx] |= bit
			fs.cache.markDirty(fs.sb.bitmapBlk)
			return b, nil
		}
	}
	return 0, fmt.Errorf("exos: file system full")
}

func (fs *FS) freeBlock(b uint32) error {
	frame, err := fs.cache.get(fs.sb.bitmapBlk, false)
	if err != nil {
		return err
	}
	fs.mem.Page(frame)[b/8] &^= byte(1) << (b % 8)
	fs.clock.Tick(2)
	fs.cache.markDirty(fs.sb.bitmapBlk)
	return nil
}

// indirectEntries is how many block pointers the indirect block holds.
const indirectEntries = hw.PageSize / hw.WordSize

// MaxFileSize is the largest file the direct plus single-indirect blocks
// hold (a little over 4 MB).
const MaxFileSize = (nDirect + indirectEntries) * hw.PageSize

// blockFor resolves file-block idx of an inode to a disk block, walking
// the indirect block through the cache. With alloc set, missing blocks
// (and the indirect block itself) are allocated; otherwise 0 means hole.
// It reports whether the inode was modified.
func (fs *FS) blockFor(in *inode, idx uint32, alloc bool) (blk uint32, changed bool, err error) {
	if idx < nDirect {
		if in.direct[idx] == 0 && alloc {
			b, err := fs.allocBlock()
			if err != nil {
				return 0, false, err
			}
			in.direct[idx] = b
			return b, true, nil
		}
		return in.direct[idx], false, nil
	}
	idx -= nDirect
	if idx >= indirectEntries {
		return 0, false, fmt.Errorf("exos: file block %d beyond maximum", idx+nDirect)
	}
	if in.indirect == 0 {
		if !alloc {
			return 0, false, nil
		}
		b, err := fs.allocBlock()
		if err != nil {
			return 0, false, err
		}
		frame, err := fs.cache.get(b, false)
		if err != nil {
			return 0, false, err
		}
		clear(fs.mem.Page(frame))
		fs.clock.Tick(hw.PageSize / hw.WordSize / 8)
		fs.cache.markDirty(b)
		in.indirect = b
		changed = true
	}
	frame, err := fs.cache.get(in.indirect, false)
	if err != nil {
		return 0, changed, err
	}
	p := fs.mem.Page(frame)[idx*hw.WordSize:]
	fs.clock.Tick(2)
	blk = binary.LittleEndian.Uint32(p)
	if blk == 0 && alloc {
		b, err := fs.allocBlock()
		if err != nil {
			return 0, changed, err
		}
		binary.LittleEndian.PutUint32(p, b)
		fs.cache.markDirty(in.indirect)
		blk = b
	}
	return blk, changed, nil
}

// Create makes an empty file and its directory entry.
func (fs *FS) Create(name string) (Inum, error) {
	if len(name) == 0 || len(name) > dirNameLen {
		return 0, fmt.Errorf("exos: bad file name %q", name)
	}
	if _, err := fs.Lookup(name); err == nil {
		return 0, fmt.Errorf("exos: %q exists", name)
	}
	// Find a free inode.
	var inum Inum
	found := false
	for i := Inum(1); uint32(i) < fs.sb.ninodes; i++ {
		in, err := fs.readInode(i)
		if err != nil {
			return 0, err
		}
		if in.used == 0 {
			inum, found = i, true
			break
		}
	}
	if !found {
		return 0, fmt.Errorf("exos: out of inodes")
	}
	if err := fs.writeInode(inum, inode{used: 1}); err != nil {
		return 0, err
	}
	if err := fs.addDirEnt(name, inum); err != nil {
		return 0, err
	}
	return inum, nil
}

// Lookup resolves a name in the root directory.
func (fs *FS) Lookup(name string) (Inum, error) {
	root, err := fs.readInode(rootInum)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, dirEntSize)
	for off := uint32(0); off < root.size; off += dirEntSize {
		if _, err := fs.readAt(rootInum, root, off, buf); err != nil {
			return 0, err
		}
		if entName(buf) == name {
			return Inum(binary.LittleEndian.Uint32(buf[dirNameLen:])), nil
		}
	}
	return 0, fmt.Errorf("exos: %q not found", name)
}

func entName(e []byte) string {
	n := 0
	for n < dirNameLen && e[n] != 0 {
		n++
	}
	return string(e[:n])
}

func (fs *FS) addDirEnt(name string, inum Inum) error {
	root, err := fs.readInode(rootInum)
	if err != nil {
		return err
	}
	// Reuse a tombstone if present.
	buf := make([]byte, dirEntSize)
	off := uint32(0)
	for ; off < root.size; off += dirEntSize {
		if _, err := fs.readAt(rootInum, root, off, buf); err != nil {
			return err
		}
		if buf[0] == 0 {
			break
		}
	}
	clear(buf)
	copy(buf[:dirNameLen], name)
	binary.LittleEndian.PutUint32(buf[dirNameLen:], uint32(inum))
	return fs.WriteAt(rootInum, off, buf)
}

// Unlink removes a name and frees its file.
func (fs *FS) Unlink(name string) error {
	root, err := fs.readInode(rootInum)
	if err != nil {
		return err
	}
	buf := make([]byte, dirEntSize)
	for off := uint32(0); off < root.size; off += dirEntSize {
		if _, err := fs.readAt(rootInum, root, off, buf); err != nil {
			return err
		}
		if entName(buf) != name {
			continue
		}
		inum := Inum(binary.LittleEndian.Uint32(buf[dirNameLen:]))
		// Tombstone the entry.
		clear(buf)
		if err := fs.WriteAt(rootInum, off, buf); err != nil {
			return err
		}
		// Free the file's blocks and inode.
		in, err := fs.readInode(inum)
		if err != nil {
			return err
		}
		for d := 0; d < nDirect; d++ {
			if in.direct[d] != 0 {
				if err := fs.freeBlock(in.direct[d]); err != nil {
					return err
				}
			}
		}
		if in.indirect != 0 {
			frame, err := fs.cache.get(in.indirect, false)
			if err != nil {
				return err
			}
			page := fs.mem.Page(frame)
			for e := uint32(0); e < indirectEntries; e++ {
				if b := binary.LittleEndian.Uint32(page[e*hw.WordSize:]); b != 0 {
					if err := fs.freeBlock(b); err != nil {
						return err
					}
				}
			}
			fs.clock.Tick(indirectEntries / 8)
			if err := fs.freeBlock(in.indirect); err != nil {
				return err
			}
		}
		return fs.writeInode(inum, inode{})
	}
	return fmt.Errorf("exos: %q not found", name)
}

// Size reports a file's length.
func (fs *FS) Size(i Inum) (uint32, error) {
	in, err := fs.readInode(i)
	if err != nil {
		return 0, err
	}
	if in.used == 0 {
		return 0, fmt.Errorf("exos: inode %d not in use", i)
	}
	return in.size, nil
}

// ReadAt fills buf from the file starting at off; short reads at EOF.
func (fs *FS) ReadAt(i Inum, off uint32, buf []byte) (int, error) {
	in, err := fs.readInode(i)
	if err != nil {
		return 0, err
	}
	return fs.readAt(i, in, off, buf)
}

func (fs *FS) readAt(i Inum, in inode, off uint32, buf []byte) (int, error) {
	if off >= in.size {
		return 0, nil
	}
	n := uint32(len(buf))
	if off+n > in.size {
		n = in.size - off
	}
	done := uint32(0)
	for done < n {
		blkIdx := (off + done) / hw.PageSize
		blkOff := (off + done) % hw.PageSize
		blk, _, err := fs.blockFor(&in, blkIdx, false)
		if err != nil {
			return int(done), err
		}
		chunk := hw.PageSize - blkOff
		if chunk > n-done {
			chunk = n - done
		}
		if blk == 0 {
			// Hole in a sparse file: reads as zeros, no disk traffic.
			clear(buf[done : done+chunk])
			fs.clock.Tick(uint64((chunk + 3) / 4))
			done += chunk
			continue
		}
		frame, err := fs.cache.get(blk, fs.advSequential)
		if err != nil {
			return int(done), err
		}
		fs.mem.CopyOut(buf[done:done+chunk], frame<<hw.PageShift+blkOff)
		done += chunk
	}
	return int(done), nil
}

// WriteAt stores buf into the file at off, growing it as needed (bounded
// by the direct blocks).
func (fs *FS) WriteAt(i Inum, off uint32, buf []byte) error {
	in, err := fs.readInode(i)
	if err != nil {
		return err
	}
	if in.used == 0 {
		return fmt.Errorf("exos: inode %d not in use", i)
	}
	end := off + uint32(len(buf))
	if end > MaxFileSize {
		return fmt.Errorf("exos: file too large (%d > %d)", end, MaxFileSize)
	}
	done := uint32(0)
	for done < uint32(len(buf)) {
		blkIdx := (off + done) / hw.PageSize
		blkOff := (off + done) % hw.PageSize
		blk, _, err := fs.blockFor(&in, blkIdx, true)
		if err != nil {
			return err
		}
		frame, err := fs.cache.get(blk, false)
		if err != nil {
			return err
		}
		chunk := hw.PageSize - blkOff
		if chunk > uint32(len(buf))-done {
			chunk = uint32(len(buf)) - done
		}
		fs.mem.CopyIn(frame<<hw.PageShift+blkOff, buf[done:done+chunk])
		fs.cache.markDirty(blk)
		done += chunk
	}
	if end > in.size {
		in.size = end
	}
	return fs.writeInode(i, in)
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name string
	Inum Inum
	Size uint32
}

// List enumerates the root directory.
func (fs *FS) List() ([]DirEntry, error) {
	root, err := fs.readInode(rootInum)
	if err != nil {
		return nil, err
	}
	var out []DirEntry
	buf := make([]byte, dirEntSize)
	for off := uint32(0); off < root.size; off += dirEntSize {
		if _, err := fs.readAt(rootInum, root, off, buf); err != nil {
			return nil, err
		}
		if buf[0] == 0 { // tombstone
			continue
		}
		inum := Inum(binary.LittleEndian.Uint32(buf[dirNameLen:]))
		size, err := fs.Size(inum)
		if err != nil {
			return nil, err
		}
		out = append(out, DirEntry{Name: entName(buf), Inum: inum, Size: size})
	}
	return out, nil
}

// Rename atomically gives file old the name new, replacing (and
// freeing) any existing file of that name. Under a journaled mount the
// whole operation — tombstone, replacement free, entry rewrite — lands
// in one commit, so a crash exposes either both names' old binding or
// the new one, never an intermediate.
func (fs *FS) Rename(old, new string) error {
	if len(new) == 0 || len(new) > dirNameLen {
		return fmt.Errorf("exos: bad file name %q", new)
	}
	if old == new {
		return nil
	}
	inum, err := fs.Lookup(old)
	if err != nil {
		return err
	}
	if _, err := fs.Lookup(new); err == nil {
		if err := fs.Unlink(new); err != nil {
			return err
		}
	}
	root, err := fs.readInode(rootInum)
	if err != nil {
		return err
	}
	buf := make([]byte, dirEntSize)
	for off := uint32(0); off < root.size; off += dirEntSize {
		if _, err := fs.readAt(rootInum, root, off, buf); err != nil {
			return err
		}
		if entName(buf) != old || Inum(binary.LittleEndian.Uint32(buf[dirNameLen:])) != inum {
			continue
		}
		clear(buf)
		copy(buf[:dirNameLen], new)
		binary.LittleEndian.PutUint32(buf[dirNameLen:], uint32(inum))
		return fs.WriteAt(rootInum, off, buf)
	}
	return fmt.Errorf("exos: %q not found", old)
}

// Sync makes every completed operation durable: through the journal
// commit on a journaled mount (atomic — a crash yields either the
// previous Sync's state or this one), or a plain ordered write-back on
// a legacy mount (not crash-consistent; that is what the journal is
// for).
func (fs *FS) Sync() error {
	if fs.jn != nil {
		return fs.jn.commit()
	}
	return fs.cache.Sync()
}

// NewFSCache is the convenience constructor ExOS applications use: it
// allocates cacheFrames physical pages (registering their capabilities
// with the device) and builds the cache.
func NewFSCache(os *LibOS, dev *AegisDev, cacheFrames int, policy CachePolicy) (*BufCache, error) {
	frames := make([]uint32, 0, cacheFrames)
	for i := 0; i < cacheFrames; i++ {
		f, guard, err := os.K.AllocPage(os.Env, aegis.AnyFrame)
		if err != nil {
			return nil, err
		}
		dev.RegisterFrame(f, guard)
		frames = append(frames, f)
	}
	return NewBufCache(os.K.M.Phys, os.K.M.Clock, dev, frames, policy), nil
}
