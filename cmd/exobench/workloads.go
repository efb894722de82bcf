package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"exokernel/internal/aegis"
	"exokernel/internal/asm"
	"exokernel/internal/ether"
	"exokernel/internal/exos"
	"exokernel/internal/hw"
	"exokernel/internal/pkt"
	"exokernel/internal/vm"
)

// The four workloads split the simulator by host path, after the paper's
// own path-by-path costing and the Appel–Li/ASH arguments it adopts:
// guest compute (matmul), traps (appel), the network (udp-echo) and
// storage (fs-journal). A saving on one path should show up on its own
// workload and leave the others unchanged.

// instance is one booted workload, ready for ops.
type instance interface {
	// op runs operation i; an error marks it failed.
	op(i int) error
	// counters reads the public counters of every layer the workload drives.
	counters() counters
	// verify checks outputs after the timed window, one line per wrong output.
	verify() []string
	// inputs is a digest of every input generated so far.
	inputs() uint64
}

// workload is one benchmark input family. Op counts make one timed
// window about 2 s on a 2-vCPU x86-64 VM; the same counts run on
// every commit.
type workload struct {
	name string
	ops  int // timed ops per round
	warm int // ops run before the timed window, as part of set-up
	boot func(seed uint64, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"matmul", 150, 8, bootMatmul},
	{"appel", 10000, 3, bootAppel},
	{"udp-echo", 750000, 1000, bootUDPEcho},
	{"fs-journal", 200000, 2000, bootFSJournal},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// counter indexes the public counters exobench reads. All are exact: the
// simulator is deterministic, so a seed fixes every one of them.
type counter int

const (
	cSimCycles counter = iota // the initiating machine's clock
	cVMSteps
	cExceptions
	cTLBMisses
	cSTLBHits
	cSyscalls
	cASHRuns
	cPktDelivered
	cPktDropped
	cTLBMutations
	cDiskReads
	cDiskWrites
	cDiskFlushes
	cDiskSeekBlocks
	cFaults
	cCacheHits
	cCacheMisses
	cWritebacks
	cFrames
	cDropped
	numCounters
)

type counters [numCounters]uint64

// addKernel adds one kernel's, and its machine's, counters.
func (c *counters) addKernel(k *aegis.Kernel) {
	s, m := &k.Stats, k.M
	c[cVMSteps] += k.Interp.Steps
	c[cExceptions] += s.Exceptions
	c[cTLBMisses] += s.TLBMisses
	c[cSTLBHits] += s.STLBHits
	c[cSyscalls] += s.Syscalls
	c[cASHRuns] += s.ASHRuns
	c[cPktDelivered] += s.PktDelivered
	c[cPktDropped] += s.PktDropped
	c[cTLBMutations] += m.TLB.Epoch()
	c[cDiskReads] += m.Disk.Reads
	c[cDiskWrites] += m.Disk.Writes
	c[cDiskFlushes] += m.Disk.Flushes
	c[cDiskSeekBlocks] += m.Disk.SeekBlocks
}

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// rng is splitmix64: every generated input comes from the seed.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// mix folds v into an FNV-style digest.
func mix(d, v uint64) uint64 { return (d ^ v) * 0x100000001B3 }

const digestInit = 0xCBF29CE484222325

// --- matmul ----------------------------------------------------------------

// matmulSrc multiplies row-major int32 matrices: a0=A, a1=B, a2=C, a3=n.
// Every data reference goes through the MMU.
const matmulSrc = `
		nop
	entry:
		addiu s0, zero, 0      ; i
	iloop:
		addiu s1, zero, 0      ; j
	jloop:
		addiu s2, zero, 0      ; k
		addiu t7, zero, 0      ; acc
	kloop:
		mul   t1, s0, a3
		addu  t1, t1, s2
		sll   t1, t1, 2
		addu  t1, t1, a0
		lw    t0, 0(t1)        ; A[i*n+k]
		mul   t3, s2, a3
		addu  t3, t3, s1
		sll   t3, t3, 2
		addu  t3, t3, a1
		lw    t2, 0(t3)        ; B[k*n+j]
		mul   t4, t0, t2
		addu  t7, t7, t4
		addiu s2, s2, 1
		bne   s2, a3, kloop
		mul   t5, s0, a3
		addu  t5, t5, s1
		sll   t5, t5, 2
		addu  t5, t5, a2
		sw    t7, 0(t5)        ; C[i*n+j] = acc
		addiu s1, s1, 1
		bne   s1, a3, jloop
		addiu s0, s0, 1
		bne   s0, a3, iloop
		halt
`

const (
	matN       = 64
	matTriples = 8 // 8 × 3 matrices × 4 pages = 96 pages, beyond the 64-entry TLB
	matPages   = matN * matN * 4 / hw.PageSize
	matBase    = 0x0100_0000
	matSteps   = matN*matN*matN*24 + 4096
)

type matmul struct {
	k      *aegis.Kernel
	env    *aegis.Env
	entry  uint32
	tr     *tracer
	frames [matTriples][3][matPages]uint32
	ref    [matTriples][]int32 // host reference product per triple
	digest uint64
}

// matVA is the virtual base of matrix j (0=A, 1=B, 2=C) of triple t.
func matVA(t, j int) uint32 { return matBase + uint32((t*3+j)*matPages)*hw.PageSize }

func bootMatmul(seed uint64, tr *tracer) (instance, error) {
	m := hw.NewMachine(hw.DEC5000)
	k := aegis.New(m)
	code, labels, err := asm.AssembleWithLabels(matmulSrc)
	if err != nil {
		return nil, err
	}
	env, err := k.NewEnv(code)
	if err != nil {
		return nil, err
	}
	os := exos.Attach(k, env)
	w := &matmul{k: k, env: env, entry: uint32(labels["entry"]), tr: tr, digest: digestInit}
	r := rng(seed)
	for t := 0; t < matTriples; t++ {
		var in [2][]int32
		for j := 0; j < 3; j++ {
			for p := 0; p < matPages; p++ {
				f, err := os.AllocAndMap(matVA(t, j) + uint32(p*hw.PageSize))
				if err != nil {
					return nil, err
				}
				w.frames[t][j][p] = f
			}
			if j == 2 {
				break
			}
			in[j] = make([]int32, matN*matN)
			for e := range in[j] {
				v := int32(r.next()%2001) - 1000
				in[j][e] = v
				w.digest = mix(w.digest, uint64(v))
				off := e * 4
				binary.LittleEndian.PutUint32(m.Phys.Page(w.frames[t][j][off/hw.PageSize])[off%hw.PageSize:], uint32(v))
			}
		}
		ref := make([]int32, matN*matN)
		for i := 0; i < matN; i++ {
			for j := 0; j < matN; j++ {
				var acc int32
				for x := 0; x < matN; x++ {
					acc += in[0][i*matN+x] * in[1][x*matN+j]
				}
				ref[i*matN+j] = acc
			}
		}
		w.ref[t] = ref
	}
	return w, nil
}

func (w *matmul) op(i int) error {
	t := i % matTriples
	cpu := &w.k.M.CPU
	w.env.PC = w.entry
	cpu.PC = w.entry
	cpu.SetReg(hw.RegA0, matVA(t, 0))
	cpu.SetReg(hw.RegA1, matVA(t, 1))
	cpu.SetReg(hw.RegA2, matVA(t, 2))
	cpu.SetReg(hw.RegA3, matN)
	w.tr.begin(spanVMRun)
	stop := w.k.Interp.Run(matSteps)
	w.tr.end()
	if stop != vm.StopHalt || w.env.Dead {
		return fmt.Errorf("matmul op %d: guest stopped with %v, dead=%v", i, stop, w.env.Dead)
	}
	return nil
}

func (w *matmul) counters() counters {
	var c counters
	c.addKernel(w.k)
	c[cSimCycles] = w.k.M.Clock.Cycles()
	return c
}

// verify compares every C matrix, read through PhysMem.Page, with the host
// product. Each C holds the output of the last op on its triple.
func (w *matmul) verify() []string {
	var bad []string
	for t := range w.ref {
		for e, want := range w.ref[t] {
			off := e * 4
			got := int32(binary.LittleEndian.Uint32(w.k.M.Phys.Page(w.frames[t][2][off/hw.PageSize])[off%hw.PageSize:]))
			if got != want {
				bad = append(bad, fmt.Sprintf("matmul triple %d: C[%d][%d] = %d, want %d", t, e/matN, e%matN, got, want))
				break
			}
		}
	}
	return bad
}

func (w *matmul) inputs() uint64 { return w.digest }

// --- appel -----------------------------------------------------------------

// appelSrc stamps and scans each page: a0=first page, a1=pages, a2=stamp,
// a3=words scanned per page. The stamp store faults on a protected page.
const appelSrc = `
		nop
	entry:
		addiu s0, zero, 0      ; page index
	page:
		sll   t0, s0, 12
		addu  t0, t0, a0
		sw    a2, 0(t0)        ; stamp
		addiu s1, zero, 0      ; word index
		addiu t7, zero, 0
	scan:
		sll   t1, s1, 2
		addu  t1, t1, t0
		lw    t2, 0(t1)
		addu  t7, t7, t2
		addiu s1, s1, 1
		bne   s1, a3, scan
		addiu s0, s0, 1
		bne   s0, a1, page
		halt
`

const (
	appelPages    = 100
	appelWritable = 20 // the seeded subset ProtectN leaves alone
	appelScan     = 16
	appelBase     = 0x6000_0000
	appelSteps    = appelPages*(appelScan*6+8) + 4096
)

type appel struct {
	k         *aegis.Kernel
	env       *aegis.Env
	os        *exos.LibOS
	entry     uint32
	tr        *tracer
	frames    [appelPages]uint32
	protected []uint32 // VAs, ascending
	isProt    [appelPages]bool
	faults    [appelPages]int // OnFault upcalls per page
	r         rng
	stamp     uint32
	n         int // ops run
	digest    uint64
}

func bootAppel(seed uint64, tr *tracer) (instance, error) {
	m := hw.NewMachine(hw.DEC5000)
	k := aegis.New(m)
	code, labels, err := asm.AssembleWithLabels(appelSrc)
	if err != nil {
		return nil, err
	}
	env, err := k.NewEnv(code)
	if err != nil {
		return nil, err
	}
	w := &appel{k: k, env: env, os: exos.Attach(k, env), entry: uint32(labels["entry"]), tr: tr, r: rng(seed), digest: digestInit}
	for i := range w.frames {
		if w.frames[i], err = w.os.AllocAndMap(appelBase + uint32(i)*hw.PageSize); err != nil {
			return nil, err
		}
	}
	// A seeded choice of which pages stay writable; the count is fixed so
	// every seed does the same amount of work.
	writable := map[int]bool{}
	for len(writable) < appelWritable {
		writable[int(w.r.next()%appelPages)] = true
	}
	for i := 0; i < appelPages; i++ {
		if !writable[i] {
			w.isProt[i] = true
			w.protected = append(w.protected, appelBase+uint32(i)*hw.PageSize)
			w.digest = mix(w.digest, uint64(i))
		}
	}
	w.os.OnFault = func(o *exos.LibOS, va uint32, write bool) bool {
		w.tr.begin(spanOnFault)
		w.faults[(va-appelBase)/hw.PageSize]++
		ok := o.Unprotect(va&^(hw.PageSize-1)) == nil
		w.tr.end()
		return ok
	}
	return w, nil
}

func (w *appel) op(i int) error {
	w.stamp = uint32(w.r.next())
	w.digest = mix(w.digest, uint64(w.stamp))
	w.n++
	w.tr.begin(spanProtectN)
	err := w.os.ProtectN(w.protected)
	w.tr.end()
	if err != nil {
		return fmt.Errorf("appel op %d: %w", i, err)
	}
	cpu := &w.k.M.CPU
	w.env.PC = w.entry
	cpu.PC = w.entry
	cpu.SetReg(hw.RegA0, appelBase)
	cpu.SetReg(hw.RegA1, appelPages)
	cpu.SetReg(hw.RegA2, w.stamp)
	cpu.SetReg(hw.RegA3, appelScan)
	w.tr.begin(spanVMRun)
	stop := w.k.Interp.Run(appelSteps)
	w.tr.end()
	if stop != vm.StopHalt || w.env.Dead {
		return fmt.Errorf("appel op %d: guest stopped with %v, dead=%v", i, stop, w.env.Dead)
	}
	return nil
}

func (w *appel) counters() counters {
	var c counters
	c.addKernel(w.k)
	c[cSimCycles] = w.k.M.Clock.Cycles()
	c[cFaults] = w.os.Faults
	return c
}

// verify: every protected page faulted exactly once per op, no writable
// page faulted, and every page holds the last op's stamp.
func (w *appel) verify() []string {
	var bad []string
	for p := range w.frames {
		want := 0
		if w.isProt[p] {
			want = w.n
		}
		if w.faults[p] != want {
			bad = append(bad, fmt.Sprintf("appel page %d: %d faults over %d ops, want %d", p, w.faults[p], w.n, want))
		}
		if got := binary.LittleEndian.Uint32(w.k.M.Phys.Page(w.frames[p])); got != w.stamp {
			bad = append(bad, fmt.Sprintf("appel page %d: stamp %#x, want %#x", p, got, w.stamp))
		}
	}
	return bad
}

func (w *appel) inputs() uint64 { return w.digest }

// --- udp-echo --------------------------------------------------------------

const (
	udpPayload = 18 // a 60-byte frame before the trace trailer
	ashPort    = 7
	appPort    = 9
	clientPort = 1000
	echoGuard  = 64 // scheduling rounds before a reply counts as lost
)

var (
	macA, macB = pkt.Addr{0xA}, pkt.Addr{0xB}
	ipA, ipB   = pkt.IP(10, 0, 0, 1), pkt.IP(10, 0, 0, 2)
)

type udpEcho struct {
	seg     *ether.Segment
	ka, kb  *aegis.Kernel
	client  *exos.UDPSocket
	tr      *tracer
	r       rng
	payload [udpPayload]byte
	digest  uint64
}

func bootUDPEcho(seed uint64, tr *tracer) (instance, error) {
	w := &udpEcho{seg: ether.NewSegment(), tr: tr, r: rng(seed), digest: digestInit}
	ma, mb := hw.NewMachine(hw.DEC5000), hw.NewMachine(hw.DEC5000)
	w.ka, w.kb = aegis.New(ma), aegis.New(mb)
	w.seg.Attach(ma)
	w.seg.Attach(mb)
	w.ka.SetQuantum(6250)
	w.kb.SetQuantum(6250)
	netA := exos.NewNet(w.ka, macA, ipA)
	netB := exos.NewNet(w.kb, macB, ipB)
	osA, err := exos.Boot(w.ka)
	if err != nil {
		return nil, err
	}
	if w.client, err = netA.Bind(osA, clientPort); err != nil {
		return nil, err
	}
	osASH, err := exos.Boot(w.kb)
	if err != nil {
		return nil, err
	}
	ashSock, err := netB.Bind(osASH, ashPort)
	if err != nil {
		return nil, err
	}
	if err := ashSock.AttachEchoASH(); err != nil {
		return nil, err
	}
	osApp, err := exos.Boot(w.kb)
	if err != nil {
		return nil, err
	}
	appSock, err := netB.Bind(osApp, appPort)
	if err != nil {
		return nil, err
	}
	osApp.Env.NativeRun = func(k *aegis.Kernel) {
		w.tr.begin(spanAppEcho)
		for {
			w.tr.begin(spanUDPRecv)
			data, flow, ok := appSock.TryRecv()
			w.tr.end()
			if !ok {
				break
			}
			w.tr.begin(spanUDPSend)
			appSock.SendTo(macA, flow.SrcIP, flow.SrcPort, data)
			w.tr.end()
		}
		w.tr.end()
	}
	for i := 0; i < 2; i++ {
		if _, err := exos.NewSpinner(w.kb); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *udpEcho) op(i int) error {
	x := w.r.next()
	port := uint16(ashPort)
	if x&1 != 0 {
		port = appPort
	}
	w.digest = mix(w.digest, x)
	for j := 0; j < udpPayload; j += 8 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w.r.next())
		copy(w.payload[j:], b[:])
	}
	w.digest = mix(w.digest, binary.LittleEndian.Uint64(w.payload[:]))
	w.tr.begin(spanUDPSend)
	w.client.SendTo(macB, ipB, port, w.payload[:])
	w.tr.end()
	var err error
	for guard := 0; w.client.Pending() == 0; guard++ {
		w.tr.begin(spanDispatchNative)
		ok := w.kb.DispatchNative()
		w.tr.end()
		if !ok || guard == echoGuard {
			err = fmt.Errorf("udp-echo op %d: no reply from port %d", i, port)
			break
		}
	}
	for w.client.Pending() > 0 {
		w.tr.begin(spanUDPRecv)
		data, _, _ := w.client.TryRecv()
		w.tr.end()
		// The echo must carry back exactly what was sent; comparing
		// 18 bytes costs no more than a counter, so it runs inline.
		if err == nil && !bytes.Equal(data, w.payload[:]) {
			err = fmt.Errorf("udp-echo op %d: echo %x, sent %x", i, data, w.payload)
		}
	}
	w.tr.begin(spanEtherSync)
	w.seg.Sync()
	w.tr.end()
	return err
}

func (w *udpEcho) counters() counters {
	var c counters
	c.addKernel(w.ka)
	c.addKernel(w.kb)
	c[cSimCycles] = w.ka.M.Clock.Cycles()
	c[cFrames] = w.seg.Frames
	c[cDropped] = w.seg.Dropped
	return c
}

func (w *udpEcho) verify() []string { return nil }

func (w *udpEcho) inputs() uint64 { return w.digest }

// --- fs-journal ------------------------------------------------------------

const (
	fsFiles       = 16
	fsFileBlocks  = 16 // 256 data blocks against a 32-frame cache
	fsCacheFrames = 32
	fsExtent      = 512
	fsInodes      = 32
	fsJournalBlks = 40 // slots must cover the cache: one Sync is one transaction
	fsPool        = 16 // distinct block bodies writes draw from
)

// blockVer names the content last written to a block: a pool body with the
// write's sequence number in its first 8 bytes.
type blockVer struct {
	seq uint64
	idx int
}

type fsJournal struct {
	k      *aegis.Kernel
	fs     *exos.FS
	tr     *tracer
	r      rng
	inums  [fsFiles]exos.Inum
	pool   [fsPool][]byte
	model  [fsFiles][fsFileBlocks]blockVer
	seq    uint64
	buf    []byte
	digest uint64
}

func bootFSJournal(seed uint64, tr *tracer) (instance, error) {
	m := hw.NewMachine(hw.DEC5000)
	k := aegis.New(m)
	os, err := exos.Boot(k)
	if err != nil {
		return nil, err
	}
	dev, err := exos.NewAegisDev(os, fsExtent)
	if err != nil {
		return nil, err
	}
	cache, err := exos.NewFSCache(os, dev, fsCacheFrames, exos.NewLRU())
	if err != nil {
		return nil, err
	}
	fs, err := exos.FormatJournaled(dev, cache, fsInodes, fsJournalBlks)
	if err != nil {
		return nil, err
	}
	w := &fsJournal{k: k, fs: fs, tr: tr, r: rng(seed), buf: make([]byte, hw.PageSize), digest: digestInit}
	for i := range w.pool {
		w.pool[i] = make([]byte, hw.PageSize)
		for j := 0; j < hw.PageSize; j += 8 {
			binary.LittleEndian.PutUint64(w.pool[i][j:], w.r.next())
		}
	}
	for f := range w.inums {
		if w.inums[f], err = fs.Create(fmt.Sprintf("f%02d", f)); err != nil {
			return nil, err
		}
		for b := 0; b < fsFileBlocks; b++ {
			if err := w.write(f, b, int(w.r.next()%fsPool)); err != nil {
				return nil, err
			}
		}
	}
	if err := fs.Sync(); err != nil {
		return nil, err
	}
	return w, nil
}

// write overwrites block b of file f with pool body idx, stamped with the
// next sequence number, and records it in the model.
func (w *fsJournal) write(f, b, idx int) error {
	w.seq++
	copy(w.buf, w.pool[idx])
	binary.LittleEndian.PutUint64(w.buf, w.seq)
	w.model[f][b] = blockVer{seq: w.seq, idx: idx}
	return w.fs.WriteAt(w.inums[f], uint32(b*hw.PageSize), w.buf)
}

// matches reports whether buf holds the model's last write to (f, b); a
// prefix-only check costs almost nothing, so reads run it inline and the
// whole bodies are compared after the timed window.
func (w *fsJournal) matches(f, b int, buf []byte, whole bool) bool {
	v := w.model[f][b]
	if binary.LittleEndian.Uint64(buf) != v.seq {
		return false
	}
	if whole {
		return bytes.Equal(buf[8:], w.pool[v.idx][8:])
	}
	return bytes.Equal(buf[hw.PageSize-8:], w.pool[v.idx][hw.PageSize-8:])
}

// op: 70% 4 KB read, 25% 4 KB overwrite, 5% Sync (a journal commit).
func (w *fsJournal) op(i int) error {
	x := w.r.next()
	w.digest = mix(w.digest, x)
	f, b := int((x>>8)%fsFiles), int((x>>16)%fsFileBlocks)
	switch pct := x % 100; {
	case pct < 70:
		w.tr.begin(spanFSRead)
		n, err := w.fs.ReadAt(w.inums[f], uint32(b*hw.PageSize), w.buf)
		w.tr.end()
		if err != nil || n != hw.PageSize {
			return fmt.Errorf("fs-journal op %d: read f%02d block %d: n=%d err=%v", i, f, b, n, err)
		}
		if !w.matches(f, b, w.buf, false) {
			return fmt.Errorf("fs-journal op %d: read f%02d block %d: stale or torn data", i, f, b)
		}
	case pct < 95:
		w.tr.begin(spanFSWrite)
		err := w.write(f, b, int((x>>24)%fsPool))
		w.tr.end()
		if err != nil {
			return fmt.Errorf("fs-journal op %d: write f%02d block %d: %w", i, f, b, err)
		}
	default:
		w.tr.begin(spanFSSync)
		err := w.fs.Sync()
		w.tr.end()
		if err != nil {
			return fmt.Errorf("fs-journal op %d: sync: %w", i, err)
		}
	}
	return nil
}

func (w *fsJournal) counters() counters {
	var c counters
	c.addKernel(w.k)
	c[cSimCycles] = w.k.M.Clock.Cycles()
	cache := w.fs.Cache()
	c[cCacheHits] = cache.Hits
	c[cCacheMisses] = cache.Misses
	c[cWritebacks] = cache.Writebacks
	return c
}

// verify reads every block back against the model, then commits and runs
// the fsck-style audit.
func (w *fsJournal) verify() []string {
	var bad []string
	for f := range w.inums {
		for b := 0; b < fsFileBlocks; b++ {
			n, err := w.fs.ReadAt(w.inums[f], uint32(b*hw.PageSize), w.buf)
			if err != nil || n != hw.PageSize || !w.matches(f, b, w.buf, true) {
				bad = append(bad, fmt.Sprintf("fs-journal f%02d block %d: does not hold its last write (n=%d err=%v)", f, b, n, err))
			}
		}
	}
	if err := w.fs.Sync(); err != nil {
		return append(bad, fmt.Sprintf("fs-journal final sync: %v", err))
	}
	audit, err := w.fs.Audit()
	if err != nil {
		return append(bad, fmt.Sprintf("fs-journal audit: %v", err))
	}
	for _, a := range audit {
		bad = append(bad, "fs-journal audit: "+a)
	}
	return bad
}

func (w *fsJournal) inputs() uint64 { return w.digest }
