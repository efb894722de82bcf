// Package exokernel's benchmarks regenerate the paper's evaluation under
// `go test -bench`. Each BenchmarkTableN_* / BenchmarkFigN_* corresponds to
// a table or figure of the paper; the simulated result is reported via the
// "sim-us/op" metric (cycles on the simulated 25 MHz machine), while the
// standard ns/op column measures the simulator's host cost. For the packet
// filter comparison (Table 7) the host wall clock itself is the meaningful
// axis, exactly as the paper measured DPF in user space.
//
// The printable tables (paper value next to measured value) come from
// `go run ./cmd/aegisbench`.
package exokernel

import (
	"testing"

	"exokernel/internal/aegis"
	"exokernel/internal/bench"
	"exokernel/internal/dpf"
	"exokernel/internal/ether"
	"exokernel/internal/exos"
	"exokernel/internal/hw"
	"exokernel/internal/mpf"
	"exokernel/internal/pathfinder"
	"exokernel/internal/pkt"
	"exokernel/internal/stride"
	"exokernel/internal/ultrix"
)

// simPerOp measures fn b.N times and reports mean simulated microseconds
// beside the host ns/op and allocs/op.
func simPerOp(b *testing.B, m *hw.Machine, fn func()) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	start := m.Clock.Cycles()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.ReportMetric(m.Micros(m.Clock.Cycles()-start)/float64(b.N), "sim-us/op")
}

func newAegis() (*hw.Machine, *aegis.Kernel) {
	m := hw.NewMachine(hw.DEC5000)
	return m, aegis.New(m)
}

func newUltrix() (*hw.Machine, *ultrix.Kernel) {
	m := hw.NewMachine(hw.DEC5000)
	return m, ultrix.New(m)
}

// --- Table 2: null procedure and system call ---------------------------

func BenchmarkTable2_AegisNullSyscall(b *testing.B) {
	m, k := newAegis()
	env, err := k.NewEnv(nil)
	if err != nil {
		b.Fatal(err)
	}
	env.NativeExc = func(k *aegis.Kernel, t aegis.TrapInfo) {}
	simPerOp(b, m, func() {
		m.CPU.SetReg(hw.RegV0, aegis.SysNull)
		m.RaiseException(hw.ExcSyscall, 0, 0)
	})
}

func BenchmarkTable2_UltrixGetpid(b *testing.B) {
	m, k := newUltrix()
	p := k.NewProc(nil)
	simPerOp(b, m, func() { k.Getpid(p) })
}

// --- Table 3: primitive operations --------------------------------------

func BenchmarkTable3_YieldPair(b *testing.B) {
	m, k := newAegis()
	a, _ := k.NewEnv(nil)
	bb, _ := k.NewEnv(nil)
	simPerOp(b, m, func() {
		if k.CurEnv() == a {
			k.Yield(bb.ID)
		} else {
			k.Yield(a.ID)
		}
	})
}

func BenchmarkTable3_AllocDeallocPage(b *testing.B) {
	m, k := newAegis()
	env, _ := k.NewEnv(nil)
	simPerOp(b, m, func() {
		f, g, err := k.AllocPage(env, aegis.AnyFrame)
		if err != nil {
			b.Fatal(err)
		}
		if err := k.DeallocPage(f, g); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkTable3_InstallMapping(b *testing.B) {
	m, k := newAegis()
	env, _ := k.NewEnv(nil)
	f, g, err := k.AllocPage(env, aegis.AnyFrame)
	if err != nil {
		b.Fatal(err)
	}
	simPerOp(b, m, func() {
		if err := k.InstallMapping(env, 0x4000_0000, f, hw.PermWrite, g); err != nil {
			b.Fatal(err)
		}
	})
}

// --- Table 4/5: exception dispatch --------------------------------------

func BenchmarkTable4_AegisExceptionRoundTrip(b *testing.B) {
	m, k := newAegis()
	env, _ := k.NewEnv(nil)
	env.NativeExc = func(k *aegis.Kernel, t aegis.TrapInfo) {
		k.ReturnFromException(env, aegis.ResumeSkip)
	}
	simPerOp(b, m, func() { m.RaiseException(hw.ExcOverflow, 0, 0) })
}

func BenchmarkTable4_UltrixSignalRoundTrip(b *testing.B) {
	m, k := newUltrix()
	p := k.NewProc(nil)
	p.NativeSig = func(k *ultrix.Kernel, p *ultrix.Proc, c hw.Exc, va uint32) ultrix.SigAction {
		return ultrix.SigSkip
	}
	simPerOp(b, m, func() { m.RaiseException(hw.ExcOverflow, 0, 0) })
}

func BenchmarkTable5_AegisProtTrap(b *testing.B) {
	m, k := newAegis()
	os, err := exos.Boot(k)
	if err != nil {
		b.Fatal(err)
	}
	const va = 0x5000_0000
	if _, err := os.AllocAndMap(va); err != nil {
		b.Fatal(err)
	}
	if err := os.TouchWrite(va); err != nil {
		b.Fatal(err)
	}
	os.OnFault = func(o *exos.LibOS, fva uint32, w bool) bool {
		return o.Unprotect(fva&^(hw.PageSize-1)) == nil
	}
	simPerOp(b, m, func() {
		if err := os.Protect(va); err != nil {
			b.Fatal(err)
		}
		if err := os.TouchWrite(va); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkTable5_UltrixProtTrap(b *testing.B) {
	m, k := newUltrix()
	p := k.NewProc(nil)
	const va = 0x5000_0000
	if err := k.MapPage(p, va, true); err != nil {
		b.Fatal(err)
	}
	if err := k.TouchWrite(p, va); err != nil {
		b.Fatal(err)
	}
	p.NativeSig = func(k *ultrix.Kernel, pr *ultrix.Proc, c hw.Exc, fva uint32) ultrix.SigAction {
		if err := k.Mprotect(pr, []uint32{fva &^ (hw.PageSize - 1)}, true); err != nil {
			return ultrix.SigKill
		}
		return ultrix.SigRetry
	}
	simPerOp(b, m, func() {
		if err := k.Mprotect(p, []uint32{va}, false); err != nil {
			b.Fatal(err)
		}
		if err := k.TouchWrite(p, va); err != nil {
			b.Fatal(err)
		}
	})
}

// --- Table 6: protected control transfer --------------------------------

func BenchmarkTable6_ProtectedControlTransfer(b *testing.B) {
	m, k := newAegis()
	a, _ := k.NewEnv(nil)
	srv, _ := k.NewEnv(nil)
	srv.NativeEntry = func(k *aegis.Kernel, caller aegis.EnvID) {
		if err := k.ProtCall(a.ID, false); err != nil {
			b.Fatal(err)
		}
	}
	a.NativeEntry = func(k *aegis.Kernel, caller aegis.EnvID) {}
	simPerOp(b, m, func() {
		if err := k.ProtCall(srv.ID, false); err != nil {
			b.Fatal(err)
		}
	})
}

// --- Table 7: packet filters (host wall clock, like the paper) -----------

func table7Workload(b *testing.B) ([]pkt.Flow, []byte) {
	b.Helper()
	flows := make([]pkt.Flow, 10)
	for i := range flows {
		flows[i] = pkt.Flow{
			Proto: pkt.ProtoTCP,
			SrcIP: pkt.IP(18, 26, 0, byte(10+i)), DstIP: pkt.IP(18, 26, 0, 1),
			SrcPort: uint16(2000 + i), DstPort: uint16(4000 + i),
		}
	}
	return flows, pkt.Build(pkt.Addr{2}, pkt.Addr{1}, flows[9], []byte("payload"))
}

func BenchmarkTable7_DPF(b *testing.B) {
	b.ReportAllocs()
	flows, frame := table7Workload(b)
	e := dpf.NewEngine()
	for _, f := range flows {
		if _, err := e.Insert(dpf.FlowFilter(f)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.Classify(frame); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTable7_MPF(b *testing.B) {
	b.ReportAllocs()
	flows, frame := table7Workload(b)
	e := mpf.NewEngine()
	for _, f := range flows {
		if _, err := e.Insert(mpf.FlowProgram(f)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.Classify(frame); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkTable7_PATHFINDER(b *testing.B) {
	b.ReportAllocs()
	flows, frame := table7Workload(b)
	e := pathfinder.NewEngine()
	for _, f := range flows {
		if _, err := e.Insert(pathfinder.FlowPattern(f)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.Classify(frame); !ok {
			b.Fatal("miss")
		}
	}
}

// --- Table 8 / 12: IPC ----------------------------------------------------

func BenchmarkTable8_ExOSPipe(b *testing.B) {
	_, k := newAegis()
	a, err := exos.Boot(k)
	if err != nil {
		b.Fatal(err)
	}
	bb, err := exos.Boot(k)
	if err != nil {
		b.Fatal(err)
	}
	pa, pb, err := exos.NewPipe(a, bb)
	if err != nil {
		b.Fatal(err)
	}
	simPerOp(b, k.M, func() {
		pa.Write(1)
		pb.Read()
	})
}

func BenchmarkTable8_UltrixPipe(b *testing.B) {
	m, k := newUltrix()
	p1 := k.NewProc(nil)
	p2 := k.NewProc(nil)
	pipe := k.NewPipe()
	simPerOp(b, m, func() {
		pipe.WriteWord(p1, 1)
		pipe.ReadWord(p2)
	})
}

func BenchmarkTable8_ExOSShm(b *testing.B) {
	_, k := newAegis()
	a, _ := exos.Boot(k)
	bb, _ := exos.Boot(k)
	sa, sb, err := exos.NewShm(a, bb)
	if err != nil {
		b.Fatal(err)
	}
	i := uint32(0)
	simPerOp(b, k.M, func() {
		i++
		sa.Store(i)
		sb.AwaitChange(i - 1)
	})
}

func BenchmarkTable8_LRPC(b *testing.B) {
	benchRPC(b, false)
}

func BenchmarkTable12_TLRPC(b *testing.B) {
	benchRPC(b, true)
}

func benchRPC(b *testing.B, trusted bool) {
	b.Helper()
	_, k := newAegis()
	sOS, err := exos.Boot(k)
	if err != nil {
		b.Fatal(err)
	}
	cOS, err := exos.Boot(k)
	if err != nil {
		b.Fatal(err)
	}
	srv := exos.NewServer(sOS)
	srv.Register(1, func(args [4]uint32) [2]uint32 { return [2]uint32{args[0] + 1, 0} })
	cli := exos.NewClient(cOS, srv, trusted)
	simPerOp(b, k.M, func() {
		if _, err := cli.Call(1, [4]uint32{1}); err != nil {
			b.Fatal(err)
		}
	})
}

// --- Table 9 / 10: virtual memory ----------------------------------------

func BenchmarkTable9_MatmulBothSystems(b *testing.B) {
	// One full Table 9 run (both kernels) per iteration, small matrix.
	old := bench.Table9MatrixN
	bench.Table9MatrixN = 48
	defer func() { bench.Table9MatrixN = old }()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.Table9()
	}
}

func BenchmarkTable10_ExOSDirtyQuery(b *testing.B) {
	_, k := newAegis()
	os, err := exos.Boot(k)
	if err != nil {
		b.Fatal(err)
	}
	const va = 0x6000_0000
	if _, err := os.AllocAndMap(va); err != nil {
		b.Fatal(err)
	}
	if err := os.TouchWrite(va); err != nil {
		b.Fatal(err)
	}
	simPerOp(b, k.M, func() {
		if !os.IsDirty(va) {
			b.Fatal("not dirty")
		}
	})
}

func BenchmarkTable10_ExOSProtUnprot(b *testing.B) {
	_, k := newAegis()
	os, err := exos.Boot(k)
	if err != nil {
		b.Fatal(err)
	}
	const va = 0x6000_0000
	if _, err := os.AllocAndMap(va); err != nil {
		b.Fatal(err)
	}
	if err := os.TouchWrite(va); err != nil {
		b.Fatal(err)
	}
	simPerOp(b, k.M, func() {
		if err := os.Protect(va); err != nil {
			b.Fatal(err)
		}
		if err := os.Unprotect(va); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkTable10_UltrixMprotect(b *testing.B) {
	m, k := newUltrix()
	p := k.NewProc(nil)
	const va = 0x6000_0000
	if err := k.MapPage(p, va, true); err != nil {
		b.Fatal(err)
	}
	vas := []uint32{va}
	simPerOp(b, m, func() {
		if err := k.Mprotect(p, vas, false); err != nil {
			b.Fatal(err)
		}
		if err := k.Mprotect(p, vas, true); err != nil {
			b.Fatal(err)
		}
	})
}

// --- Table 11 / Figure 2: network round trips -----------------------------

func benchRoundTrip(b *testing.B, ash bool, spinners int) {
	b.ReportAllocs()
	seg := ether.NewSegment()
	ma, ka := newAegis()
	mb, kb := newAegis()
	seg.Attach(ma)
	seg.Attach(mb)
	ka.SetQuantum(6250)
	kb.SetQuantum(6250)
	netA := exos.NewNet(ka, pkt.Addr{0xA}, pkt.IP(10, 0, 0, 1))
	netB := exos.NewNet(kb, pkt.Addr{0xB}, pkt.IP(10, 0, 0, 2))
	osA, _ := exos.Boot(ka)
	osB, _ := exos.Boot(kb)
	sockA, err := netA.Bind(osA, 7)
	if err != nil {
		b.Fatal(err)
	}
	sockB, err := netB.Bind(osB, 7)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < spinners; i++ {
		if _, err := exos.NewSpinner(kb); err != nil {
			b.Fatal(err)
		}
	}
	if ash {
		if err := sockB.AttachEchoASH(); err != nil {
			b.Fatal(err)
		}
	} else {
		osB.Env.NativeRun = func(k *aegis.Kernel) {
			for {
				data, flow, ok := sockB.TryRecv()
				if !ok {
					return
				}
				sockB.SendTo(pkt.Addr{0xA}, flow.SrcIP, flow.SrcPort, data)
			}
		}
	}
	payload := make([]byte, 18)
	b.ResetTimer()
	start := ma.Clock.Cycles()
	for i := 0; i < b.N; i++ {
		sockA.SendTo(pkt.Addr{0xB}, pkt.IP(10, 0, 0, 2), 7, payload)
		guard := 0
		for sockA.Pending() == 0 {
			if !kb.DispatchNative() && sockA.Pending() == 0 {
				b.Fatal("reply lost")
			}
			if guard++; guard > 1000000 {
				b.Fatal("no reply")
			}
		}
		sockA.TryRecv()
		seg.Sync()
	}
	b.ReportMetric(ma.Micros(ma.Clock.Cycles()-start)/float64(b.N), "sim-us/op")
	_ = mb
}

func BenchmarkTable11_ExOSEchoASH(b *testing.B) { benchRoundTrip(b, true, 0) }
func BenchmarkTable11_ExOSAppEcho(b *testing.B) { benchRoundTrip(b, false, 0) }
func BenchmarkFig2_ASH8Spinners(b *testing.B)   { benchRoundTrip(b, true, 8) }
func BenchmarkFig2_NoASH8Spinners(b *testing.B) { benchRoundTrip(b, false, 8) }

func BenchmarkTable11_UltrixSockets(b *testing.B) {
	b.ReportAllocs()
	seg := ether.NewSegment()
	ma, ka := newUltrix()
	mb, kb := newUltrix()
	seg.Attach(ma)
	seg.Attach(mb)
	pa := ka.NewProc(nil)
	sockA := ka.NewSocket(pa, pkt.Addr{0xA}, pkt.IP(10, 0, 0, 1), 7)
	pb := kb.NewProc(nil)
	sockB := kb.NewSocket(pb, pkt.Addr{0xB}, pkt.IP(10, 0, 0, 2), 7)
	pb.NativeRun = func(k *ultrix.Kernel) {
		for {
			data, flow, ok := sockB.TryRecv()
			if !ok {
				return
			}
			sockB.Sendto(pkt.Addr{0xA}, flow.SrcIP, flow.SrcPort, data)
		}
	}
	payload := make([]byte, 18)
	b.ResetTimer()
	start := ma.Clock.Cycles()
	for i := 0; i < b.N; i++ {
		sockA.Sendto(pkt.Addr{0xB}, pkt.IP(10, 0, 0, 2), 7, payload)
		guard := 0
		for {
			kb.RunRound()
			if _, _, ok := sockA.TryRecv(); ok {
				break
			}
			if guard++; guard > 1000000 {
				b.Fatal("no reply")
			}
		}
		seg.Sync()
	}
	b.ReportMetric(ma.Micros(ma.Clock.Cycles()-start)/float64(b.N), "sim-us/op")
	_ = mb
}

// --- Figure 3: stride scheduling -------------------------------------------

func BenchmarkFig3_StrideDispatch(b *testing.B) {
	m := hw.NewMachine(hw.DEC5000)
	k := aegis.New(m)
	k.SetQuantum(1000)
	s, err := stride.New(k)
	if err != nil {
		b.Fatal(err)
	}
	for _, tickets := range []uint64{3, 2, 1} {
		w, err := exos.NewWorker(k, func(k *aegis.Kernel) { k.M.Clock.Tick(k.Quantum()) })
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Add(w.ID, tickets); err != nil {
			b.Fatal(err)
		}
	}
	k.SetSliceVector([]aegis.EnvID{s.Env.ID})
	simPerOp(b, m, func() {
		if !k.DispatchNative() {
			b.Fatal("starved")
		}
	})
}

// --- Ablations --------------------------------------------------------------

func BenchmarkAblation_STLBOn(b *testing.B)  { benchSTLB(b, true) }
func BenchmarkAblation_STLBOff(b *testing.B) { benchSTLB(b, false) }

func benchSTLB(b *testing.B, enabled bool) {
	b.Helper()
	_, k := newAegis()
	k.STLBEnabled = enabled
	os, err := exos.Boot(k)
	if err != nil {
		b.Fatal(err)
	}
	const pages = 128
	vas := make([]uint32, pages)
	for i := range vas {
		vas[i] = 0x4000_0000 + uint32(i)*hw.PageSize
		if _, err := os.AllocAndMap(vas[i]); err != nil {
			b.Fatal(err)
		}
		if err := os.Touch(vas[i]); err != nil {
			b.Fatal(err)
		}
	}
	i := 0
	simPerOp(b, k.M, func() {
		if err := os.Touch(vas[i%pages]); err != nil {
			b.Fatal(err)
		}
		i++
	})
}

func BenchmarkAblation_DPFUnmerged(b *testing.B) {
	flows, frame := table7Workload(b)
	var singles []*dpf.Engine
	for _, f := range flows {
		e := dpf.NewEngine()
		if _, err := e.Insert(dpf.FlowFilter(f)); err != nil {
			b.Fatal(err)
		}
		singles = append(singles, e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit := false
		for _, e := range singles {
			if _, _, ok := e.Classify(frame); ok {
				hit = true
				break
			}
		}
		if !hit {
			b.Fatal("miss")
		}
	}
}

// --- File system (extended substrate) ----------------------------------------

func benchFS(b *testing.B, cacheFrames int) (*hw.Machine, *exos.FS, exos.Inum) {
	b.Helper()
	m, k := newAegis()
	os, err := exos.Boot(k)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := exos.NewAegisDev(os, 512)
	if err != nil {
		b.Fatal(err)
	}
	cache, err := exos.NewFSCache(os, dev, cacheFrames, exos.NewLRU())
	if err != nil {
		b.Fatal(err)
	}
	fs, err := exos.Format(dev, cache, 16)
	if err != nil {
		b.Fatal(err)
	}
	inum, err := fs.Create("bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := fs.WriteAt(inum, 0, make([]byte, 64*hw.PageSize)); err != nil {
		b.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		b.Fatal(err)
	}
	return m, fs, inum
}

// BenchmarkFS_CachedRead: library-FS read that hits the application's
// buffer cache — no kernel crossing at all.
func BenchmarkFS_CachedRead(b *testing.B) {
	m, fs, inum := benchFS(b, 80) // whole file fits
	buf := make([]byte, hw.PageSize)
	fs.ReadAt(inum, 0, buf) // warm
	simPerOp(b, m, func() {
		if _, err := fs.ReadAt(inum, 0, buf); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFS_ColdRead: every read misses a 4-frame cache and goes to the
// simulated disk (seek + transfer dominate).
func BenchmarkFS_ColdRead(b *testing.B) {
	m, fs, inum := benchFS(b, 4)
	buf := make([]byte, hw.PageSize)
	i := uint32(0)
	simPerOp(b, m, func() {
		if _, err := fs.ReadAt(inum, (i%64)*hw.PageSize, buf); err != nil {
			b.Fatal(err)
		}
		i += 16 // stride defeats the tiny cache
	})
}

// BenchmarkFS_UltrixRead: the same cached read through the monolithic FS:
// crossing plus the extra kernel-buffer copy.
func BenchmarkFS_UltrixRead(b *testing.B) {
	m, k := newUltrix()
	p := k.NewProc(nil)
	kfs, err := k.NewKernelFS(0, 512, 80, 16)
	if err != nil {
		b.Fatal(err)
	}
	inum, err := kfs.Create(p, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := kfs.Write(p, inum, 0, make([]byte, 8*hw.PageSize)); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, hw.PageSize)
	kfs.Read(p, inum, 0, buf) // warm
	simPerOp(b, m, func() {
		if _, err := kfs.Read(p, inum, 0, buf); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFork_COWBreak: one copy-on-write break (fault + page copy +
// remap) — the cost a library-level fork defers until first write.
func BenchmarkFork_COWBreak(b *testing.B) {
	m, k := newAegis()
	parent, err := exos.Boot(k)
	if err != nil {
		b.Fatal(err)
	}
	const va = 0x1000_0000
	if _, err := parent.AllocAndMap(va); err != nil {
		b.Fatal(err)
	}
	if err := parent.TouchWrite(va); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var simCycles uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		child, err := parent.Fork()
		if err != nil {
			b.Fatal(err)
		}
		child.Enter()
		b.StartTimer()
		c0 := m.Clock.Cycles()
		if err := child.TouchWrite(va); err != nil {
			b.Fatal(err)
		}
		simCycles += m.Clock.Cycles() - c0
		b.StopTimer()
		parent.Enter()
		k.DestroyEnv(child.Env) // reclaim the child's frames between runs
		b.StartTimer()
	}
	b.ReportMetric(m.Micros(simCycles)/float64(b.N), "sim-us/op")
}
