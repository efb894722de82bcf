// Trace-JIT tier for the fast engine (see DESIGN.md §4i).
//
// The fast interpreter still pays per instruction for work whose outcome
// is almost always known: the timer poll, the interrupt poll, the stop
// check, the bounds-checked fetch, and the operand decode. This tier
// counts basic-block entries (non-sequential PC transfers), and once an
// entry runs hot it compiles the straight-line instruction run from that
// PC — following unconditional jumps, running past not-taken conditional
// branches, ending at indirect or privileged control flow — into a
// superblock: a pre-decoded micro-op trace with the operands, immediates,
// successor PCs, and branch dispositions baked in at compile time,
// executed by a fused runner loop that keeps the CPU, register file,
// clock, MMU tags, and memory pinned in host registers for the whole
// pass. (A closure-per-instruction variant was tried first; reloading
// every captured operand from the closure environment on each indirect
// call cost more than the decode it saved.)
//
// The per-iteration checks are hoisted into a single fused guard at the
// pass boundary, which makes the skipped checks provably no-ops for a
// whole pass:
//
//	remaining step budget ≥ block length,  and
//	EventHorizon() − now  >  worst-case cycles one pass can consume.
//
// Between instructions of a guarded pass nothing can fire the timer or
// deliver an interrupt — only trap handlers could, and any trap exits the
// block immediately (see below) — so skipping those polls is invisible in
// simulated time, exactly the runFast contract. The guard extends to k
// back-to-back passes of a looping block for the same reason, so a hot
// inner loop re-derives the horizon once per k iterations, not once per
// iteration.
//
// Deoptimization is clean because simulated state is exact at every
// point it can be observed. The runner defers the per-instruction
// base-cost ticks, step counts, and PC stores to the pass boundary —
// legal because nothing inside a guarded pass reads them (the memory
// model charges by reference order, never by clock value) — and flushes
// them before any trap, so a handler sees precisely the clock, step
// count, and faulting PC the interpreter would have produced (the kernel
// may switch segments, rewrite the PC, re-arm the timer, request a stop);
// the block exits and the engine resumes interpreting at whatever PC the
// kernel chose. A profiler needs a BeginInstr/EndInstr window per
// instruction, which deferral cannot give, so runFast skips the tier
// while one is attached: the interpreter already attributes every cycle
// exactly. ktrace stamps, PROF attribution, and the BENCH tables are
// byte-identical across ref / fast / fast+JIT — the invariance gates and
// the engine-equivalence quickcheck hold the tier to it.
//
// Invalidation: compiled blocks are a pure function of the instruction
// slice, cached per code segment and dropped when SetCode publishes a
// different segment. Translations are NOT compiled in — each memory
// micro-op keeps a one-entry cache of its last TLB.Lookup result keyed by
// the TLB epoch, with the permission checks re-run on every reference
// (the inlined equivalent of hw.Machine.EntryTranslate), so a TLB
// mutation anywhere invalidates every site on its next access and a mode
// or ASID change needs no invalidation at all.
//
// Escape hatch: EXO_NOJIT=1 (or hw.Machine.SetNoJIT) forces the plain
// fast interpreter; EXO_SLOWPATH=1 forces the reference engine and
// subsumes it.
package vm

import (
	"exokernel/internal/hw"
	"exokernel/internal/isa"
	"exokernel/internal/prof"
)

// The selection rule — compile an entry once its count reaches
// prof.CandidateDefaultThreshold (unless Interp.JITThreshold overrides
// it), and only if the run is at least prof.CandidateMinLen long — is
// defined in package prof, so `exoprof -candidates` previews exactly the
// decision this tier makes.
const (
	// jitMaxLen bounds superblock length in instructions: it caps both
	// compile work and the event-horizon guard's worst-case cost (a huge
	// block would deopt forever under a short timer quantum).
	jitMaxLen = 64

	// jitMaxSegs caps the per-segment cache; beyond it the cache is
	// dropped wholesale (bounded memory under segment churn).
	jitMaxSegs = 64
)

// Per-instruction worst-case cycle costs for the event-horizon guard. A
// memory reference pays the base cost, the word charge, and possibly the
// cache-miss penalty; exception costs are excluded because a trap exits
// the block and re-enters the fully-checked loop.
const (
	jitALUCost = hw.CostInstr
	jitMemCost = hw.CostInstr + hw.CostMemWord + hw.CostCacheMiss
)

// jitOutcome reports how a micro-op left the block.
type jitOutcome uint8

const (
	jitNext jitOutcome = iota // committed; fall through to the next micro-op
	jitExit                   // committed; PC is outside the trace (taken branch, indirect jump, or trap)
	jitLoop                   // committed; took the back edge to the block entry
)

// jitKind enumerates micro-op kinds: one kind per specialized operation,
// not per ISA opcode. The compiler resolves LUI to a load-immediate,
// pre-masks shift amounts, splits trapping adds by operand form, and
// bakes each jump's disposition.
type jitKind uint8

const (
	jkNOP  jitKind = iota
	jkLI           // rd ← imm (LUI with the shift folded at compile time)
	jkADDU         // rd ← rs + rt
	jkADDI         // rd ← rs + imm (ADDIU)
	jkSUB
	jkMUL
	jkAND
	jkANDI
	jkOR
	jkORI
	jkXOR
	jkXORI
	jkNOR
	jkSLT
	jkSLTU
	jkSLTI
	jkSLL // shift amount pre-masked into imm
	jkSRL
	jkSRA
	jkADDV  // ADD: trapping signed add, rt operand
	jkADDIV // ADDI: trapping signed add, imm operand
	jkDIV
	jkREM
	jkLW
	jkLH
	jkLHU
	jkLB
	jkLBU
	jkSW
	jkSH
	jkSB
	jkBEQ
	jkBNE
	jkBLEZ
	jkBGTZ
	jkBLTZ
	jkBGEZ
	jkJ    // unconditional: next holds the target, out the disposition
	jkJAL  // as jkJ, plus link (imm holds pc+1)
	jkJR   // indirect: always exits
	jkJALR // indirect with link (imm holds pc+1)
)

// jitOp is one pre-decoded micro-op of a superblock trace. Register
// numbers are stored raw and re-masked at the use site (reg&31) so the
// bounds check compiles away; the hardwired-zero rule is an explicit
// rd != 0 test. next is the successor PC this op commits on the trace
// path; targ/out describe a branch's taken edge.
type jitOp struct {
	kind jitKind
	rd   uint8
	rs   uint8
	rt   uint8
	out  jitOutcome // taken-edge outcome for branches; disposition for jkJ/jkJAL
	imm  uint32
	pc   uint32
	next uint32
	targ uint32
	site *jitSite // translation cache, memory ops only
}

// jitBlock is one compiled superblock: the micro-op trace plus the pass
// guard's parameters.
type jitBlock struct {
	entry   uint32
	n       uint64 // instructions in one full pass (0 marks a dead entry)
	maxCost uint64 // worst-case cycles one pass can consume
	endPC   uint32 // PC after falling off the end of a full pass
	ops     []jitOp
}

// segJIT is the tier's per-segment state: entry counters and compiled
// blocks, both indexed by PC. It survives context switches — the kernel
// republishes the same slice at every switch and SetCode keys the cache
// on segment identity — and dies with the segment.
type segJIT struct {
	code   isa.Code
	counts []uint32
	blocks []*jitBlock
}

// jitSite is a compiled memory micro-op's one-entry translation cache:
// the last TLB.Lookup result, valid only while the TLB epoch it was
// filled under still matches. Permission checks are never cached — see
// the memory micro-ops in the runners, which re-run the EntryTranslate
// checks on every reference.
type jitSite struct {
	valid bool
	asid  uint8
	vpn   uint32
	epoch uint64
	entry hw.TLBEntry
}

// refill is the site cache's out-of-line miss path: look the page up in
// the hardware TLB (charges nothing, same as hw.Machine.Translate) and
// re-tag the site under the current epoch. The hit check and the
// per-reference permission checks stay inlined in the runners, which
// reproduce hw.Machine.EntryTranslate with the ASID, epoch, and mode
// hoisted out of the loop.
func (s *jitSite) refill(tlb *hw.TLB, vpn uint32, asid uint8, epoch uint64) bool {
	e, ok := tlb.Lookup(vpn, asid)
	if !ok {
		return false
	}
	s.entry, s.vpn, s.asid, s.epoch, s.valid = e, vpn, asid, epoch, true
	return true
}

// jitHotAt returns the effective compile threshold.
func (in *Interp) jitHotAt() uint32 {
	if in.JITThreshold != 0 {
		return in.JITThreshold
	}
	return prof.CandidateDefaultThreshold
}

// jitSetSeg points the tier at the segment being published, reusing
// compiled state when the segment is one we have seen (identity = first
// instruction's address + length; segments are immutable once
// assembled). Called from SetCode, i.e. at every context switch.
func (in *Interp) jitSetSeg(code isa.Code) {
	if len(code) == 0 {
		in.jitSeg = nil
		return
	}
	key := &code[0]
	if s := in.jitSeg; s != nil && &s.code[0] == key && len(s.code) == len(code) {
		return // republication of the current segment
	}
	s, ok := in.jitCache[key]
	if !ok || len(s.code) != len(code) {
		s = &segJIT{
			code:   code,
			counts: make([]uint32, len(code)),
			blocks: make([]*jitBlock, len(code)),
		}
		if in.jitCache == nil {
			in.jitCache = make(map[*isa.Inst]*segJIT)
		} else if len(in.jitCache) >= jitMaxSegs {
			clear(in.jitCache)
		}
		in.jitCache[key] = s
	}
	in.jitSeg = s
}

// jitCommit materializes n deferred instructions' base-cost ticks and
// step counts and returns how many instructions the block has committed
// since start. Every runner exit goes through it; the hot loop stays free
// of per-instruction clock and counter traffic.
func (in *Interp) jitCommit(n, start uint64) uint64 {
	in.M.Clock.Tick(n * hw.CostInstr)
	in.Steps += n
	return in.Steps - start
}

// jitTrap is the runner's cold trap exit: commit the n instructions of
// the partial pass (the faulting one included, which the interpreter
// also charges before it traps), restore the faulting instruction's PC
// (restart semantics — the interpreter has not advanced the PC when an
// instruction faults), and raise exc to the kernel.
func (in *Interp) jitTrap(n, start uint64, exc hw.Exc, pc, badva uint32) uint64 {
	done := in.jitCommit(n, start)
	in.M.CPU.PC = pc
	in.M.RaiseException(exc, pc, badva)
	return done
}

// jitRunBlock executes guarded passes of b until a guard fails, the trace
// exits, or the budget runs out, returning how many instructions were
// committed. remaining is the caller's step budget (^0 for unlimited); a
// return of 0 means no guard admitted even one pass and the caller must
// interpret the entry instruction itself (progress guarantee: the engine
// never spins on a block it cannot enter).
//
// Base-cost ticks, the step count, and the PC are committed at pass
// boundaries and flushed eagerly before any trap (jitTrap), so every
// state a trap handler can observe is exactly what the interpreter would
// have produced. Nothing else inside a guarded pass reads them: the
// memory model charges by reference order, never by clock value, and the
// skipped polls are covered by the pass guard.
func (in *Interp) jitRunBlock(b *jitBlock, remaining uint64) uint64 {
	m := in.M
	cpu := &m.CPU
	regs := &cpu.Regs
	clock := m.Clock
	phys := m.Phys
	tlb := m.TLB
	start := in.Steps
	ops := b.ops
	// ASID, TLB epoch, and CPU mode are loop invariants: only a trap
	// handler (or RFE/TLBWR, which the compiler never traces) can change
	// them, and any trap exits the runner. Hoisting them lets the memory
	// micro-ops run the MMU checks against host registers.
	asid := cpu.ASID
	epoch := tlb.Epoch()
	kernelMode := cpu.Mode == hw.ModeKernel
	// pending counts committed instructions whose base-cost tick, step
	// count, and PC advance have not been materialized yet. It drains
	// here before the guard re-derivation (which reads the clock) and at
	// every trap or exit; between those points nothing reads the
	// deferred state.
	var pending uint64
	for {
		done := in.jitCommit(pending, start)
		pending = 0
		if remaining-done < b.n {
			return done
		}
		// Fused guard: no pass may cross the event horizon. h ≤ now
		// covers a deliverable interrupt (h == now) and an already-due
		// timer (h < now); the margin covers every skipped per-
		// instruction poll inside the pass.
		now := clock.Cycles()
		h := m.EventHorizon()
		if h <= now || h-now <= b.maxCost {
			return done
		}
		// The guard extends to k back-to-back passes: the horizon can
		// only shrink inside a trap handler, and a trap exits the block,
		// so while the trace keeps looping the horizon derived here
		// stands. Admit as many passes as the horizon margin and the
		// step budget cover and skip the re-derivation between them.
		k := (h - now - 1) / b.maxCost
		if kb := (remaining - done) / b.n; kb < k {
			k = kb
		}
		for ; k > 0; k-- {
			loop := false
		pass:
			for i := range ops {
				op := &ops[i]
				switch op.kind {
				case jkNOP:
				case jkLI:
					if op.rd != 0 {
						regs[op.rd&31] = op.imm
					}
				case jkADDU:
					if op.rd != 0 {
						regs[op.rd&31] = regs[op.rs&31] + regs[op.rt&31]
					}
				case jkADDI:
					if op.rd != 0 {
						regs[op.rd&31] = regs[op.rs&31] + op.imm
					}
				case jkSUB:
					if op.rd != 0 {
						regs[op.rd&31] = regs[op.rs&31] - regs[op.rt&31]
					}
				case jkMUL:
					if op.rd != 0 {
						regs[op.rd&31] = regs[op.rs&31] * regs[op.rt&31]
					}
				case jkAND:
					if op.rd != 0 {
						regs[op.rd&31] = regs[op.rs&31] & regs[op.rt&31]
					}
				case jkANDI:
					if op.rd != 0 {
						regs[op.rd&31] = regs[op.rs&31] & op.imm
					}
				case jkOR:
					if op.rd != 0 {
						regs[op.rd&31] = regs[op.rs&31] | regs[op.rt&31]
					}
				case jkORI:
					if op.rd != 0 {
						regs[op.rd&31] = regs[op.rs&31] | op.imm
					}
				case jkXOR:
					if op.rd != 0 {
						regs[op.rd&31] = regs[op.rs&31] ^ regs[op.rt&31]
					}
				case jkXORI:
					if op.rd != 0 {
						regs[op.rd&31] = regs[op.rs&31] ^ op.imm
					}
				case jkNOR:
					if op.rd != 0 {
						regs[op.rd&31] = ^(regs[op.rs&31] | regs[op.rt&31])
					}
				case jkSLT:
					if op.rd != 0 {
						regs[op.rd&31] = b2u(int32(regs[op.rs&31]) < int32(regs[op.rt&31]))
					}
				case jkSLTU:
					if op.rd != 0 {
						regs[op.rd&31] = b2u(regs[op.rs&31] < regs[op.rt&31])
					}
				case jkSLTI:
					if op.rd != 0 {
						regs[op.rd&31] = b2u(int32(regs[op.rs&31]) < int32(op.imm))
					}
				case jkSLL:
					if op.rd != 0 {
						regs[op.rd&31] = regs[op.rs&31] << (op.imm & 31)
					}
				case jkSRL:
					if op.rd != 0 {
						regs[op.rd&31] = regs[op.rs&31] >> (op.imm & 31)
					}
				case jkSRA:
					if op.rd != 0 {
						regs[op.rd&31] = uint32(int32(regs[op.rs&31]) >> (op.imm & 31))
					}

				case jkADDV, jkADDIV:
					a := int32(regs[op.rs&31])
					bv := int32(op.imm)
					if op.kind == jkADDV {
						bv = int32(regs[op.rt&31])
					}
					s := a + bv
					if (a >= 0 && bv >= 0 && s < 0) || (a < 0 && bv < 0 && s >= 0) {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcOverflow, op.pc, 0)
					}
					if op.rd != 0 {
						regs[op.rd&31] = uint32(s)
					}

				case jkDIV, jkREM:
					d := int32(regs[op.rt&31])
					if d == 0 {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcBreak, op.pc, 0)
					}
					a := int32(regs[op.rs&31])
					var v uint32
					switch {
					case a == -1<<31 && d == -1:
						// Same wrapped definition as the interpreter.
						if op.kind == jkDIV {
							v = 1 << 31
						}
					case op.kind == jkDIV:
						v = uint32(a / d)
					default:
						v = uint32(a % d)
					}
					if op.rd != 0 {
						regs[op.rd&31] = v
					}

				case jkLW:
					va := regs[op.rs&31] + op.imm
					if va&3 != 0 {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcAddrErrL, op.pc, va)
					}
					s := op.site
					vpn := va >> hw.PageShift
					if (!s.valid || s.vpn != vpn || s.asid != asid || s.epoch != epoch) &&
						!s.refill(tlb, vpn, asid, epoch) {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMissL, op.pc, va)
					}
					if s.entry.Perms&hw.PermKernel != 0 && !kernelMode {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMissL, op.pc, va)
					}
					pa := s.entry.PFN<<hw.PageShift | va&(hw.PageSize-1)
					v := phys.ReadWord(pa)
					if op.rd != 0 {
						regs[op.rd&31] = v
					}
				case jkLH, jkLHU:
					va := regs[op.rs&31] + op.imm
					if va&1 != 0 {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcAddrErrL, op.pc, va)
					}
					s := op.site
					vpn := va >> hw.PageShift
					if (!s.valid || s.vpn != vpn || s.asid != asid || s.epoch != epoch) &&
						!s.refill(tlb, vpn, asid, epoch) {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMissL, op.pc, va)
					}
					if s.entry.Perms&hw.PermKernel != 0 && !kernelMode {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMissL, op.pc, va)
					}
					pa := s.entry.PFN<<hw.PageShift | va&(hw.PageSize-1)
					v := uint32(phys.ReadHalf(pa))
					if op.kind == jkLH {
						v = uint32(int32(int16(v)))
					}
					if op.rd != 0 {
						regs[op.rd&31] = v
					}
				case jkLB, jkLBU:
					va := regs[op.rs&31] + op.imm
					s := op.site
					vpn := va >> hw.PageShift
					if (!s.valid || s.vpn != vpn || s.asid != asid || s.epoch != epoch) &&
						!s.refill(tlb, vpn, asid, epoch) {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMissL, op.pc, va)
					}
					if s.entry.Perms&hw.PermKernel != 0 && !kernelMode {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMissL, op.pc, va)
					}
					pa := s.entry.PFN<<hw.PageShift | va&(hw.PageSize-1)
					v := uint32(phys.LoadByte(pa))
					if op.kind == jkLB {
						v = uint32(int32(int8(v)))
					}
					if op.rd != 0 {
						regs[op.rd&31] = v
					}

				case jkSW:
					va := regs[op.rs&31] + op.imm
					if va&3 != 0 {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcAddrErrS, op.pc, va)
					}
					s := op.site
					vpn := va >> hw.PageShift
					if (!s.valid || s.vpn != vpn || s.asid != asid || s.epoch != epoch) &&
						!s.refill(tlb, vpn, asid, epoch) {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMissS, op.pc, va)
					}
					if s.entry.Perms&hw.PermKernel != 0 && !kernelMode {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMissS, op.pc, va)
					}
					if s.entry.Perms&hw.PermWrite == 0 {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMod, op.pc, va)
					}
					pa := s.entry.PFN<<hw.PageShift | va&(hw.PageSize-1)
					phys.WriteWord(pa, regs[op.rt&31])
				case jkSH:
					va := regs[op.rs&31] + op.imm
					if va&1 != 0 {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcAddrErrS, op.pc, va)
					}
					s := op.site
					vpn := va >> hw.PageShift
					if (!s.valid || s.vpn != vpn || s.asid != asid || s.epoch != epoch) &&
						!s.refill(tlb, vpn, asid, epoch) {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMissS, op.pc, va)
					}
					if s.entry.Perms&hw.PermKernel != 0 && !kernelMode {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMissS, op.pc, va)
					}
					if s.entry.Perms&hw.PermWrite == 0 {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMod, op.pc, va)
					}
					pa := s.entry.PFN<<hw.PageShift | va&(hw.PageSize-1)
					phys.WriteHalf(pa, uint16(regs[op.rt&31]))
				case jkSB:
					va := regs[op.rs&31] + op.imm
					s := op.site
					vpn := va >> hw.PageShift
					if (!s.valid || s.vpn != vpn || s.asid != asid || s.epoch != epoch) &&
						!s.refill(tlb, vpn, asid, epoch) {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMissS, op.pc, va)
					}
					if s.entry.Perms&hw.PermKernel != 0 && !kernelMode {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMissS, op.pc, va)
					}
					if s.entry.Perms&hw.PermWrite == 0 {
						return in.jitTrap(pending+uint64(i+1), start, hw.ExcTLBMod, op.pc, va)
					}
					pa := s.entry.PFN<<hw.PageShift | va&(hw.PageSize-1)
					phys.StoreByte(pa, byte(regs[op.rt&31]))

				case jkBEQ:
					if regs[op.rs&31] == regs[op.rt&31] {
						cpu.PC = op.targ
						if op.out == jitLoop {
							pending += uint64(i + 1)
							loop = true
							break pass
						}
						return in.jitCommit(pending+uint64(i+1), start)
					}
				case jkBNE:
					if regs[op.rs&31] != regs[op.rt&31] {
						cpu.PC = op.targ
						if op.out == jitLoop {
							pending += uint64(i + 1)
							loop = true
							break pass
						}
						return in.jitCommit(pending+uint64(i+1), start)
					}
				case jkBLEZ:
					if int32(regs[op.rs&31]) <= 0 {
						cpu.PC = op.targ
						if op.out == jitLoop {
							pending += uint64(i + 1)
							loop = true
							break pass
						}
						return in.jitCommit(pending+uint64(i+1), start)
					}
				case jkBGTZ:
					if int32(regs[op.rs&31]) > 0 {
						cpu.PC = op.targ
						if op.out == jitLoop {
							pending += uint64(i + 1)
							loop = true
							break pass
						}
						return in.jitCommit(pending+uint64(i+1), start)
					}
				case jkBLTZ:
					if int32(regs[op.rs&31]) < 0 {
						cpu.PC = op.targ
						if op.out == jitLoop {
							pending += uint64(i + 1)
							loop = true
							break pass
						}
						return in.jitCommit(pending+uint64(i+1), start)
					}
				case jkBGEZ:
					if int32(regs[op.rs&31]) >= 0 {
						cpu.PC = op.targ
						if op.out == jitLoop {
							pending += uint64(i + 1)
							loop = true
							break pass
						}
						return in.jitCommit(pending+uint64(i+1), start)
					}

				case jkJ, jkJAL:
					if op.kind == jkJAL {
						regs[hw.RegRA] = op.imm
					}
					if op.out == jitNext {
						break // followed jumps are trace-internal
					}
					cpu.PC = op.next
					if op.out == jitLoop {
						pending += uint64(i + 1)
						loop = true
						break pass
					}
					return in.jitCommit(pending+uint64(i+1), start)
				case jkJR, jkJALR:
					if op.kind == jkJALR && op.rd != 0 {
						regs[op.rd&31] = op.imm
					}
					cpu.PC = regs[op.rs&31]
					return in.jitCommit(pending+uint64(i+1), start)
				}
			}
			if !loop {
				// Fell off the end of the trace: commit the full pass and
				// hand the successor PC back to the interpreter.
				cpu.PC = b.endPC
				return in.jitCommit(pending+b.n, start)
			}
		}
	}
}

// jitCompile builds the superblock entered at entry, or a dead marker
// when the run is too short to pay for the guards.
//
// Micro-op invariant: on entry to an op, the simulated PC is that op's
// pc. The runner tracks it positionally and materializes it at every
// exit and before every trap, so a trap handler sees the faulting PC
// with the instruction not yet advanced, exactly the interpreter's
// restart semantics.
func (in *Interp) jitCompile(code isa.Code, entry uint32) *jitBlock {
	b := &jitBlock{entry: entry}
	pc := entry
compile:
	for uint32(len(b.ops)) < jitMaxLen && int(pc) < len(code) {
		inst := code[pc]
		op := jitOp{
			rd:   inst.Rd,
			rs:   inst.Rs,
			rt:   inst.Rt,
			imm:  uint32(inst.Imm),
			pc:   pc,
			next: pc + 1,
		}
		cost := uint64(jitALUCost)
		advance := pc + 1 // next pc the trace compiles (jumps override)
		ended := false    // terminator emitted: stop after this op

		switch inst.Op {
		case isa.NOP:
			op.kind = jkNOP
		case isa.ADDU:
			op.kind = jkADDU
		case isa.ADDIU:
			op.kind = jkADDI
		case isa.SUB:
			op.kind = jkSUB
		case isa.MUL:
			op.kind = jkMUL
		case isa.AND:
			op.kind = jkAND
		case isa.ANDI:
			op.kind = jkANDI
		case isa.OR:
			op.kind = jkOR
		case isa.ORI:
			op.kind = jkORI
		case isa.XOR:
			op.kind = jkXOR
		case isa.XORI:
			op.kind = jkXORI
		case isa.NOR:
			op.kind = jkNOR
		case isa.SLT:
			op.kind = jkSLT
		case isa.SLTU:
			op.kind = jkSLTU
		case isa.SLTI:
			op.kind = jkSLTI
		case isa.LUI:
			op.kind = jkLI
			op.imm = uint32(inst.Imm) << 16
		case isa.SLL:
			op.kind = jkSLL
			op.imm = uint32(inst.Imm) & 31
		case isa.SRL:
			op.kind = jkSRL
			op.imm = uint32(inst.Imm) & 31
		case isa.SRA:
			op.kind = jkSRA
			op.imm = uint32(inst.Imm) & 31
		case isa.ADD:
			op.kind = jkADDV
		case isa.ADDI:
			op.kind = jkADDIV
		case isa.DIV:
			op.kind = jkDIV
		case isa.REM:
			op.kind = jkREM

		case isa.LW:
			op.kind, op.site, cost = jkLW, &jitSite{}, jitMemCost
		case isa.LH:
			op.kind, op.site, cost = jkLH, &jitSite{}, jitMemCost
		case isa.LHU:
			op.kind, op.site, cost = jkLHU, &jitSite{}, jitMemCost
		case isa.LB:
			op.kind, op.site, cost = jkLB, &jitSite{}, jitMemCost
		case isa.LBU:
			op.kind, op.site, cost = jkLBU, &jitSite{}, jitMemCost
		case isa.SW:
			op.kind, op.site, cost = jkSW, &jitSite{}, jitMemCost
		case isa.SH:
			op.kind, op.site, cost = jkSH, &jitSite{}, jitMemCost
		case isa.SB:
			op.kind, op.site, cost = jkSB, &jitSite{}, jitMemCost

		case isa.BEQ, isa.BNE, isa.BLEZ, isa.BGTZ, isa.BLTZ, isa.BGEZ:
			switch inst.Op {
			case isa.BEQ:
				op.kind = jkBEQ
			case isa.BNE:
				op.kind = jkBNE
			case isa.BLEZ:
				op.kind = jkBLEZ
			case isa.BGTZ:
				op.kind = jkBGTZ
			case isa.BLTZ:
				op.kind = jkBLTZ
			default:
				op.kind = jkBGEZ
			}
			op.targ = uint32(inst.Imm)
			op.out = jitExit
			if op.targ == entry {
				op.out = jitLoop // back edge: iterate inside the block
			}

		case isa.J, isa.JAL:
			// Resolved at compile time: a jump back to the entry is the
			// back edge, a jump the trace follows is a plain fall-through
			// into the jumped-to run, and anything else exits.
			target := uint32(inst.Imm)
			op.kind = jkJ
			if inst.Op == isa.JAL {
				op.kind = jkJAL
				op.imm = pc + 1 // link value
			}
			op.next = target
			op.out = jitNext
			switch {
			case target == entry:
				op.out = jitLoop
				ended = true
			case int(target) < len(code):
				advance = target // the trace follows the jump
			default:
				op.out = jitExit
				ended = true
			}

		case isa.JR:
			op.kind = jkJR
			ended = true
		case isa.JALR:
			op.kind = jkJALR
			op.imm = pc + 1 // link value
			ended = true

		default:
			// SYSCALL, BREAK, COP1, HALT, TLBWR, RFE, the ASH message
			// primitives, and undefined opcodes terminate the trace: they
			// trap, halt, or touch privileged state the interpreter's
			// fully-checked loop must own.
			break compile
		}

		b.ops = append(b.ops, op)
		b.maxCost += cost
		if ended {
			break
		}
		pc = advance
	}

	b.n = uint64(len(b.ops))
	b.endPC = pc // successor of the last trace op (unused when it exits itself)
	if b.n < prof.CandidateMinLen {
		return &jitBlock{} // dead entry: keep interpreting, stop counting
	}
	return b
}
