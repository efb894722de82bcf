// Package vm executes simulated-ISA code against a machine. It is the
// user-level execution engine: applications, library-OS handlers, and
// downloaded ASHs all run here, taking real (simulated) TLB misses,
// protection faults, arithmetic traps, and interrupts, which the machine
// vectors to whatever kernel is installed.
package vm

import (
	"exokernel/internal/hw"
	"exokernel/internal/isa"
	"exokernel/internal/prof"
)

// CodeSource supplies instructions for the current program counter. The
// kernel implements it by mapping the PC into the current environment's
// code segment, so a context switch transparently changes what Fetch
// returns.
type CodeSource interface {
	Fetch(pc uint32) (isa.Inst, hw.Exc)
}

// FixedCode is a CodeSource for a single standalone segment.
type FixedCode isa.Code

// Fetch returns the instruction at pc, or an address error past the end.
func (c FixedCode) Fetch(pc uint32) (isa.Inst, hw.Exc) {
	if int(pc) >= len(c) {
		return isa.Inst{}, hw.ExcAddrErrL
	}
	return c[pc], hw.ExcNone
}

// StopReason explains why Run returned.
type StopReason int

// Stop reasons.
const (
	StopHalt      StopReason = iota // HALT executed
	StopSteps                       // step budget exhausted
	StopRequested                   // kernel requested stop (env exit, shutdown)
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopSteps:
		return "steps"
	case StopRequested:
		return "requested"
	}
	return "stop?"
}

// ASHContext is the restricted execution context for a downloaded handler
// running inside the kernel. Memory instructions are sandboxed by address
// masking into a pinned physical region (software fault isolation, [52]);
// the PKT*/XMIT instructions give the handler direct access to the incoming
// message and the transmit path.
type ASHContext struct {
	Packet      []byte
	SandboxBase uint32 // physical base of the handler's scratch region
	SandboxMask uint32 // region size - 1 (size is a power of two)
	Phys        *hw.PhysMem
	// Xmit transmits one frame, which it borrows only for the call: the
	// frame is the context's scratch buffer, and the next XMIT
	// overwrites it. hw.NIC.Send borrows on the same terms, so Xmit may
	// pass the frame straight on; anything it keeps, it must copy.
	Xmit func([]byte)
	// Sent counts frames transmitted by the handler.
	Sent int

	xmitBuf []byte // XMIT scratch, reused across XMITs and runs
}

// Interp is the instruction interpreter. One Interp drives one machine;
// the kernel multiplexes environments by swapping CPU state underneath it.
type Interp struct {
	M   *hw.Machine
	Src CodeSource

	// ASH, when non-nil, enables the message primitives and redirects
	// memory instructions through the sandbox. Set only by the kernel,
	// on the interpreter it keeps for a verified handler, before the
	// handler's code is published with SetCode.
	ASH *ASHContext

	stop bool
	// Steps counts instructions executed over the Interp's lifetime.
	Steps uint64

	// Prof, when non-nil, receives a BeginInstr/EndInstr pair around
	// every instruction execution attempt (including attempts that fault
	// at fetch). Off by default; the hot loop pays one nil test. The
	// hooks never tick the clock, so attaching a profiler cannot change
	// simulated behaviour. The fast engine skips the trace-JIT tier while
	// a profiler is attached, so a profiled run is slower on the host,
	// never different. Run reads Prof once on entry: attaching or
	// detaching takes effect at the next Run.
	Prof *prof.Profiler

	// Direct-fetch fast path: when a code segment is published via
	// SetCode, the run loop indexes it straight off, skipping the
	// interface call through Src. The kernel republishes at every
	// context switch, so the slice always mirrors what Src.Fetch would
	// return.
	code   isa.Code
	direct bool

	// JITThreshold overrides the hot-entry count at which the fast
	// engine compiles a superblock (see jit.go); 0 selects the default.
	// Tests and tools lower it to force compilation early.
	JITThreshold uint32

	// Trace-JIT tier state (jit.go): the current segment's counters and
	// compiled blocks, plus the cache keyed on segment identity so
	// compiled state survives context switches.
	jitSeg   *segJIT
	jitCache map[*isa.Inst]*segJIT
}

// New creates an interpreter for machine m reading code from src. A
// FixedCode source is automatically published to the direct-fetch path.
func New(m *hw.Machine, src CodeSource) *Interp {
	in := &Interp{M: m, Src: src}
	if fc, ok := src.(FixedCode); ok {
		in.SetCode(isa.Code(fc))
	}
	return in
}

// SetCode publishes the current code segment to the direct-fetch path.
// The caller owns the invariant that fetching code[pc] is equivalent to
// Src.Fetch(pc) until the next SetCode; the kernel maintains it by
// republishing whenever the current environment changes. A nil segment is
// valid and fetches as an empty one (every PC takes an address error),
// matching a code-less environment.
func (in *Interp) SetCode(code isa.Code) {
	in.code = code
	in.direct = true
	if in.ASH == nil { // the JIT tier never runs a handler
		in.jitSetSeg(code)
	}
}

// RequestStop makes Run return StopRequested after the current instruction.
func (in *Interp) RequestStop() { in.stop = true }

// Run executes at most maxSteps instructions (0 means no budget) and
// reports why it stopped. Exceptions do not stop execution: they trap to
// the kernel, which redirects the CPU, and execution continues — exactly
// the hardware's behaviour.
//
// Two engines implement the loop: runFast (the default) and runRef (the
// reference, forced by EXO_SLOWPATH=1 / hw.Machine.SetSlowPath). They
// are cycle-identical by contract — runFast may only skip work that is
// provably a no-op this iteration — and the invariance tests hold them
// to it.
func (in *Interp) Run(maxSteps uint64) StopReason {
	if in.M.SlowPath() {
		return in.runRef(maxSteps)
	}
	return in.runFast(maxSteps)
}

// runRef is the reference engine: poll the timer and the interrupt lines
// unconditionally, fetch through the CodeSource interface.
func (in *Interp) runRef(maxSteps uint64) StopReason {
	cpu := &in.M.CPU
	p := in.Prof
	for n := uint64(0); maxSteps == 0 || n < maxSteps; n++ {
		in.M.Timer.Check()
		in.M.PollInterrupts()
		// One stop check per iteration, after interrupt delivery: it
		// sees both a stop requested before entry and one requested by
		// an interrupt handler just now, before any instruction runs.
		if in.stop {
			in.stop = false
			return StopRequested
		}
		inst, exc := in.Src.Fetch(cpu.PC)
		if exc != hw.ExcNone {
			in.fetchFault(p, exc, cpu.PC)
			continue
		}
		if p != nil {
			p.BeginInstr(cpu.PC, cpu.ASID, in.M.Clock.Cycles())
		}
		in.M.Clock.Tick(hw.CostInstr)
		in.Steps++
		halted := in.Step(inst)
		if p != nil {
			p.EndInstr(in.M.Clock.Cycles())
		}
		if halted {
			return StopHalt
		}
	}
	return StopSteps
}

// runFast is the host-speed engine. Per iteration it skips Timer.Check
// unless the deadline has passed (TimerDue is Check's own firing
// condition) and PollInterrupts unless a line is pending and enabled
// (PollInterrupts' own guard) — the event-horizon conditions are
// re-derived every iteration because any instruction can advance the
// clock or re-arm the timer. Fetch indexes the published code slice
// directly when one is installed; the slice is re-read each iteration
// since a trap handler may have switched segments.
//
// On top of the interpreter sits the trace-JIT tier (jit.go): block
// entries — PCs reached by a non-sequential transfer — are counted, hot
// ones are compiled to superblocks, and the dispatcher runs a compiled
// block when its entry guard admits at least one pass. A dispatch that
// commits nothing (guard failure) falls through to interpret the entry
// instruction, so the engine always makes progress. The tier is off for
// ASH handlers and while a profiler is attached: deferred commits cannot
// bracket each instruction, and the interpreter attributes exactly.
func (in *Interp) runFast(maxSteps uint64) StopReason {
	m := in.M
	cpu := &m.CPU
	p := in.Prof
	useJIT := in.ASH == nil && p == nil && !m.NoJIT()
	lastPC := cpu.PC // any value ≠ pc−1: the first PC counts as an entry
	for n := uint64(0); maxSteps == 0 || n < maxSteps; n++ {
		if m.TimerDue() {
			m.Timer.Check()
		}
		if cpu.IntrOn && cpu.Pending != 0 {
			m.PollInterrupts()
		}
		if in.stop {
			in.stop = false
			return StopRequested
		}
		pc := cpu.PC
		if useJIT {
			if s := in.jitSeg; s != nil && int(pc) < len(s.blocks) {
				if b := s.blocks[pc]; b != nil {
					if b.n > 0 {
						remaining := ^uint64(0)
						if maxSteps != 0 {
							remaining = maxSteps - n
						}
						if k := in.jitRunBlock(b, remaining); k > 0 {
							lastPC = pc
							n += k - 1 // the loop increment counts the last one
							continue
						}
					}
				} else if pc != lastPC+1 {
					s.counts[pc]++
					if s.counts[pc] >= in.jitHotAt() {
						s.blocks[pc] = in.jitCompile(s.code, pc)
					}
				}
			}
			lastPC = pc
		}
		var inst isa.Inst
		if in.direct {
			if int(pc) >= len(in.code) {
				in.fetchFault(p, hw.ExcAddrErrL, pc)
				continue
			}
			inst = in.code[pc]
		} else {
			var exc hw.Exc
			inst, exc = in.Src.Fetch(pc)
			if exc != hw.ExcNone {
				in.fetchFault(p, exc, pc)
				continue
			}
		}
		if p != nil {
			p.BeginInstr(pc, cpu.ASID, m.Clock.Cycles())
		}
		m.Clock.Tick(hw.CostInstr)
		in.Steps++
		halted := in.Step(inst)
		if p != nil {
			p.EndInstr(m.Clock.Cycles())
		}
		if halted {
			return StopHalt
		}
	}
	return StopSteps
}

// fetchFault raises exc for a failed fetch at pc. A fetch fault is an
// execution attempt at this PC: the profiler window, when p is non-nil,
// covers the exception-entry cost and the kernel's service, attributed
// to the faulting address.
func (in *Interp) fetchFault(p *prof.Profiler, exc hw.Exc, pc uint32) {
	if p != nil {
		p.BeginInstr(pc, in.M.CPU.ASID, in.M.Clock.Cycles())
	}
	in.M.RaiseException(exc, pc, pc)
	if p != nil {
		p.EndInstr(in.M.Clock.Cycles())
	}
}

// Step executes one instruction, returning true on HALT. The PC has NOT
// been advanced; Step advances it except when the instruction faults
// (restart semantics) or branches.
func (in *Interp) Step(inst isa.Inst) (halted bool) {
	cpu := &in.M.CPU
	pc := cpu.PC
	next := pc + 1
	switch inst.Op {
	case isa.NOP:
	case isa.ADD, isa.ADDI:
		var b int32
		if inst.Op == isa.ADD {
			b = int32(cpu.Reg(inst.Rt))
		} else {
			b = inst.Imm
		}
		a := int32(cpu.Reg(inst.Rs))
		s := a + b
		if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
			in.M.RaiseException(hw.ExcOverflow, pc, 0)
			return false
		}
		cpu.SetReg(inst.Rd, uint32(s))
	case isa.ADDU:
		cpu.SetReg(inst.Rd, cpu.Reg(inst.Rs)+cpu.Reg(inst.Rt))
	case isa.ADDIU:
		cpu.SetReg(inst.Rd, cpu.Reg(inst.Rs)+uint32(inst.Imm))
	case isa.SUB:
		cpu.SetReg(inst.Rd, cpu.Reg(inst.Rs)-cpu.Reg(inst.Rt))
	case isa.MUL:
		cpu.SetReg(inst.Rd, cpu.Reg(inst.Rs)*cpu.Reg(inst.Rt))
	case isa.DIV, isa.REM:
		d := int32(cpu.Reg(inst.Rt))
		if d == 0 {
			in.M.RaiseException(hw.ExcBreak, pc, 0)
			return false
		}
		a := int32(cpu.Reg(inst.Rs))
		if a == -1<<31 && d == -1 {
			// MinInt32 / -1 overflows; MIPS leaves the result
			// implementation-defined — define it as the wrapped quotient
			// (MinInt32) and remainder 0 rather than crashing the host.
			if inst.Op == isa.DIV {
				cpu.SetReg(inst.Rd, 1<<31)
			} else {
				cpu.SetReg(inst.Rd, 0)
			}
			break
		}
		if inst.Op == isa.DIV {
			cpu.SetReg(inst.Rd, uint32(a/d))
		} else {
			cpu.SetReg(inst.Rd, uint32(a%d))
		}
	case isa.AND:
		cpu.SetReg(inst.Rd, cpu.Reg(inst.Rs)&cpu.Reg(inst.Rt))
	case isa.ANDI:
		cpu.SetReg(inst.Rd, cpu.Reg(inst.Rs)&uint32(inst.Imm))
	case isa.OR:
		cpu.SetReg(inst.Rd, cpu.Reg(inst.Rs)|cpu.Reg(inst.Rt))
	case isa.ORI:
		cpu.SetReg(inst.Rd, cpu.Reg(inst.Rs)|uint32(inst.Imm))
	case isa.XOR:
		cpu.SetReg(inst.Rd, cpu.Reg(inst.Rs)^cpu.Reg(inst.Rt))
	case isa.XORI:
		cpu.SetReg(inst.Rd, cpu.Reg(inst.Rs)^uint32(inst.Imm))
	case isa.NOR:
		cpu.SetReg(inst.Rd, ^(cpu.Reg(inst.Rs) | cpu.Reg(inst.Rt)))
	case isa.SLT:
		cpu.SetReg(inst.Rd, b2u(int32(cpu.Reg(inst.Rs)) < int32(cpu.Reg(inst.Rt))))
	case isa.SLTU:
		cpu.SetReg(inst.Rd, b2u(cpu.Reg(inst.Rs) < cpu.Reg(inst.Rt)))
	case isa.SLTI:
		cpu.SetReg(inst.Rd, b2u(int32(cpu.Reg(inst.Rs)) < inst.Imm))
	case isa.LUI:
		cpu.SetReg(inst.Rd, uint32(inst.Imm)<<16)
	case isa.SLL:
		cpu.SetReg(inst.Rd, cpu.Reg(inst.Rs)<<uint(inst.Imm&31))
	case isa.SRL:
		cpu.SetReg(inst.Rd, cpu.Reg(inst.Rs)>>uint(inst.Imm&31))
	case isa.SRA:
		cpu.SetReg(inst.Rd, uint32(int32(cpu.Reg(inst.Rs))>>uint(inst.Imm&31)))

	case isa.LW, isa.LH, isa.LHU, isa.LB, isa.LBU:
		if !in.load(inst, pc) {
			return false
		}
	case isa.SW, isa.SH, isa.SB:
		if !in.store(inst, pc) {
			return false
		}

	case isa.BEQ:
		if cpu.Reg(inst.Rs) == cpu.Reg(inst.Rt) {
			next = uint32(inst.Imm)
		}
	case isa.BNE:
		if cpu.Reg(inst.Rs) != cpu.Reg(inst.Rt) {
			next = uint32(inst.Imm)
		}
	case isa.BLEZ:
		if int32(cpu.Reg(inst.Rs)) <= 0 {
			next = uint32(inst.Imm)
		}
	case isa.BGTZ:
		if int32(cpu.Reg(inst.Rs)) > 0 {
			next = uint32(inst.Imm)
		}
	case isa.BLTZ:
		if int32(cpu.Reg(inst.Rs)) < 0 {
			next = uint32(inst.Imm)
		}
	case isa.BGEZ:
		if int32(cpu.Reg(inst.Rs)) >= 0 {
			next = uint32(inst.Imm)
		}
	case isa.J:
		next = uint32(inst.Imm)
	case isa.JAL:
		cpu.SetReg(hw.RegRA, pc+1)
		next = uint32(inst.Imm)
	case isa.JR:
		next = cpu.Reg(inst.Rs)
	case isa.JALR:
		cpu.SetReg(inst.Rd, pc+1)
		next = cpu.Reg(inst.Rs)

	case isa.SYSCALL:
		in.M.RaiseException(hw.ExcSyscall, pc, 0)
		return false
	case isa.BREAK:
		in.M.RaiseException(hw.ExcBreak, pc, 0)
		return false
	case isa.COP1:
		if !cpu.FPUOn {
			in.M.RaiseException(hw.ExcCoproc, pc, 0)
			return false
		}
	case isa.HALT:
		return true

	case isa.TLBWR:
		if cpu.Mode != hw.ModeKernel {
			in.M.RaiseException(hw.ExcPriv, pc, 0)
			return false
		}
		a0, a1 := cpu.Reg(hw.RegA0), cpu.Reg(hw.RegA1)
		in.M.TLB.WriteRandom(hw.TLBEntry{
			VPN:   a0 & 0xFFFFF,
			ASID:  uint8(a0 >> 24),
			PFN:   a1 & 0xFFFFF,
			Perms: uint8(a1>>28) | hw.PermValid,
		})
	case isa.RFE:
		if cpu.Mode != hw.ModeKernel {
			in.M.RaiseException(hw.ExcPriv, pc, 0)
			return false
		}
		in.M.Clock.Tick(hw.CostExcReturn)
		cpu.Mode = hw.ModeUser
		next = cpu.EPC

	case isa.PKTLW, isa.PKTLB, isa.PKTLEN, isa.XMIT:
		if in.ASH == nil {
			in.M.RaiseException(hw.ExcPriv, pc, 0)
			return false
		}
		in.ashOp(inst)

	default:
		in.M.RaiseException(hw.ExcBreak, pc, 0)
		return false
	}
	cpu.PC = next
	return false
}

func (in *Interp) load(inst isa.Inst, pc uint32) bool {
	cpu := &in.M.CPU
	va := cpu.Reg(inst.Rs) + uint32(inst.Imm)
	var width uint32
	switch inst.Op {
	case isa.LW:
		width = 4
	case isa.LH, isa.LHU:
		width = 2
	default:
		width = 1
	}
	if va%width != 0 {
		in.M.RaiseException(hw.ExcAddrErrL, pc, va)
		return false
	}
	pa, ok := in.translate(va, false, pc)
	if !ok {
		return false
	}
	var v uint32
	switch inst.Op {
	case isa.LW:
		v = in.readWord(pa)
	case isa.LH:
		v = uint32(int32(int16(in.readHalf(pa))))
	case isa.LHU:
		v = uint32(in.readHalf(pa))
	case isa.LB:
		v = uint32(int32(int8(in.readByte(pa))))
	case isa.LBU:
		v = uint32(in.readByte(pa))
	}
	cpu.SetReg(inst.Rd, v)
	return true
}

func (in *Interp) store(inst isa.Inst, pc uint32) bool {
	cpu := &in.M.CPU
	va := cpu.Reg(inst.Rs) + uint32(inst.Imm)
	var width uint32
	switch inst.Op {
	case isa.SW:
		width = 4
	case isa.SH:
		width = 2
	default:
		width = 1
	}
	if va%width != 0 {
		in.M.RaiseException(hw.ExcAddrErrS, pc, va)
		return false
	}
	pa, ok := in.translate(va, true, pc)
	if !ok {
		return false
	}
	v := cpu.Reg(inst.Rt)
	switch inst.Op {
	case isa.SW:
		in.M.Phys.WriteWord(pa, v)
	case isa.SH:
		in.M.Phys.WriteHalf(pa, uint16(v))
	case isa.SB:
		in.M.Phys.StoreByte(pa, byte(v))
	}
	return true
}

// translate maps a data address. In the ASH context addresses bypass the
// TLB and are masked into the sandbox region; otherwise the machine MMU
// runs and a failure traps to the kernel (returning ok=false so the
// instruction restarts after the kernel services the fault).
func (in *Interp) translate(va uint32, write bool, pc uint32) (uint32, bool) {
	if in.ASH != nil {
		return in.ASH.SandboxBase + (va & in.ASH.SandboxMask), true
	}
	pa, exc := in.M.Translate(va, write)
	if exc != hw.ExcNone {
		in.M.RaiseException(exc, pc, va)
		return 0, false
	}
	return pa, true
}

func (in *Interp) readWord(pa uint32) uint32 { return in.M.Phys.ReadWord(pa) }
func (in *Interp) readHalf(pa uint32) uint16 { return in.M.Phys.ReadHalf(pa) }
func (in *Interp) readByte(pa uint32) byte   { return in.M.Phys.LoadByte(pa) }

func (in *Interp) ashOp(inst isa.Inst) {
	cpu := &in.M.CPU
	a := in.ASH
	switch inst.Op {
	case isa.PKTLW:
		off := int(cpu.Reg(inst.Rs)) + int(inst.Imm)
		var v uint32
		for i := 0; i < 4; i++ {
			if off+i >= 0 && off+i < len(a.Packet) {
				v |= uint32(a.Packet[off+i]) << (8 * i)
			}
		}
		in.M.Clock.Tick(hw.CostMemWord)
		cpu.SetReg(inst.Rd, v)
	case isa.PKTLB:
		off := int(cpu.Reg(inst.Rs)) + int(inst.Imm)
		var v uint32
		if off >= 0 && off < len(a.Packet) {
			v = uint32(a.Packet[off])
		}
		in.M.Clock.Tick(hw.CostMemWord)
		cpu.SetReg(inst.Rd, v)
	case isa.PKTLEN:
		cpu.SetReg(inst.Rd, uint32(len(a.Packet)))
	case isa.XMIT:
		base := cpu.Reg(inst.Rs) & a.SandboxMask
		n := int(cpu.Reg(inst.Rt) & a.SandboxMask)
		if cap(a.xmitBuf) < n {
			a.xmitBuf = make([]byte, n)
		}
		buf := a.xmitBuf[:n]
		a.Phys.CopyOut(buf, a.SandboxBase+base)
		a.Sent++
		if a.Xmit != nil {
			a.Xmit(buf)
		}
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
