package aegis

import (
	"fmt"

	"exokernel/internal/cap"
	"exokernel/internal/hw"
	"exokernel/internal/isa"
	"exokernel/internal/ktrace"
	"exokernel/internal/prof"
	"exokernel/internal/vm"
)

// frameBinding records the secure binding on one physical frame: who
// allocated it and the resource name its capabilities were minted over.
// Access checks happen at *bind* time (installing a TLB mapping), never on
// individual memory references — that is the essence of a secure binding.
type frameBinding struct {
	owner EnvID
	bound bool
	name  uint64 // bindingName at allocation
}

// bindingName names a new secure binding on a frame or an extent: a
// per-kernel serial, never reused, above the frame number or the
// extent's first block. Capabilities are minted over the name, not the
// bare resource, so one that outlived its binding — the page freed,
// repossessed or reclaimed with its environment, the extent freed — is
// refused even after the same frame or blocks are bound again. Frames
// and extents draw from one serial, so their names never collide.
func (k *Kernel) bindingName(index uint32) uint64 {
	k.bindings++
	return k.bindings<<32 | uint64(index)
}

// frameCapOK reports whether c carries need on frame's live binding.
// The caller has checked that the frame is bound.
func (k *Kernel) frameCapOK(frame uint32, c cap.Capability, need cap.Rights) bool {
	return c.Resource == k.frames[frame].name && k.Auth.Check(c, need)
}

// Kernel is the Aegis exokernel for one machine.
type Kernel struct {
	M      *hw.Machine
	Interp *vm.Interp
	Auth   *cap.Authority

	envs []*Env // index = EnvID-1
	cur  EnvID
	// curCode mirrors the current environment's code segment for the
	// per-instruction fetch path. Republished by setCode at every point
	// where cur changes; Env.Code itself is immutable after NewEnv.
	curCode isa.Code

	frames   []frameBinding
	extents  []extent
	bindings uint64 // bindingName serial
	stlb     *stlb
	// STLBEnabled can be cleared for the ablation benchmark.
	STLBEnabled bool

	// Time-slice vector (§5.1.1): the CPU as a linear vector of slices.
	slices   []EnvID
	slicePos int
	quantum  uint64

	// Network endpoints, in filter-priority order, and the optional
	// shared classifier that replaces the linear filter walk.
	endpoints []*Endpoint
	demux     Demux

	// Stats is the accounting registry: the kernel-wide counters
	// (promoted, so k.Stats.Syscalls reads as before) plus one account
	// per environment (account.go).
	Stats Registry

	// Tracer, when non-nil, is the attached flight recorder. It records
	// cycle-stamped events but never advances the clock: the cost model
	// is identical traced or untraced.
	Tracer *ktrace.Recorder
	// Spans, when non-nil, collects causal request spans (same
	// contract as Tracer: observation only, zero clock perturbation; a
	// nil recorder is valid and inert).
	Spans *ktrace.SpanRecorder
	// TraceParse and TraceStamp are library-installed wire hooks (the
	// SetDemux pattern: the kernel knows no protocols, so the library
	// that owns the frame format tells it where trace context lives).
	// TraceParse extracts the span context carried by an incoming
	// frame; TraceStamp writes a context into an outgoing one. Either
	// may be nil.
	TraceParse func(frame []byte) ktrace.SpanContext
	TraceStamp func(frame []byte, ctx ktrace.SpanContext)
	// Prof, when non-nil, is the attached cycle profiler (same contract
	// again: observation only, never a Tick). Every recordOp site
	// doubles as a profiler kernel window; attach with SetProf so the
	// interpreter hooks are wired too.
	Prof *prof.Profiler
	// runStart is the cycle at which the current environment's
	// attribution span began (see settleCycles).
	runStart uint64
}

// SetSpans attaches (or detaches, nil) the span recorder.
func (k *Kernel) SetSpans(r *ktrace.SpanRecorder) { k.Spans = r }

// SetProf attaches (or detaches, nil) the cycle profiler to both the
// kernel's operation windows and the interpreter's per-instruction
// hooks.
func (k *Kernel) SetProf(p *prof.Profiler) {
	k.Prof = p
	k.Interp.Prof = p
}

// SetTraceWire installs the wire-format trace hooks.
func (k *Kernel) SetTraceWire(parse func([]byte) ktrace.SpanContext, stamp func([]byte, ktrace.SpanContext)) {
	k.TraceParse = parse
	k.TraceStamp = stamp
}

// wireCtx reads the trace context of a frame via the installed hook.
func (k *Kernel) wireCtx(frame []byte) ktrace.SpanContext {
	if k.TraceParse == nil {
		return ktrace.SpanContext{}
	}
	return k.TraceParse(frame)
}

// Stats counts kernel events.
type Stats struct {
	Syscalls     uint64
	Exceptions   uint64
	TLBMisses    uint64
	STLBHits     uint64
	TLBUpcalls   uint64
	ProtCalls    uint64
	TimerTicks   uint64
	PktDelivered uint64
	PktDropped   uint64
	ASHRuns      uint64
	Revocations  uint64
	Aborts       uint64
	KilledEnvs   uint64
	// RxOverflow counts frames that died at the NIC receive ring before
	// classification. The hardware used to drop these silently
	// (hw.NIC.Deliver past the ring depth); the kernel now observes every
	// one through the NIC's OnDrop hook. Ring drops happen before any
	// filter runs, so no environment owns them — the loss is a
	// machine-level fact, surfaced here and in /proc/stat.
	RxOverflow uint64
}

// New boots Aegis on a machine.
func New(m *hw.Machine) *Kernel {
	k := &Kernel{
		M:           m,
		Auth:        cap.NewAuthority([]byte(m.Config.Name)),
		frames:      make([]frameBinding, m.Phys.NumPages()),
		stlb:        newSTLB(m.Config.STLBSize),
		STLBEnabled: m.Config.STLBSize > 0,
		quantum:     25000, // 1 ms at 25 MHz
	}
	k.Stats.MetricsOn = true
	k.Interp = vm.New(m, k)
	m.SetTrapHandler(k)
	m.NIC.OnDrop = func() {
		k.Stats.RxOverflow++
		k.trace(ktrace.KindNICOverflow, 0, k.Stats.RxOverflow, 0, 0)
	}
	return k
}

// charge accounts for n kernel instructions on the simulated clock.
func (k *Kernel) charge(n uint64) { k.M.Clock.Tick(n * hw.CostInstr) }

// NewEnv creates an environment running the given code segment (nil for a
// native environment). The kernel allocates one physical frame as the
// environment's save area and adds one slice to the time-slice vector.
func (k *Kernel) NewEnv(code isa.Code) (*Env, error) {
	frame, ok := k.M.Phys.AllocFrame()
	if !ok {
		return nil, fmt.Errorf("aegis: out of physical memory for save area")
	}
	id := EnvID(len(k.envs) + 1)
	e := &Env{
		ID:       id,
		ASID:     uint8(id),
		Code:     code,
		SaveArea: frame << hw.PageShift,
	}
	k.frames[frame] = frameBinding{owner: id, bound: true, name: k.bindingName(frame)}
	k.envs = append(k.envs, e)
	k.slices = append(k.slices, id)
	k.Stats.acct(id).Frames++ // the save area is a held frame
	k.trace(ktrace.KindEnvCreate, id, uint64(frame), 0, 0)
	k.trace(ktrace.KindFrameBind, id, uint64(frame), 0, 0)
	if k.cur == 0 {
		k.installEnv(e)
	}
	return e, nil
}

// Env resolves an ID.
func (k *Kernel) Env(id EnvID) (*Env, bool) {
	if id == 0 || int(id) > len(k.envs) {
		return nil, false
	}
	return k.envs[id-1], true
}

// CurEnv returns the running environment (nil before the first NewEnv).
func (k *Kernel) CurEnv() *Env {
	e, _ := k.Env(k.cur)
	return e
}

// Envs returns all environments (diagnostics).
func (k *Kernel) Envs() []*Env { return k.envs }

// installEnv loads an environment's processor state without saving the
// previous one (boot, or after the caller has saved explicitly).
func (k *Kernel) installEnv(e *Env) {
	k.settleCycles()
	cpu := &k.M.CPU
	cpu.Regs = e.Regs
	cpu.PC = e.PC
	cpu.ASID = e.ASID
	cpu.FPUOn = e.FPU
	cpu.Mode = hw.ModeUser
	k.cur = e.ID
	k.setCode(e.Code)
}

// setCode publishes the current environment's code segment to both fetch
// paths: the hoisted guard state Fetch reads, and the interpreter's
// direct-fetch slice. The two always change together, so the engines
// cannot disagree about what the current PC maps to.
func (k *Kernel) setCode(code isa.Code) {
	k.curCode = code
	k.Interp.SetCode(code)
}

// saveEnv captures the processor state into the environment.
func (k *Kernel) saveEnv(e *Env) {
	cpu := &k.M.CPU
	e.Regs = cpu.Regs
	e.PC = cpu.PC
	e.FPU = cpu.FPUOn
}

// switchTo performs a full context switch: the hardware cost is the
// address-space tag change; register save/restore is the *application's*
// job in Aegis (its interrupt handler does it), so switchTo is only used on
// kernel-forced switches, where it charges for the register file moves the
// kernel performs on the environment's behalf.
func (k *Kernel) switchTo(e *Env, chargeRegs bool) {
	start := k.opStart()
	out := k.cur
	k.trace(ktrace.KindCtxSwitch, k.cur, uint64(e.ID), 0, 0)
	if cur := k.CurEnv(); cur != nil {
		k.saveEnv(cur)
		if chargeRegs {
			k.charge(hw.NumRegs)
		}
	}
	if chargeRegs {
		k.charge(hw.NumRegs)
	}
	k.M.Clock.Tick(hw.CostContextID)
	k.installEnv(e)
	k.recordOp(OpCtxSwitch, out, start)
}

// Fetch implements vm.CodeSource: instructions come from the current
// environment's segment. The per-instruction nil-env and nil-code guards
// are hoisted out of this path: they can only change at context-switch
// boundaries, where setCode republishes curCode, and a vacant or
// code-less environment leaves curCode nil — which the bounds check
// rejects (len(nil) == 0) with the same address error as before.
func (k *Kernel) Fetch(pc uint32) (isa.Inst, hw.Exc) {
	if int(pc) >= len(k.curCode) {
		return isa.Inst{}, hw.ExcAddrErrL
	}
	return k.curCode[pc], hw.ExcNone
}

// Kill terminates an environment: a library OS uses it when a fault has no
// handler (the moral equivalent of an uncaught fatal signal).
func (k *Kernel) Kill(e *Env, t TrapInfo) { k.kill(e, t) }

// DestroyEnv terminates an environment and reclaims every resource bound
// to it: physical frames (bindings broken, pages freed), disk extents,
// network endpoints and their downloaded code, and the save area. This is
// the deallocation half of the environment life cycle; resources another
// environment obtained *capabilities* to are gone with the frames — a
// capability names a binding (bindingName), and the bindings no longer
// exist, so it stays refused when the frames are allocated again.
func (k *Kernel) DestroyEnv(e *Env) {
	if !e.Dead {
		k.kill(e, TrapInfo{})
	}
	k.charge(20)
	var freedFrames, freedExtents, freedEndpoints uint64
	// Network endpoints (and any ASHs riding them).
	kept := k.endpoints[:0]
	for _, ep := range k.endpoints {
		if ep.Owner != e.ID {
			kept = append(kept, ep)
		} else {
			freedEndpoints++
		}
	}
	k.endpoints = kept
	// Disk extents.
	exts := k.extents[:0]
	for _, x := range k.extents {
		if x.owner != e.ID {
			exts = append(exts, x)
		} else {
			freedExtents++
		}
	}
	k.extents = exts
	// Physical frames, including the save area.
	for frame := range k.frames {
		if k.frames[frame].bound && k.frames[frame].owner == e.ID {
			k.breakBindings(uint32(frame))
			k.frames[frame] = frameBinding{}
			_ = k.M.Phys.FreeFrame(uint32(frame))
			freedFrames++
		}
	}
	// Reclaim the account: held-resource counters go to zero with the
	// bindings; activity counters stay for post-mortem inspection. The
	// latency histograms are reclaimed outright — a destroyed
	// environment's /proc/<id>/hist reads back zeroed, never stale.
	acct := k.Stats.acct(e.ID)
	acct.Frames, acct.Extents, acct.Endpoints = 0, 0, 0
	k.Stats.envOps(e.ID).Reset()
	k.trace(ktrace.KindEnvDestroy, e.ID, freedFrames, freedExtents, freedEndpoints)
}

// kill marks an environment dead, frees its slices, and stops the
// interpreter if nothing remains runnable.
func (k *Kernel) kill(e *Env, t TrapInfo) {
	e.Dead = true
	e.LastFault = t
	k.Stats.KilledEnvs++
	k.trace(ktrace.KindEnvKill, e.ID, uint64(t.Cause), uint64(t.EPC), 0)
	live := k.slices[:0]
	for _, id := range k.slices {
		if id != e.ID {
			live = append(live, id)
		}
	}
	k.slices = live
	if k.cur == e.ID {
		if next := k.nextRunnable(); next != nil {
			k.switchTo(next, true)
		} else {
			k.Interp.RequestStop()
		}
	}
}
