package aegis

import (
	"fmt"

	"exokernel/internal/cap"
	"exokernel/internal/hw"
	"exokernel/internal/isa"
	"exokernel/internal/ktrace"
	"exokernel/internal/sandbox"
	"exokernel/internal/vm"
)

// Network multiplexing (§3.2, §5.5 of the paper). The kernel knows no
// protocols: applications download *packet filters* — predicates over the
// raw frame — and the kernel delivers each incoming message to the first
// endpoint whose filter accepts it. An endpoint may also carry an ASH
// (application-specific handler): verified code the kernel executes in the
// interrupt context, so the application can vector the message, integrate
// computation, and send replies without being scheduled.

// Filter is a downloaded demultiplexing predicate. Match reports whether
// the frame belongs to the endpoint, and how many simulated cycles the
// classification consumed (a compiled DPF filter reports far fewer cycles
// than an interpreted one — that difference is Table 7).
type Filter interface {
	Match(frame []byte) (accept bool, cycles uint64)
}

// Endpoint binds a filter to an environment's receive path.
type Endpoint struct {
	Owner EnvID
	Filt  Filter

	// ASH, when non-nil, runs in the kernel at delivery time.
	ASH *ASH

	// Deliver is the native delivery hook (library-OS code): it copies the
	// message wherever the application wants it and charges for the copy.
	// When nil, the kernel queues the frame on Queue and the application
	// drains it when scheduled.
	Deliver func(k *Kernel, frame []byte)
	Queue   [][]byte

	// Delivered counts frames accepted by this endpoint.
	Delivered uint64
}

// InstallFilter downloads a packet filter for an environment. In the
// prototype, "simple security precautions such as only allowing a trusted
// server to install filters" guard against filters that lie; here the
// check is that the environment exists and is alive — the trusted-server
// refinement lives with the caller, as in the paper.
func (k *Kernel) InstallFilter(e *Env, f Filter) (*Endpoint, error) {
	if e == nil || e.Dead {
		return nil, fmt.Errorf("aegis: filter install for dead environment")
	}
	k.charge(20) // filter insertion bookkeeping
	ep := &Endpoint{Owner: e.ID, Filt: f}
	k.endpoints = append(k.endpoints, ep)
	k.Stats.acct(e.ID).Endpoints++
	k.trace(ktrace.KindEndpointBind, e.ID, 0, 0, 0)
	return ep, nil
}

// RemoveEndpoint uninstalls a filter.
func (k *Kernel) RemoveEndpoint(ep *Endpoint) {
	for i, x := range k.endpoints {
		if x == ep {
			k.endpoints = append(k.endpoints[:i], k.endpoints[i+1:]...)
			if a := k.Stats.acct(ep.Owner); a.Endpoints > 0 {
				a.Endpoints--
			}
			k.trace(ktrace.KindEndpointUnbind, ep.Owner, 0, 0, 0)
			return
		}
	}
}

// ASH is a verified application-specific handler bound to an endpoint.
type ASH struct {
	Code     isa.Code
	Budget   int    // static step bound from the verifier
	Sandbox  uint32 // physical base of the handler's scratch region
	SandMask uint32

	// runner is the handler's interpreter, built on its first run and
	// reused by every later one; nil while a run is in progress.
	runner *ashRunner
}

// ashRunner is the execution state one ASH run needs: an interpreter in
// ASH mode, its message context, and the span of the run in progress
// (the bound Xmit stamps replies with it).
type ashRunner struct {
	in   *vm.Interp
	ctx  vm.ASHContext
	span ktrace.SpanRef
}

// newASHRunner builds the interpreter and message context for a handler.
func (k *Kernel) newASHRunner(a *ASH) *ashRunner {
	r := &ashRunner{ctx: vm.ASHContext{
		SandboxBase: a.Sandbox,
		SandboxMask: a.SandMask,
		Phys:        k.M.Phys,
	}}
	r.ctx.Xmit = func(data []byte) {
		if k.TraceStamp != nil && r.span.Ctx().Valid() {
			k.TraceStamp(data, r.span.Ctx())
		}
		k.M.NIC.Send(hw.Packet{Data: data})
	}
	r.in = &vm.Interp{M: k.M, Src: vm.FixedCode(a.Code), ASH: &r.ctx}
	r.in.SetCode(a.Code)
	return r
}

// InstallASH verifies handler code (inspection + sandboxing) and attaches
// it to an endpoint. The sandbox region is one page the application owns;
// the capability must prove write access — the ASH will store into it from
// kernel context, so the binding must be checked *now*, at download time.
func (k *Kernel) InstallASH(ep *Endpoint, code isa.Code, frame uint32, guard cap.Capability) (*ASH, error) {
	res, err := sandbox.Verify(code, sandbox.PolicyASH)
	if err != nil {
		return nil, err
	}
	if int(frame) >= len(k.frames) || !k.frames[frame].bound {
		return nil, fmt.Errorf("aegis: ASH sandbox frame %d not allocated", frame)
	}
	if !k.frameCapOK(frame, guard, cap.Write) {
		return nil, fmt.Errorf("aegis: capability check failed for ASH sandbox")
	}
	// Verification cost is paid once, at download time: one pass.
	k.charge(uint64(len(code)) * 2)
	ash := &ASH{
		Code:     code,
		Budget:   res.MaxSteps,
		Sandbox:  frame << hw.PageShift,
		SandMask: hw.PageSize - 1,
	}
	ep.ASH = ash
	return ash, nil
}

// serviceNIC drains the receive ring, classifying and delivering each
// frame. It runs in interrupt context: ASHs execute immediately; plain
// endpoints get the frame queued/copied for when their owner is scheduled.
// Each frame is read in place from the NIC's receive buffer, which goes
// back to the NIC once delivery is done; every delivery path that keeps
// the message copies it first.
func (k *Kernel) serviceNIC() {
	for {
		pkt, ok := k.M.NIC.Recv()
		if !ok {
			return
		}
		k.deliver(pkt.Data)
		k.M.NIC.Release(pkt)
	}
}

// Demux is a shared classifier covering all endpoints at once (a merged
// DPF trie). When installed, it replaces the linear walk of per-endpoint
// filters.
type Demux func(frame []byte) (ep *Endpoint, cycles uint64, ok bool)

// SetDemux installs a shared classifier (nil restores the linear walk).
func (k *Kernel) SetDemux(d Demux) { k.demux = d }

// deliver classifies one frame against the installed filters and hands it
// to the owning endpoint.
func (k *Kernel) deliver(frame []byte) {
	// The demux-path histogram spans classification through delivery
	// (filter match, ASH run or copy-out) — the end-to-end latency a
	// multiplexed receiver actually experiences. Drops are attributed
	// to the kernel (environment 0): no one owns an unclaimed frame.
	start := k.opStart()
	k.charge(6) // interrupt-level receive bookkeeping
	if k.demux != nil {
		ep, cycles, ok := k.demux(frame)
		k.M.Clock.Tick(cycles)
		k.trace(ktrace.KindPktClassify, k.cur, uint64(len(frame)), cycles, 0)
		if !ok || ep == nil {
			k.Stats.PktDropped++
			k.trace(ktrace.KindPktDrop, 0, uint64(len(frame)), 0, 0)
			k.recordOp(OpDemux, 0, start)
			return
		}
		k.deliverTo(ep, frame)
		k.recordOp(OpDemux, ep.Owner, start)
		return
	}
	var spent uint64
	for _, ep := range k.endpoints {
		accept, cycles := ep.Filt.Match(frame)
		k.M.Clock.Tick(cycles)
		spent += cycles
		if !accept {
			continue
		}
		k.trace(ktrace.KindPktClassify, k.cur, uint64(len(frame)), spent, 0)
		k.deliverTo(ep, frame)
		k.recordOp(OpDemux, ep.Owner, start)
		return
	}
	k.Stats.PktDropped++
	k.trace(ktrace.KindPktClassify, k.cur, uint64(len(frame)), spent, 0)
	k.trace(ktrace.KindPktDrop, 0, uint64(len(frame)), 0, 0)
	k.recordOp(OpDemux, 0, start)
}

// deliverTo hands an accepted frame to its endpoint: ASH in interrupt
// context, native delivery hook, or the kernel's default queue.
func (k *Kernel) deliverTo(ep *Endpoint, frame []byte) {
	ep.Delivered++
	k.Stats.PktDelivered++
	k.Stats.acct(ep.Owner).PktDelivered++
	k.trace(ktrace.KindPktDeliver, ep.Owner, uint64(len(frame)), 0, 0)
	if ep.ASH != nil {
		k.runASH(ep, frame)
		return
	}
	if ep.Deliver != nil {
		ep.Deliver(k, frame)
		return
	}
	// Kernel default: copy into a kernel buffer for later pickup.
	buf := make([]byte, len(frame))
	copy(buf, frame)
	k.M.Clock.Tick(uint64((len(frame) + 3) / 4))
	ep.Queue = append(ep.Queue, buf)
}

// runASH executes a verified handler in the kernel's message context:
// the caller's registers are preserved around the run (the handler has its
// own register context), memory instructions are sandboxed, and execution
// is bounded by the verifier's budget — belt and suspenders.
func (k *Kernel) runASH(ep *Endpoint, frame []byte) {
	start := k.opStart()
	defer k.recordOp(OpASHRun, ep.Owner, start)
	k.Stats.ASHRuns++
	k.trace(ktrace.KindASHRun, ep.Owner, uint64(len(frame)), 0, 0)
	// The handler run is a span under whatever request the frame carries
	// (wire hook; zero context if none). Replies the handler transmits
	// are stamped with the ASH span's context, so the echo's receiver
	// parents under the handler — the causal chain survives a request
	// that never leaves interrupt level.
	ash := k.Spans.Begin(start, ktrace.SpanASH, uint32(ep.Owner), k.wireCtx(frame), uint64(len(frame)))
	defer func() { k.Spans.End(ash, k.M.Clock.Cycles()) }()
	cpu := &k.M.CPU
	savedRegs := cpu.Regs
	savedPC := cpu.PC
	savedMode := cpu.Mode
	k.charge(8) // handler entry: set up the message context

	// Take the handler's runner for the duration of the run; a nested
	// run of the same handler (none is expected: handlers run with
	// interrupts off) finds it gone and builds its own.
	r := ep.ASH.runner
	if r == nil {
		r = k.newASHRunner(ep.ASH)
	}
	ep.ASH.runner = nil
	r.ctx.Packet = frame
	r.ctx.Sent = 0
	r.span = ash
	savedIntr := cpu.IntrOn
	cpu.Regs = [hw.NumRegs]uint32{}
	cpu.PC = 0
	cpu.Mode = hw.ModeKernel
	cpu.IntrOn = false // handlers run at interrupt level
	r.in.Run(uint64(ep.ASH.Budget))
	r.ctx.Packet = nil // the frame goes back to the NIC after delivery
	ep.ASH.runner = r

	cpu.Regs = savedRegs
	cpu.PC = savedPC
	cpu.Mode = savedMode
	cpu.IntrOn = savedIntr
}
