package exos

import (
	"fmt"

	"exokernel/internal/aegis"
	"exokernel/internal/dpf"
	"exokernel/internal/fifo"
	"exokernel/internal/hw"
	"exokernel/internal/ktrace"
	"exokernel/internal/pkt"
)

// Application-level networking (§6.3, §7.2): ExOS implements UDP entirely
// in the library. Demultiplexing is a downloaded DPF filter; delivery is a
// copy into the socket's buffer when the application is scheduled, or an
// ASH reply straight from the kernel's interrupt context.

// Net is the per-machine network multiplexor: it owns the merged DPF
// engine (acting as the "trusted server" that installs filters) and routes
// classified frames to sockets.
type Net struct {
	K      *aegis.Kernel
	Engine *dpf.Engine
	MAC    pkt.Addr
	IP     uint32
	eps    map[dpf.FilterID]*aegis.Endpoint
	// conns lists live TCP connections, in open order, for /proc/net/tcp.
	conns []*TCPConn
}

// NewNet attaches a network multiplexor to a kernel.
func NewNet(k *aegis.Kernel, mac pkt.Addr, ip uint32) *Net {
	n := &Net{K: k, Engine: dpf.NewEngine(), MAC: mac, IP: ip, eps: make(map[dpf.FilterID]*aegis.Endpoint)}
	k.SetDemux(n.demux)
	// The library owns the frame format, so it teaches the kernel where
	// trace context lives (for ASH dispatch, which runs in the kernel).
	k.SetTraceWire(wireParse, wireStamp)
	return n
}

// demux classifies a frame through the shared compiled trie.
func (n *Net) demux(frame []byte) (*aegis.Endpoint, uint64, bool) {
	id, cycles, ok := n.Engine.Classify(frame)
	if !ok {
		return nil, cycles, false
	}
	ep, ok := n.eps[id]
	return ep, cycles, ok
}

// engineFilter adapts (engine, id) to the per-endpoint Filter interface;
// it is only consulted if the shared demux is disabled.
type engineFilter struct {
	n  *Net
	id dpf.FilterID
}

func (f engineFilter) Match(frame []byte) (bool, uint64) {
	id, cycles, ok := f.n.Engine.Classify(frame)
	return ok && id == f.id, cycles
}

// UDPSocket is a bound UDP endpoint.
type UDPSocket struct {
	Net  *Net
	os   *LibOS
	Port uint16
	EP   *aegis.Endpoint
	id   dpf.FilterID

	rx fifo.Queue[rxFrame]
	// tx is the transmit scratch frame SendTo builds into; nil while a
	// send is in flight, so a re-entrant SendTo builds a fresh one.
	tx []byte
	// Delivered counts frames copied into the socket buffer.
	Delivered uint64
}

type rxFrame struct {
	flow    pkt.Flow
	payload []byte
	// ctx is the delivery span's context (zero if the frame carried no
	// valid trace context): the recv span parents under it when the
	// application drains the frame.
	ctx ktrace.SpanContext
}

// Bind creates a socket for a local UDP port: it downloads the filter and
// wires native delivery (copy into the socket buffer, charged per word).
func (n *Net) Bind(os *LibOS, port uint16) (*UDPSocket, error) {
	id, err := n.Engine.Insert(dpf.PortFilter(pkt.ProtoUDP, port))
	if err != nil {
		return nil, err
	}
	ep, err := n.K.InstallFilter(os.Env, engineFilter{n, id})
	if err != nil {
		return nil, err
	}
	s := &UDPSocket{Net: n, os: os, Port: port, EP: ep, id: id}
	ep.Deliver = s.deliver
	n.eps[id] = ep
	os.Net = n
	return s, nil
}

// Close unbinds the socket: the endpoint is removed and the downloaded
// filter uninstalled (the demux trie recompiles without it).
func (s *UDPSocket) Close() error {
	s.Net.K.RemoveEndpoint(s.EP)
	delete(s.Net.eps, s.id)
	return s.Net.Engine.Remove(s.id)
}

// deliver runs at interrupt level: copy the frame into the socket buffer
// (one charged word move per 4 bytes — the single copy of the exokernel
// path) and let the application find it when it runs.
func (s *UDPSocket) deliver(k *aegis.Kernel, frame []byte) {
	flow, ok := pkt.ParseFlow(frame)
	if !ok {
		return
	}
	start := k.M.Clock.Cycles()
	payload := pkt.Payload(frame)
	buf := make([]byte, len(payload))
	copy(buf, payload)
	k.M.Clock.Tick(uint64((len(frame) + 3) / 4))
	var ctx ktrace.SpanContext
	if wc := wireParse(frame); wc.Valid() {
		rx := k.Spans.Begin(start, ktrace.SpanRx, uint32(s.os.Env.ID), wc, uint64(len(payload)))
		k.Spans.End(rx, k.M.Clock.Cycles())
		ctx = rx.Ctx()
	}
	s.rx.Push(rxFrame{flow: flow, payload: buf, ctx: ctx})
	s.Delivered++
}

// SendTo transmits payload to a destination. The header build and the copy
// into the transmit buffer are application-level work, charged per word.
// The frame is built in the socket's scratch buffer, which the NIC only
// borrows for the send. Delivery is synchronous, so the send can re-enter
// SendTo (a reply handled at interrupt level); the scratch is taken for
// the duration, and the inner call builds its own frame.
func (s *UDPSocket) SendTo(dstMAC pkt.Addr, dstIP uint32, dstPort uint16, payload []byte) {
	f := pkt.Flow{Proto: pkt.ProtoUDP, SrcIP: s.Net.IP, DstIP: dstIP, SrcPort: s.Port, DstPort: dstPort}
	frame := pkt.BuildInto(s.tx, dstMAC, s.Net.MAC, f, payload)
	s.tx = nil
	var tx ktrace.SpanRef
	if s.os.Env.Trace.Valid() {
		tx = s.os.K.Spans.Begin(s.os.K.M.Clock.Cycles(), ktrace.SpanUDPTx, uint32(s.os.Env.ID), s.os.Env.Trace, uint64(len(payload)))
		wireStamp(frame, tx.Ctx())
	}
	s.os.K.M.Clock.Tick(uint64(pkt.UDPPayload/4) + 4) // header composition + checksum arithmetic
	// The span closes before the NIC hand-off: segment delivery is
	// synchronous and can advance this clock through remote processing
	// (an ASH reply), which is wire time, not transmit work.
	s.os.K.Spans.End(tx, s.os.K.M.Clock.Cycles())
	s.os.K.M.NIC.Send(hw.Packet{Data: frame})
	s.tx = frame
}

// TryRecv returns the next received payload without blocking. The drain
// is application work: queue bookkeeping plus the copy of the payload into
// the caller's buffer.
func (s *UDPSocket) TryRecv() ([]byte, pkt.Flow, bool) {
	s.os.K.M.Clock.Tick(8) // queue check + header bookkeeping
	fr, ok := s.rx.Pop()
	if !ok {
		return nil, pkt.Flow{}, false
	}
	var rv ktrace.SpanRef
	if fr.ctx.Valid() {
		rv = s.os.K.Spans.Begin(s.os.K.M.Clock.Cycles(), ktrace.SpanRecv, uint32(s.os.Env.ID), fr.ctx, uint64(len(fr.payload)))
	}
	s.os.K.M.Clock.Tick(uint64((len(fr.payload)+3)/4) + 10)
	if rv.Ctx().Valid() {
		s.os.K.Spans.End(rv, s.os.K.M.Clock.Cycles())
		// The drained message's trace becomes the environment's active
		// context: the application's response joins the request's tree.
		s.os.Env.Trace = rv.Ctx()
	}
	return fr.payload, fr.flow, true
}

// Recv blocks (yielding the slice) until a payload arrives.
func (s *UDPSocket) Recv() ([]byte, pkt.Flow) {
	for {
		if data, flow, ok := s.TryRecv(); ok {
			return data, flow
		}
		s.os.K.Yield(aegis.YieldNext)
	}
}

// AttachEchoASH downloads the echo handler onto this socket's endpoint:
// from then on, arriving frames are answered from the kernel's interrupt
// context without scheduling the application — the Figure 2 fast path.
func (s *UDPSocket) AttachEchoASH() error {
	frame, guard, err := s.os.K.AllocPage(s.os.Env, aegis.AnyFrame)
	if err != nil {
		return err
	}
	_, err = s.os.K.InstallASH(s.EP, EchoASH(), frame, guard)
	if err != nil {
		return fmt.Errorf("exos: echo ASH rejected: %w", err)
	}
	return nil
}

// Pending reports how many received payloads await the application.
func (s *UDPSocket) Pending() int { return s.rx.Len() }
