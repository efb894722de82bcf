package hw

import "exokernel/internal/fifo"

// Packet is one frame on the wire. Payload layout is up to the protocols
// (the kernel treats it as opaque bytes; packet filters inspect it).
type Packet struct {
	Data []byte
}

// NICFault models receive-queue pressure: per delivery it reports how
// many ring slots are artificially occupied (DMA descriptors stolen by a
// misbehaving peer device, in hardware terms). nil means none.
type NICFault interface {
	RxPressure() int
}

// NIC models the network interface: a receive queue fed by the wire and a
// transmit hook connected to an Ethernet segment (internal/ether). Receive
// raises IRQNIC; the kernel demultiplexes with packet filters and copies
// the payload wherever the owning application (or its ASH) directs.
//
// Buffer ownership, which lets a steady stream of frames move without
// allocating:
//   - Send borrows its frame only for the duration of the call; the
//     transmit hook must copy anything it keeps.
//   - Deliver copies its input (the DMA into the receive ring), into a
//     buffer from the NIC's own free list.
//   - A frame returned by Recv stays valid until the receiver hands it
//     back with Release, once; the NIC then reuses the buffer.
type NIC struct {
	m    *Machine
	rx   fifo.Queue[Packet]
	free [][]byte // released receive buffers, reused by Deliver
	tx   func(Packet)

	// Fault, when non-nil, injects receive-queue pressure.
	Fault NICFault
	// OnDrop, when non-nil, is invoked for every frame dropped at the
	// ring (overflow or injected pressure) — the kernel wires it into
	// its accounting registry so silent hardware drops become visible.
	OnDrop func()

	// Stats
	RxCount, TxCount, RxDropped uint64
	rxLimit                     int
}

// NewNIC creates a NIC with a default receive-ring depth of 64 packets.
func NewNIC(m *Machine) *NIC { return &NIC{m: m, rxLimit: 64} }

// ConnectTx installs the transmit hook (set by the Ethernet segment).
func (n *NIC) ConnectTx(tx func(Packet)) { n.tx = tx }

// Deliver places a copy of a packet arriving from the wire into the
// receive ring and asserts the NIC interrupt; the caller keeps p. Packets
// beyond the ring depth are dropped, as real hardware would. If
// interrupts are enabled the interrupt preempts immediately — this is
// what lets an ASH reply without anyone being scheduled; when the kernel
// is running with interrupts masked (e.g. inside an ASH), the pending bit
// is picked up at the next poll.
func (n *NIC) Deliver(p Packet) {
	limit := n.rxLimit
	if n.Fault != nil {
		limit -= n.Fault.RxPressure()
	}
	if n.rx.Len() >= limit {
		n.RxDropped++
		if n.OnDrop != nil {
			n.OnDrop()
		}
		return
	}
	buf := n.rxBuffer(len(p.Data))
	copy(buf, p.Data)
	n.rx.Push(Packet{Data: buf})
	n.RxCount++
	n.m.CPU.Pending |= IRQNIC
	if n.m.CPU.IntrOn && n.m.handler != nil {
		n.m.RaiseException(ExcInterrupt, n.m.CPU.PC, 0)
	}
}

// rxBuffer takes a receive buffer of size bytes from the free list,
// replacing a released buffer that is too small with a fresh one.
func (n *NIC) rxBuffer(size int) []byte {
	if k := len(n.free); k > 0 {
		b := n.free[k-1]
		n.free = n.free[:k-1]
		if cap(b) >= size {
			return b[:size]
		}
	}
	return make([]byte, size)
}

// Pending reports how many received packets await the kernel.
func (n *NIC) Pending() int { return n.rx.Len() }

// Recv removes the next received packet. Its buffer belongs to the NIC:
// the receiver reads it in place and returns it with Release. The kernel
// pays the per-word DMA copy cost when it moves the payload into
// application memory, not here.
func (n *NIC) Recv() (Packet, bool) {
	p, ok := n.rx.Pop()
	if ok && n.rx.Len() == 0 {
		n.m.CPU.Pending &^= IRQNIC
	}
	return p, ok
}

// Release returns a packet obtained from Recv to the NIC's free list. The
// caller must not touch p.Data afterwards, nor release it twice.
func (n *NIC) Release(p Packet) {
	if cap(p.Data) > 0 {
		n.free = append(n.free, p.Data)
	}
}

// Send transmits a packet onto the wire. Charges the per-word cost of
// copying the frame into the transmit buffer (the paper: "messages are
// simply copied from application space into a transmit buffer"). The
// frame is borrowed only for the call: the sender may reuse it as soon as
// Send returns.
func (n *NIC) Send(p Packet) {
	words := (len(p.Data) + WordSize - 1) / WordSize
	n.m.Clock.Tick(uint64(words) * CostMemWord)
	n.TxCount++
	if n.tx != nil {
		n.tx(p)
	}
}
