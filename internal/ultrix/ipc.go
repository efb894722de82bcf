package ultrix

import (
	"encoding/binary"

	"exokernel/internal/hw"
	"exokernel/internal/pkt"
)

// Kernel IPC and networking: the Table 8 and Table 11 baselines. A pipe is
// a kernel buffer behind read/write system calls — two copies and a
// sleep/wakeup per transfer, with a full context switch to hand the CPU to
// the peer. UDP goes through the socket layer: copyin, protocol output,
// and on receive: soft-interrupt input processing, socket-buffer append, a
// wakeup, and a scheduler pass before the application sees data.

// Pipe is a kernel pipe.
type Pipe struct {
	k   *Kernel
	buf []uint32
	// Reads/Writes count operations (diagnostics).
	Reads, Writes uint64
}

// NewPipe creates a kernel pipe object.
func (k *Kernel) NewPipe() *Pipe { return &Pipe{k: k} }

// WriteWord is the write(2) path for one word: syscall crossing, copyin,
// pipe bookkeeping, wakeup of any sleeping reader.
func (pp *Pipe) WriteWord(p *Proc, v uint32) {
	pp.k.syscallOverhead()
	pp.k.charge(costPipeKernel + 1 + costWakeup)
	pp.buf = append(pp.buf, v)
	pp.Writes++
}

// ReadWord is the read(2) path: syscall crossing, block if empty (a full
// context switch to the writer), copyout.
func (pp *Pipe) ReadWord(p *Proc) (uint32, bool) {
	pp.k.syscallOverhead()
	pp.k.charge(costPipeKernel)
	if len(pp.buf) == 0 {
		// Sleep: the kernel switches to another process; by the time the
		// reader runs again the writer must have filled the buffer.
		if next := pp.k.nextRunnable(); next != nil && next != pp.k.Cur() {
			pp.k.contextSwitch(next)
		}
		if len(pp.buf) == 0 {
			return 0, false
		}
	}
	v := pp.buf[0]
	pp.buf = pp.buf[1:]
	pp.k.charge(1) // copyout
	pp.Reads++
	return v, true
}

// SleepWakeupPair models one round of shared-memory synchronization done
// the only way a monolithic kernel offers it: the consumer blocks in a
// crossing (sleep), the kernel switches away, and the producer's wakeup is
// another full crossing. The shared data reference itself is one cycle —
// the synchronization is where the time goes (Table 8's shm row).
func (k *Kernel) SleepWakeupPair(p *Proc) {
	k.syscallOverhead() // consumer: block
	if next := k.nextRunnable(); next != nil && next != k.Cur() {
		k.contextSwitch(next)
	}
	k.syscallOverhead() // producer: wakeup crossing
	k.charge(costWakeup + 1)
}

// Socket is a kernel UDP socket.
type Socket struct {
	k     *Kernel
	owner *Proc
	Port  uint16
	MAC   pkt.Addr
	IP    uint32
	rx    [][]byte
	// Delivered counts datagrams appended to the socket buffer.
	Delivered uint64
}

// NewSocket binds a kernel UDP socket for a process.
func (k *Kernel) NewSocket(p *Proc, mac pkt.Addr, ip uint32, port uint16) *Socket {
	k.syscallOverhead() // socket(2) + bind(2), compressed to one crossing
	s := &Socket{k: k, owner: p, Port: port, MAC: mac, IP: ip}
	k.sockets = append(k.sockets, s)
	return s
}

// Sendto is the sendto(2) path: crossing, copyin of the payload, protocol
// output processing, interface queueing.
func (s *Socket) Sendto(dstMAC pkt.Addr, dstIP uint32, dstPort uint16, payload []byte) {
	s.k.syscallOverhead()
	s.k.charge(uint64((len(payload)+3)/4) + costUDPOut)
	f := pkt.Flow{Proto: pkt.ProtoUDP, SrcIP: s.IP, DstIP: dstIP, SrcPort: s.Port, DstPort: dstPort}
	frame := pkt.Build(dstMAC, s.MAC, f, payload)
	s.k.M.NIC.Send(hw.Packet{Data: frame})
}

// TryRecv is the recvfrom(2) path when data is ready: crossing plus
// copyout. It returns false when the socket buffer is empty (the caller
// blocks by yielding the CPU through the scheduler).
func (s *Socket) TryRecv() ([]byte, pkt.Flow, bool) {
	s.k.syscallOverhead()
	if len(s.rx) == 0 {
		return nil, pkt.Flow{}, false
	}
	frame := s.rx[0]
	s.rx = s.rx[1:]
	flow, _ := pkt.ParseFlow(frame)
	payload := pkt.Payload(frame)
	s.k.charge(uint64((len(payload) + 3) / 4)) // copyout
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, flow, true
}

// netInput is the kernel's receive processing: for each frame, protocol
// input, PCB lookup, a copy into the matching socket buffer, and a wakeup.
// There are no application filters — demultiplexing is hardwired protocol
// knowledge in the kernel. Each frame goes back to the NIC once it has
// been copied into its socket buffer.
func (k *Kernel) netInput() {
	for {
		p, ok := k.M.NIC.Recv()
		if !ok {
			return
		}
		k.Stats.PktRx++
		k.udpInput(p.Data)
		k.M.NIC.Release(p)
	}
}

// udpInput appends one received frame to the socket bound to its
// destination port, if it is UDP and such a socket exists.
func (k *Kernel) udpInput(frame []byte) {
	flow, ok := pkt.ParseFlow(frame)
	if !ok || flow.Proto != pkt.ProtoUDP {
		return
	}
	k.charge(costUDPIn)
	for _, s := range k.sockets {
		if s.Port == flow.DstPort {
			buf := make([]byte, len(frame))
			copy(buf, frame)
			k.charge(uint64((len(frame) + 3) / 4)) // sbappend copy
			s.rx = append(s.rx, buf)
			s.Delivered++
			k.charge(costWakeup)
			return
		}
	}
}

// wordPayload helpers shared by the benchmarks.

// PutWord encodes a word payload.
func PutWord(v uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, v)
	return b
}

// GetWord decodes a word payload.
func GetWord(b []byte) uint32 {
	if len(b) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
