package noc

import (
	"fmt"

	"repro/internal/core"
)

// Class is the traffic class of a packet, used for statistics and for
// deriving the default priority word of lock/wakeup traffic.
type Class uint8

// Traffic classes.
const (
	ClassData   Class = iota // multi-flit cache-block data
	ClassCtrl                // single-flit coherence control
	ClassLock                // single-flit atomic locking request / grant
	ClassWakeup              // single-flit FUTEX_WAKE wakeup
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassCtrl:
		return "ctrl"
	case ClassLock:
		return "lock"
	case ClassWakeup:
		return "wakeup"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// NumClasses is the number of traffic classes.
const NumClasses = 4

// PayloadKind discriminates the typed payload reference carried by a
// packet. The network never interprets payloads; it fixes the numbering
// here so the endpoint protocols and the platform's delivery demultiplexer
// agree without depending on each other.
type PayloadKind uint8

// Registered payload kinds.
const (
	// PayloadNone: no typed reference; any payload is in the untyped
	// Payload field (tests, synthetic traffic).
	PayloadNone PayloadKind = iota
	// PayloadKernel: PayloadRef indexes the lock kernel's message slab.
	PayloadKernel
	// PayloadMem: PayloadRef indexes the memory system's message slab.
	PayloadMem
)

// Packet is the unit of end-to-end transfer. The additional header fields
// of the paper (priority check bit, one-hot priority bits, progress bits)
// are carried in Prio and travel with the head flit.
type Packet struct {
	// ID is unique per network instance.
	ID uint64
	// Src and Dst are node ids.
	Src, Dst int
	// Size in flits (>= 1).
	Size int
	// VNet is the virtual network (protocol deadlock avoidance class).
	VNet int
	// Class is the traffic class.
	Class Class
	// PayloadKind and PayloadRef identify the protocol message carried by
	// the packet as a typed index into the sending subsystem's message
	// slab. The hot paths use them instead of Payload: a slab ref neither
	// boxes the message nor writes a pointer the GC must trace.
	PayloadKind PayloadKind
	PayloadRef  uint32
	// Prio is the OCOR priority word (zero value = normal packet).
	Prio core.Priority
	// Payload is the untyped protocol message carried by the packet; the
	// network never inspects it. Retained for tests and synthetic traffic;
	// steady-state traffic uses PayloadKind/PayloadRef.
	Payload any

	// Timestamps maintained by the network (cycles).
	EnqueuedAt  uint64 // handed to the NI
	InjectedAt  uint64 // head flit entered the network
	DeliveredAt uint64 // tail flit ejected at destination
	// Hops is the number of routers traversed.
	Hops int

	// poolRef is the packet's own ref in the network's packet slab.
	poolRef uint32
}

// String renders a short packet description for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %s %d->%d size=%d vnet=%d prio=%s",
		p.ID, p.Class, p.Src, p.Dst, p.Size, p.VNet, p.Prio)
}

// NetLatency is the in-network latency (injection to delivery).
func (p *Packet) NetLatency() uint64 { return p.DeliveredAt - p.InjectedAt }

// TotalLatency includes NI source queueing.
func (p *Packet) TotalLatency() uint64 { return p.DeliveredAt - p.EnqueuedAt }
