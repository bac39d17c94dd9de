package kernel

import "fmt"

// Target selects the receiving component at a node.
type Target uint8

// Message targets.
const (
	ToController Target = iota // the home node's lock controller
	ToClient                   // a thread's lock client
)

// MsgType enumerates lock-protocol messages.
type MsgType uint8

// Lock protocol messages. All are single-flit packets.
const (
	// MsgTryLock is the atomic try-lock of the spinning phase (Algorithm 1
	// line 7), carrying the RTR/PROG priority under OCOR.
	MsgTryLock MsgType = iota
	// MsgGrant tells the requester it now holds the lock.
	MsgGrant
	// MsgFail tells the requester the lock was held.
	MsgFail
	// MsgFutexWait registers the thread in the home node's wait queue
	// (sys_futex FUTEX_WAIT, Algorithm 1 line 12).
	MsgFutexWait
	// MsgRelease is the atomic_release of Algorithm 2.
	MsgRelease
	// MsgFutexWake asks the home node to wake one sleeper (sys_futex
	// FUTEX_WAKE, Algorithm 2); lowest priority under OCOR.
	MsgFutexWake
	// MsgWakeup is delivered to a sleeping thread's node.
	MsgWakeup
	// MsgNotify tells a spinning thread that the lock variable changed
	// (the cache-coherence invalidation of Fig. 4a); the thread re-sends a
	// try-lock, racing the other spinners.
	MsgNotify
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgTryLock:
		return "TryLock"
	case MsgGrant:
		return "Grant"
	case MsgFail:
		return "Fail"
	case MsgFutexWait:
		return "FutexWait"
	case MsgRelease:
		return "Release"
	case MsgFutexWake:
		return "FutexWake"
	case MsgWakeup:
		return "Wakeup"
	case MsgNotify:
		return "Notify"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Msg is a lock-protocol message (a noc.Packet payload).
type Msg struct {
	Type MsgType
	To   Target
	Lock int
	// From is the sending node.
	From int
	// Thread identifies the requesting/woken thread.
	Thread int
	// RTR and Prog mirror the values the enhanced spinlock wrote into the
	// core's local registers when the packet was formed.
	RTR  int
	Prog int
	// AcquiredAt is stamped into grants: the home-node cycle at which the
	// lock was assigned to the requester (used for overhead accounting).
	AcquiredAt uint64
	// PktID is the id of the packet that carried this message, stamped by
	// the sending system so observability can link a message to its network
	// journey. Zero for loopback-free configurations predating the stamp.
	PktID uint64
	// ReqPktID, set on Grant/Fail responses, is the PktID of the try-lock
	// request being answered — the link from an acquisition back to the
	// winning request packet's per-hop history.
	ReqPktID uint64

	// ref is the message's slot in the sending system's slab (0 = a test's
	// heap-allocated message). The carrying packet's PayloadRef and the
	// post-delivery Free both come from it.
	ref uint32
}
