package mem

import "fmt"

// Target selects which component of a node a message is addressed to.
type Target uint8

// Message targets.
const (
	ToL1 Target = iota
	ToDir
	ToMC
)

// MsgType enumerates the MOESI protocol messages.
type MsgType uint8

// Protocol message types. The comment gives (virtual network, packet size).
const (
	// Requests, L1 -> directory (vnet 0, 1 flit except PutM/PutO data).
	MsgGetS MsgType = iota // read miss
	MsgGetM                // write miss / upgrade
	MsgPutS                // clean shared eviction (1 flit)
	MsgPutE                // clean exclusive eviction (1 flit)
	MsgPutM                // dirty eviction, carries data (8 flits)
	MsgPutO                // owned dirty eviction, carries data (8 flits)

	// Forwards, directory -> current owner / sharers (vnet 1, 1 flit).
	MsgFwdGetS // supply data to Req, downgrade
	MsgFwdGetM // supply data to Req, invalidate
	MsgInv     // invalidate, ack to Req

	// Responses (vnet 2).
	MsgDataS     // shared data (8 flits), from dir L2 or owner
	MsgDataE     // exclusive clean data from dir (8 flits)
	MsgDataM     // data with ownership; Acks = InvAcks to collect (8 flits)
	MsgInvAck    // invalidation ack to requester (1 flit)
	MsgPutAck    // directory acknowledged an eviction (1 flit)
	MsgFwdNotify // owner -> dir: forwarded data, Dirty tells final state (1 flit)
	MsgUnblock   // requester -> dir: transaction complete (1 flit)

	// DRAM traffic between directory and memory controller.
	MsgDramRead  // dir -> MC (vnet 0, 1 flit)
	MsgDramWrite // dir -> MC, carries data (vnet 0, 8 flits)
	MsgDramResp  // MC -> dir, carries data (vnet 2, 8 flits)
)

var msgNames = map[MsgType]string{
	MsgGetS: "GetS", MsgGetM: "GetM", MsgPutS: "PutS", MsgPutE: "PutE",
	MsgPutM: "PutM", MsgPutO: "PutO", MsgFwdGetS: "FwdGetS",
	MsgFwdGetM: "FwdGetM", MsgInv: "Inv", MsgDataS: "DataS",
	MsgDataE: "DataE", MsgDataM: "DataM", MsgInvAck: "InvAck",
	MsgPutAck: "PutAck", MsgFwdNotify: "FwdNotify", MsgUnblock: "Unblock",
	MsgDramRead: "DramRead", MsgDramWrite: "DramWrite", MsgDramResp: "DramResp",
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Msg is a coherence protocol message (a noc.Packet payload).
type Msg struct {
	Type MsgType
	To   Target
	Addr uint64 // block address
	// From is the sending node (the packet src duplicates this; kept in the
	// payload so protocol code never depends on network internals).
	From int
	// Req is the original requester for forwarded messages, and the node
	// to send InvAcks to for MsgInv.
	Req int
	// Acks is the number of InvAcks the requester must collect (MsgDataM)
	// or that the owner must embed when relaying data (MsgFwdGetM).
	Acks int
	// Version is the data token used in lieu of real bytes: every write
	// increments it, so tests can verify that reads observe the most
	// recent write (coherence value invariant).
	Version uint64
	// Dirty qualifies FwdNotify (owner was dirty -> dir goes to O not S)
	// and Put acknowledgements (stale Put detection).
	Dirty bool
	// Stale marks a PutAck for a Put that raced with an ownership change.
	Stale bool

	// ref is the message's slot in the memory system's slab (0 = a test's
	// heap-allocated message). The carrying packet's PayloadRef and the
	// post-consumption free both come from it.
	ref uint32
}

// isData reports whether the message carries a cache block (8-flit packet).
func (m *Msg) isData() bool {
	switch m.Type {
	case MsgDataS, MsgDataE, MsgDataM, MsgPutM, MsgPutO, MsgDramWrite, MsgDramResp:
		return true
	}
	return false
}

// vnet returns the virtual network the message travels on.
func (m *Msg) vnet() int {
	switch m.Type {
	case MsgGetS, MsgGetM, MsgPutS, MsgPutE, MsgPutM, MsgPutO, MsgDramRead, MsgDramWrite:
		return 0
	case MsgFwdGetS, MsgFwdGetM, MsgInv:
		return 1
	default:
		return 2
	}
}
