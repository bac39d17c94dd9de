// Package noc implements a cycle-accurate flit-level network-on-chip:
// a 2D mesh of 2-stage pipelined virtual-channel routers with XY
// dimension-order routing, credit-based flow control, and either
// round-robin (baseline) or OCOR priority-based (Table 1) virtual-channel
// and switch allocation.
//
// The router micro-architecture follows the paper's platform (Table 2):
// 6 VCs per port, 4 flits per VC, 128-bit datapath (one cache block =
// one 8-flit packet, one control message = one single-flit packet), and the
// 2-stage speculative pipeline of Peh & Dally with RC/VA/SA in stage one
// and switch traversal in stage two.
package noc

import "fmt"

// Dir enumerates router ports. The underlying type is int8 so a direction
// stored per VC (vcBuf.outDir) costs one byte instead of a machine word;
// -1 doubles as the "request already served" sentinel in the allocators'
// scratch entries.
type Dir int8

// Port directions. Local is the NI port.
const (
	North Dir = iota
	East
	South
	West
	Local
	NumDirs
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	case Local:
		return "L"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// NumVNets is the number of virtual networks (message classes mapped onto
// disjoint VC sets) used to avoid protocol deadlock: requests, forwarded
// requests/invalidations, and responses.
const NumVNets = 3

// Virtual network indices.
const (
	VNetRequest  = 0 // GetS/GetM/Put/lock/futex requests
	VNetForward  = 1 // directory-to-owner forwards, invalidations, wakeups
	VNetResponse = 2 // data, acks, grants
)

// Routing selects the dimension-order routing algorithm.
type Routing uint8

// Routing algorithms. Both are minimal, deterministic and deadlock-free
// on a mesh; XY is the paper's choice.
const (
	RoutingXY Routing = iota // X first, then Y (default)
	RoutingYX                // Y first, then X
)

// String implements fmt.Stringer.
func (r Routing) String() string {
	if r == RoutingYX {
		return "YX"
	}
	return "XY"
}

// Config describes a mesh network instance.
type Config struct {
	// Width and Height of the mesh; nodes are numbered row-major, node
	// id = y*Width + x.
	Width, Height int
	// VCs is the number of virtual channels per input port (paper: 6).
	// They are partitioned evenly across the NumVNets virtual networks.
	VCs int
	// VCDepth is the per-VC buffer depth in flits (paper: 4).
	VCDepth int
	// LinkLatency in cycles (>= 1).
	LinkLatency int
	// Routing is the dimension-order routing algorithm (default XY, the
	// paper's configuration).
	Routing Routing
	// DataPacketFlits is the size of a cache-block data packet (paper: 8).
	DataPacketFlits int
	// Priority selects OCOR priority-based VC and switch allocation;
	// false selects the baseline round-robin allocators.
	Priority bool
}

// Bounds on the buffer and packet sizes, far above the paper's 4-flit VCs
// and 8-flit data packets. They keep the int32 credit counters and a VC
// record's narrow ring indices and sequence number from overflowing.
// MaxLinkLatency bounds the link flight, far above the paper's one cycle:
// the network's event wheel spans the longest flight, so the bound keeps
// a config from sizing it out of memory.
const (
	MaxVCDepth     = 1024
	MaxPacketFlits = 1024
	MaxLinkLatency = 1024
)

// maxRouterVCs bounds the mesh's router input VCs: a credit event carries
// a router VC's arena index in 31 bits.
const maxRouterVCs = 1<<31 - 1

// DefaultConfig returns the paper's 8x8 configuration.
func DefaultConfig() Config {
	return Config{
		Width:           8,
		Height:          8,
		VCs:             6,
		VCDepth:         4,
		LinkLatency:     1,
		DataPacketFlits: 8,
	}
}

// ConfigError is the typed validation error returned by Config.Validate:
// Field names the offending configuration field and Reason says what is
// wrong with it, so entry points can report precisely which flag to fix.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("noc: invalid config: %s: %s", e.Field, e.Reason)
}

// Validate normalises the configuration, filling unset fields with
// defaults, and returns a *ConfigError for irrecoverable settings.
func (c *Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return &ConfigError{Field: "Width/Height",
			Reason: fmt.Sprintf("mesh %dx%d has no nodes", c.Width, c.Height)}
	}
	if c.VCs < 0 {
		return &ConfigError{Field: "VCs", Reason: fmt.Sprintf("negative count %d", c.VCs)}
	}
	if c.VCs == 0 {
		c.VCs = 6
	}
	if c.VCs < NumVNets {
		return &ConfigError{Field: "VCs",
			Reason: fmt.Sprintf("need at least %d (one per virtual network), got %d", NumVNets, c.VCs)}
	}
	if c.VCs > 64 {
		// The router tracks per-port VC state in 64-bit masks.
		return &ConfigError{Field: "VCs", Reason: fmt.Sprintf("at most 64 per port, got %d", c.VCs)}
	}
	if int64(c.Width)*int64(c.Height)*int64(NumDirs)*int64(c.VCs) > maxRouterVCs {
		return &ConfigError{Field: "Width/Height",
			Reason: fmt.Sprintf("mesh %dx%d with %d VCs per port has more than %d router VCs", c.Width, c.Height, c.VCs, maxRouterVCs)}
	}
	if c.VCDepth <= 0 {
		c.VCDepth = 4
	}
	if c.VCDepth > MaxVCDepth {
		return &ConfigError{Field: "VCDepth", Reason: fmt.Sprintf("at most %d flits, got %d", MaxVCDepth, c.VCDepth)}
	}
	if c.LinkLatency <= 0 {
		c.LinkLatency = 1
	}
	if c.LinkLatency > MaxLinkLatency {
		return &ConfigError{Field: "LinkLatency", Reason: fmt.Sprintf("at most %d cycles, got %d", MaxLinkLatency, c.LinkLatency)}
	}
	if c.DataPacketFlits <= 0 {
		c.DataPacketFlits = 8
	}
	if c.DataPacketFlits > MaxPacketFlits {
		return &ConfigError{Field: "DataPacketFlits",
			Reason: fmt.Sprintf("at most %d flits, got %d", MaxPacketFlits, c.DataPacketFlits)}
	}
	if c.Routing != RoutingXY && c.Routing != RoutingYX {
		return &ConfigError{Field: "Routing", Reason: fmt.Sprintf("unknown algorithm %d", c.Routing)}
	}
	return nil
}

// Nodes returns the node count.
func (c *Config) Nodes() int { return c.Width * c.Height }

// XY converts a node id to mesh coordinates.
func (c *Config) XY(node int) (x, y int) { return node % c.Width, node / c.Width }

// Node converts mesh coordinates to a node id.
func (c *Config) Node(x, y int) int { return y*c.Width + x }

// VNetOf returns the virtual network a VC index belongs to. VCs are
// partitioned contiguously: with 6 VCs and 3 vnets, vnet0={0,1},
// vnet1={2,3}, vnet2={4,5}. When VCs is not divisible the first vnets get
// the extra channels.
func (c *Config) VNetOf(vc int) int {
	per := c.VCs / NumVNets
	extra := c.VCs % NumVNets
	// First `extra` vnets have per+1 VCs.
	boundary := extra * (per + 1)
	if vc < boundary {
		return vc / (per + 1)
	}
	return extra + (vc-boundary)/per
}

// VCRange returns the half-open VC index range [lo, hi) assigned to vnet.
func (c *Config) VCRange(vnet int) (lo, hi int) {
	per := c.VCs / NumVNets
	extra := c.VCs % NumVNets
	if vnet < extra {
		lo = vnet * (per + 1)
		return lo, lo + per + 1
	}
	lo = extra*(per+1) + (vnet-extra)*per
	return lo, lo + per
}

// linked reports whether router node has a port in direction d: Local
// always, a mesh direction unless node sits on that edge.
func (c *Config) linked(node int, d Dir) bool {
	x, y := c.XY(node)
	switch d {
	case North:
		return y > 0
	case East:
		return x+1 < c.Width
	case South:
		return y+1 < c.Height
	case West:
		return x > 0
	}
	return d == Local
}

// ManhattanHops returns the XY-routing hop count between two nodes
// (number of routers traversed, including source and destination).
func (c *Config) ManhattanHops(src, dst int) int {
	sx, sy := c.XY(src)
	dx, dy := c.XY(dst)
	return abs(sx-dx) + abs(sy-dy) + 1
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
