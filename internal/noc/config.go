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
	// CollectPerHop enables more expensive per-hop statistics.
	CollectPerHop bool
	// NoPool disables the deterministic packet freelist: every NewPacket
	// heap-allocates and FreePacket is a no-op. Results are required (and
	// regression-tested) to be byte-identical either way; the flag exists
	// to isolate pooling bugs and to measure its effect.
	NoPool bool
	// PoolDebug enables the freelist's use-after-free checker: freed
	// packets are zeroed and poisoned so stale pointers fail fast instead
	// of silently reading recycled contents. Double frees always panic,
	// with or without this flag.
	PoolDebug bool
	// ParThreshold tunes when a network with a tick pool attached runs a
	// cycle as one fused parallel tick rather than sequentially. The gate
	// is one per-cycle work count: router-buffered flits plus links
	// holding pending events. 0 uses the built-in default, the crossover
	// measured on a 2-CPU host (8192: the saturated 16x16 mesh stays
	// sequential, the saturated 24x24 mesh goes fused); a positive value
	// replaces it; a negative value shards every cycle with any work,
	// injection-only cycles included (tests use this to exercise the
	// sharded executor on small meshes). An attached observer keeps every
	// cycle sequential. Both paths produce byte-identical state, so the
	// threshold only affects speed, never results.
	ParThreshold int
	// NoFastForward makes NextWake answer the conservative now+1 whenever
	// the network is busy instead of the exact NextEventCycle horizon, so
	// an event-driven engine ticks the network every cycle it holds any
	// in-flight work. It is the idle-window-skipping escape hatch — both
	// modes are byte-identical (regression-tested); the flag exists to
	// isolate fast-forward bugs and to measure its effect.
	NoFastForward bool
	// RebalanceEpoch is the period, in fused parallel cycles, at which the
	// sharded tick executor repartitions the node range by measured
	// activity (each shard gets an equal share of the active-node weight
	// instead of an equal share of nodes). 0 uses the built-in default
	// (512); a negative value disables rebalancing and keeps the fixed
	// uniform split. Shards stay contiguous and commit in ascending order,
	// so the partition never affects results, only load balance.
	RebalanceEpoch int
}

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
	if c.VCDepth <= 0 {
		c.VCDepth = 4
	}
	if c.LinkLatency <= 0 {
		c.LinkLatency = 1
	}
	if c.DataPacketFlits <= 0 {
		c.DataPacketFlits = 8
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
