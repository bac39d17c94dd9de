// Package mem implements the CMP memory hierarchy of the paper's platform
// (Table 2): per-core private L1 caches and a chip-wide shared, distributed
// L2 with an embedded directory, kept coherent with a MOESI protocol, plus
// memory controllers providing DRAM access. All coherence traffic travels
// over the NoC as data (8-flit) or control (1-flit) packets, producing the
// background network load that locking requests compete with.
//
// The directory is blocking (gem5-Ruby style): one transaction per block at
// a time, completed by an explicit Unblock message from the requester;
// racing requests queue at the home node.
package mem

import "fmt"

// Config describes the memory hierarchy.
type Config struct {
	// BlockBytes is the coherence granularity (paper: 128 B).
	BlockBytes int
	// L1Sets and L1Ways give the private L1 organisation
	// (paper: 32 KB, 4-way, 128 B blocks -> 64 sets).
	L1Sets, L1Ways int
	// L1Latency is the L1 hit latency in cycles (paper: 2).
	L1Latency int
	// L2Latency is the shared L2 bank access latency in cycles (paper: 6).
	L2Latency int
	// L2Sets and L2Ways give each shared L2 bank's organisation
	// (paper: 1 MB per bank, 16-way, 128 B blocks -> 512 sets).
	L2Sets, L2Ways int
	// MSHRs bounds outstanding misses per L1 (paper: 32).
	MSHRs int
	// DRAMLatency is the DRAM access latency on a row-buffer miss
	// (activate + read) in cycles.
	DRAMLatency int
	// DRAMRowHitLatency is the access latency when the block's row is
	// already open in the bank's row buffer.
	DRAMRowHitLatency int
	// DRAMBanks is the number of banks per memory controller; accesses to
	// different banks overlap.
	DRAMBanks int
	// DRAMRowBlocks is the row-buffer size in cache blocks; sequential
	// streams hit the open row.
	DRAMRowBlocks int
	// DRAMInterval is the minimum cycles between successive DRAM commands
	// at one bank (bandwidth model).
	DRAMInterval int
	// MCNodes lists the nodes hosting memory controllers. Empty selects
	// the paper's placement: the middle four nodes of the top and bottom
	// rows of the mesh.
	MCNodes []int
}

// DefaultConfig returns the paper's Table 2 parameters.
func DefaultConfig() Config {
	return Config{
		BlockBytes:        128,
		L1Sets:            64,
		L1Ways:            4,
		L1Latency:         2,
		L2Latency:         6,
		L2Sets:            512,
		L2Ways:            16,
		MSHRs:             32,
		DRAMLatency:       100,
		DRAMRowHitLatency: 60,
		DRAMBanks:         8,
		DRAMRowBlocks:     64, // 8 KB rows of 128 B blocks
		DRAMInterval:      4,
	}
}

// Validate fills defaults and rejects nonsense.
func (c *Config) Validate() error {
	d := DefaultConfig()
	if c.BlockBytes <= 0 {
		c.BlockBytes = d.BlockBytes
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("mem: BlockBytes %d not a power of two", c.BlockBytes)
	}
	if c.L1Sets <= 0 {
		c.L1Sets = d.L1Sets
	}
	if c.L1Ways <= 0 {
		c.L1Ways = d.L1Ways
	}
	if c.L1Latency <= 0 {
		c.L1Latency = d.L1Latency
	}
	if c.L2Latency <= 0 {
		c.L2Latency = d.L2Latency
	}
	if c.L2Sets <= 0 {
		c.L2Sets = d.L2Sets
	}
	if c.L2Ways <= 0 {
		c.L2Ways = d.L2Ways
	}
	if c.MSHRs <= 0 {
		c.MSHRs = d.MSHRs
	}
	if c.DRAMLatency <= 0 {
		c.DRAMLatency = d.DRAMLatency
	}
	if c.DRAMRowHitLatency <= 0 {
		c.DRAMRowHitLatency = d.DRAMRowHitLatency
	}
	if c.DRAMRowHitLatency > c.DRAMLatency {
		return fmt.Errorf("mem: row-hit latency %d exceeds row-miss latency %d", c.DRAMRowHitLatency, c.DRAMLatency)
	}
	if c.DRAMBanks <= 0 {
		c.DRAMBanks = d.DRAMBanks
	}
	if c.DRAMRowBlocks <= 0 {
		c.DRAMRowBlocks = d.DRAMRowBlocks
	}
	if c.DRAMInterval <= 0 {
		c.DRAMInterval = d.DRAMInterval
	}
	return nil
}

// BlockAddr masks addr down to its block address.
func (c *Config) BlockAddr(addr uint64) uint64 {
	return addr &^ uint64(c.BlockBytes-1)
}

// BlockIndex returns the block number of addr.
func (c *Config) BlockIndex(addr uint64) uint64 {
	return addr / uint64(c.BlockBytes)
}

// HomeNode maps a block to the node whose L2 bank / directory owns it
// (block-interleaved across all nodes).
func (c *Config) HomeNode(addr uint64, nodes int) int {
	return int(c.BlockIndex(addr) % uint64(nodes))
}

// MCFor maps a block to its memory controller among mcs.
func (c *Config) MCFor(addr uint64, mcs []int) int {
	return mcs[int(c.BlockIndex(addr)>>8)%len(mcs)]
}

// DefaultMCNodes computes the paper's memory-controller placement for a
// w x h mesh: the middle four columns of the top and bottom rows.
func DefaultMCNodes(w, h int) []int {
	if w < 1 || h < 1 {
		return nil
	}
	cols := []int{}
	switch {
	case w >= 6:
		start := (w - 4) / 2
		for i := 0; i < 4; i++ {
			cols = append(cols, start+i)
		}
	default:
		for i := 0; i < w; i++ {
			cols = append(cols, i)
		}
	}
	nodes := []int{}
	for _, x := range cols {
		nodes = append(nodes, x) // top row (y = 0)
	}
	if h > 1 {
		for _, x := range cols {
			nodes = append(nodes, (h-1)*w+x) // bottom row
		}
	}
	return nodes
}
