package noc

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
)

// TestRestoreBuildsOnlyUsedRouters checks that traffic decides which
// routers build their input buffers and that a restore keeps it that way:
// a restored snapshot builds exactly the routers the snapshotted network
// had built, re-encodes to the same bytes and finishes the same. A forged
// VC record that holds flits of two packets, or skips a sequence number,
// is an error, not a panic.
func TestRestoreBuildsOnlyUsedRouters(t *testing.T) {
	cfg := testConfig(8, 8, true)
	type delivery struct{ at, id uint64 }
	newNet := func(log *[]delivery) *Network {
		n := MustNetwork(cfg)
		for i := 0; i < cfg.Nodes(); i++ {
			n.SetSink(i, func(now uint64, p *Packet) { *log = append(*log, delivery{now, p.ID}) })
		}
		return n
	}
	encode := func(n *Network) []byte {
		w := checkpoint.NewWriter()
		if err := n.SnapshotTo(w, nil); err != nil {
			t.Fatal(err)
		}
		return w.Snapshot().Data
	}
	restore := func(data []byte, log *[]delivery) (*Network, error) {
		n := newNet(log)
		snap := &checkpoint.Snapshot{Version: checkpoint.Version, Data: data}
		return n, n.RestoreFrom(checkpoint.NewReader(snap), nil)
	}
	built := func(n *Network) []int {
		var ids []int
		for i, r := range n.Routers {
			if r.BuffersBuilt() {
				ids = append(ids, i)
			}
		}
		return ids
	}

	// Two data packets meet at router 3's ejection port, so one of them
	// backs up and some VC buffers several flits.
	var origLog []delivery
	orig := newNet(&origLog)
	if b := built(orig); b != nil {
		t.Fatalf("a new network built routers %v", b)
	}
	orig.Send(0, orig.NewPacket(0, 3, ClassData, VNetResponse, nil))
	orig.Send(0, orig.NewPacket(8, 3, ClassData, VNetResponse, nil))
	full := func() (*Router, int) {
		for _, r := range orig.Routers {
			for i := range r.in {
				if r.in[i].n >= 2 {
					return r, i
				}
			}
		}
		return nil, 0
	}
	now := uint64(0)
	rt, vci := full()
	for ; rt == nil; rt, vci = full() {
		now++
		if now > 200 {
			t.Fatal("no VC ever buffered two flits")
		}
		orig.Tick(now)
	}
	for i, r := range orig.Routers {
		if used := r.Stats.FlitsTraversed > 0 || r.BufferedFlits() > 0; used != r.BuffersBuilt() {
			t.Fatalf("router %d: used %v, built %v", i, used, r.BuffersBuilt())
		}
	}
	want := built(orig)
	if len(want) == 0 || len(want) > 8 {
		t.Fatalf("traffic built routers %v", want)
	}

	data := encode(orig)
	var restLog []delivery
	rest, err := restore(data, &restLog)
	if err != nil {
		t.Fatal(err)
	}
	if got := built(rest); !reflect.DeepEqual(got, want) {
		t.Fatalf("restore built routers %v, want %v", got, want)
	}
	if !bytes.Equal(encode(rest), data) {
		t.Fatal("restored network re-encodes to different bytes")
	}

	// Forge the second buffered flit of the full VC. The router's VC
	// records hold 11 bytes of state and count per VC, then 20 per flit:
	// packet index (4), sequence number (8), arrival cycle (8).
	pkts, pktIdx := orig.collectPackets()
	w := checkpoint.NewWriter()
	rt.snapshotVCs(w, pktIdx)
	rec := w.Snapshot().Data
	off := bytes.Index(data, rec)
	if off < 0 || bytes.LastIndex(data, rec) != off {
		t.Fatal("router's VC records not found once in the snapshot")
	}
	for i := 0; i < vci; i++ {
		off += 11 + 20*int(rt.in[i].n)
	}
	second := off + 11 + 20
	if len(pkts) != 2 {
		t.Fatalf("%d live packets, want 2", len(pkts))
	}
	other := 1 - pktIdx[rt.in[vci].pkt]
	forgeries := map[string]func(b []byte){
		"two packets": func(b []byte) { binary.LittleEndian.PutUint32(b[second:], uint32(other)) },
		"sequence gap": func(b []byte) {
			seq := binary.LittleEndian.Uint64(b[second+4:])
			binary.LittleEndian.PutUint64(b[second+4:], seq+1)
		},
	}
	for name, forge := range forgeries {
		bad := bytes.Clone(data)
		forge(bad)
		var log []delivery
		if _, err := restore(bad, &log); err == nil {
			t.Fatalf("%s: restore accepted the forged VC record", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}

	// Both networks finish the same.
	for end := now; orig.Busy() || rest.Busy(); {
		end++
		if end > now+1000 {
			t.Fatal("networks did not drain")
		}
		orig.Tick(end)
		rest.Tick(end)
	}
	if len(origLog) != 2 || !reflect.DeepEqual(restLog, origLog) {
		t.Fatalf("restored deliveries %v, want %v", restLog, origLog)
	}
	if !bytes.Equal(encode(rest), encode(orig)) {
		t.Fatal("drained networks encode differently")
	}
}

// TestRestoreRejectsForgedLinks forges the link events a snapshot carries
// — wheel flits and credits, NI-bound flits and credits — and checks that
// restore reports each forgery, where a run from the restored state would
// index out of range, route off the mesh or read a missing flit.
func TestRestoreRejectsForgedLinks(t *testing.T) {
	cfg := testConfig(4, 4, false)
	// A packet across the mesh until the wheel holds a flit and a credit
	// while the destination NI's ejection queue holds a flit.
	busy := func() *Network {
		n := MustNetwork(cfg)
		n.SetSink(15, func(uint64, *Packet) {})
		n.Send(0, n.NewPacket(0, 15, ClassData, VNetResponse, nil))
		for now := uint64(1); now < 200; now++ {
			n.Tick(now)
			if n.wheel.nflits > 0 && n.wheel.ncredits > 0 && len(n.NIs[15].inFlits) > 0 {
				return n
			}
		}
		t.Fatal("no cycle held a wheel flit, a wheel credit and an ejection flit")
		return nil
	}
	restore := func(n *Network) error {
		w := checkpoint.NewWriter()
		if err := n.SnapshotTo(w, nil); err != nil {
			t.Fatal(err)
		}
		return MustNetwork(cfg).RestoreFrom(checkpoint.NewReader(w.Snapshot()), nil)
	}
	firstFlit := func(n *Network) *flitEvent {
		for i := range n.wheel.flits {
			if len(n.wheel.flits[i]) > 0 {
				return &n.wheel.flits[i][0]
			}
		}
		t.Fatal("the wheel holds no flit")
		return nil
	}
	firstCredit := func(n *Network) *uint32 {
		for i := range n.wheel.credits {
			if len(n.wheel.credits[i]) > 0 {
				return &n.wheel.credits[i][0]
			}
		}
		t.Fatal("the wheel holds no credit")
		return nil
	}

	if err := restore(busy()); err != nil {
		t.Fatalf("restore rejected an honest snapshot: %v", err)
	}
	for name, forge := range map[string]func(n *Network){
		"flit on VC VCs":          func(n *Network) { firstFlit(n).vc = uint8(cfg.VCs) },
		"flit past its packet":    func(n *Network) { ev := firstFlit(n); ev.seq = int32(ev.pkt.Size) },
		"flit with unknown fate":  func(n *Network) { firstFlit(n).fate = numFates },
		"flit off the mesh":       func(n *Network) { firstFlit(n).node = int32(cfg.Nodes()) },
		"flit into a port edge":   func(n *Network) { ev := firstFlit(n); ev.node, ev.port = 0, North },
		"credit for no router VC": func(n *Network) { *firstCredit(n) = uint32(len(n.credits)) << 1 },
		"credit into a port edge": func(n *Network) { *firstCredit(n) = uint32(n.creditIndex(0, West, 0)) << 1 },
		"ejection flit on VC VCs": func(n *Network) { n.NIs[15].inFlits[0].vc = uint8(cfg.VCs) },
		"ejection flit past its packet": func(n *Network) {
			ev := &n.NIs[15].inFlits[0]
			ev.seq = int32(ev.pkt.Size)
		},
	} {
		n := busy()
		forge(n)
		if err := restore(n); err == nil {
			t.Errorf("%s: restore accepted the forged snapshot", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}

	// A wheel event due outside the wheel's span cannot come out of the
	// encoder, so forge the record itself.
	n := MustNetwork(cfg)
	p := n.NewPacket(0, 15, ClassCtrl, VNetRequest, nil)
	flit := func(uint32, uint32) (*Packet, int32, error) { return p, 0, nil }
	for name, due := range map[string]uint64{"before the base": 99, "past the span": 100 + n.wheel.span()} {
		w := checkpoint.NewWriter()
		w.U64(100) // base
		w.Len(1)
		w.U64(due)
		w.U32(0)
		w.U32(0)
		w.U32(1)
		w.U8(uint8(West))
		w.U8(0)
		w.U8(uint8(fateNormal))
		w.Len(0)
		if err := MustNetwork(cfg).restoreWheel(checkpoint.NewReader(w.Snapshot()), flit); err == nil {
			t.Errorf("flit due %s: restore accepted it", name)
		} else {
			t.Logf("flit due %s: %v", name, err)
		}
	}
}

// TestRestoreRejectsForgedPackets forges the fields of a live packet that
// the run routes or indexes by — its endpoints, class, virtual network
// and size — and checks that restore reports each one instead of
// restoring a packet that would route off the mesh or index a statistics
// table out of range.
func TestRestoreRejectsForgedPackets(t *testing.T) {
	cfg := testConfig(4, 4, false)
	for name, forge := range map[string]func(p *Packet){
		"destination off the mesh": func(p *Packet) { p.Dst = cfg.Nodes() },
		"negative destination":     func(p *Packet) { p.Dst = -1 },
		"source off the mesh":      func(p *Packet) { p.Src = cfg.Nodes() + 3 },
		"class 255":                func(p *Packet) { p.Class = 255 },
		"virtual network 3":        func(p *Packet) { p.VNet = NumVNets },
		"size 0":                   func(p *Packet) { p.Size = 0 },
		"size past the bound":      func(p *Packet) { p.Size = MaxPacketFlits + 1 },
	} {
		n := MustNetwork(cfg)
		n.SetSink(15, func(uint64, *Packet) {})
		p := n.NewPacket(0, 15, ClassCtrl, VNetRequest, nil)
		n.Send(0, p)
		for now := uint64(1); now < 4; now++ {
			n.Tick(now)
		}
		if !n.Busy() {
			t.Fatal("the packet left the network before the snapshot")
		}
		forge(p)
		w := checkpoint.NewWriter()
		if err := n.SnapshotTo(w, nil); err != nil {
			t.Fatal(err)
		}
		if err := MustNetwork(cfg).RestoreFrom(checkpoint.NewReader(w.Snapshot()), nil); err == nil {
			t.Errorf("%s: restore accepted the forged packet", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}
