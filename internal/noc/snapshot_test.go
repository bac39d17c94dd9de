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
	links, _ := orig.linkTable()
	pkts, pktIdx := orig.collectPackets(links)
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
