package sim

import (
	"testing"

	"repro/internal/par"
)

// poolUser is a quiescent component that records every SetTickPool call.
type poolUser struct {
	pools []*par.Pool
}

func (u *poolUser) Tick(now uint64)            {}
func (u *poolUser) NextWake(now uint64) uint64 { return Never }
func (u *poolUser) SetTickPool(p *par.Pool)    { u.pools = append(u.pools, p) }

func TestEngineSetTickPoolForwarding(t *testing.T) {
	e := NewEngine()
	before := &poolUser{}
	e.Register(before)
	if len(before.pools) != 0 {
		t.Fatal("Register with no pool attached must not call SetTickPool")
	}

	pool := par.NewPool(2)
	defer pool.Close()
	e.SetTickPool(pool)
	if len(before.pools) != 1 || before.pools[0] != pool {
		t.Fatalf("attach not forwarded to registered component: %v", before.pools)
	}

	// Components registered while a pool is attached receive it at
	// Register time.
	after := &poolUser{}
	e.Register(after)
	if len(after.pools) != 1 || after.pools[0] != pool {
		t.Fatalf("attach not forwarded at Register: %v", after.pools)
	}

	// Non-TickPoolUser components are simply skipped.
	e.Register(&FuncComponent{})

	e.SetTickPool(nil)
	if len(before.pools) != 2 || before.pools[1] != nil {
		t.Fatalf("detach not forwarded: %v", before.pools)
	}
	if len(after.pools) != 2 || after.pools[1] != nil {
		t.Fatalf("detach not forwarded to later component: %v", after.pools)
	}
}

// TestPolledHidesTickPool pins that a component without TickPoolUser
// never receives the pool, so a polling wrapper (the event engine's test
// oracle) reproduces strictly sequential reference behaviour.
func TestPolledHidesTickPool(t *testing.T) {
	e := NewEngine()
	u := &poolUser{}
	e.Register(polled{u})
	pool := par.NewPool(2)
	defer pool.Close()
	e.SetTickPool(pool)
	if len(u.pools) != 0 {
		t.Fatalf("polled component received a tick pool: %v", u.pools)
	}
}
