package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultPolicy(t *testing.T) {
	p := DefaultPolicy()
	if !p.Enabled || p.LockLevels != 8 || p.MaxSpin != 128 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	b := BaselinePolicy()
	if b.Enabled {
		t.Fatal("baseline policy must be disabled")
	}
}

func TestPolicyValidate(t *testing.T) {
	p := Policy{LockLevels: -3, MaxSpin: 0, ProgSegments: 0, ProgSpan: -1}.Validate()
	if p.LockLevels < 1 || p.MaxSpin < 1 || p.ProgSegments < 1 || p.ProgSpan < p.ProgSegments {
		t.Fatalf("validate failed to normalise: %+v", p)
	}
	big := Policy{LockLevels: 1000}.Validate()
	if big.LockLevels != MaxLockLevels {
		t.Fatalf("LockLevels not clamped: %d", big.LockLevels)
	}
}

func TestLockClassMapping(t *testing.T) {
	p := DefaultPolicy()
	// The paper: 8 levels over 128 retries, 16 retries per segment.
	cases := []struct {
		rtr  int
		want uint8
	}{
		{1, 8},    // about to sleep: highest lock class
		{16, 8},   // still in the first (most urgent) segment
		{17, 7},   // next segment
		{128, 1},  // full budget: lowest lock class
		{0, 8},    // out of retries
		{-5, 8},   // defensive
		{9999, 1}, // above budget clamps
	}
	for _, c := range cases {
		if got := p.LockClass(c.rtr); got != c.want {
			t.Fatalf("LockClass(%d) = %d, want %d", c.rtr, got, c.want)
		}
	}
}

func TestLockClassMonotonic(t *testing.T) {
	// Smaller RTR never gets a lower class (property over all budgets).
	p := DefaultPolicy()
	for rtr := 2; rtr <= p.MaxSpin; rtr++ {
		if p.LockClass(rtr) > p.LockClass(rtr-1) {
			t.Fatalf("class increased with RTR at %d", rtr)
		}
	}
}

func TestLockClassLevelSweep(t *testing.T) {
	// Every level count in Fig. 16's sweep must produce classes within
	// [1, L] and use the extremes.
	for _, lv := range []int{1, 2, 4, 8, 16, 32} {
		p := Policy{LockLevels: lv, MaxSpin: 128, ProgSegments: 8, ProgSpan: 128}.Validate()
		lo, hi := p.LockClass(p.MaxSpin), p.LockClass(1)
		if lo != 1 {
			t.Fatalf("levels=%d: full budget class = %d, want 1", lv, lo)
		}
		if hi != uint8(lv) {
			t.Fatalf("levels=%d: last-retry class = %d, want %d", lv, hi, lv)
		}
		for rtr := 1; rtr <= p.MaxSpin; rtr++ {
			c := p.LockClass(rtr)
			if c < 1 || c > uint8(lv) {
				t.Fatalf("levels=%d rtr=%d: class %d out of range", lv, rtr, c)
			}
		}
	}
}

func TestProgSegment(t *testing.T) {
	p := DefaultPolicy()
	if p.ProgSegment(0) != 0 {
		t.Fatal("prog 0 must be the slowest segment")
	}
	if p.ProgSegment(-1) != 0 {
		t.Fatal("negative prog must clamp to 0")
	}
	if got := p.ProgSegment(10 * p.ProgSpan); got != uint16(p.ProgSegments-1) {
		t.Fatalf("overflow prog segment = %d", got)
	}
	for pr := 1; pr < p.ProgSpan; pr++ {
		if p.ProgSegment(pr) < p.ProgSegment(pr-1) {
			t.Fatalf("segment decreased at prog %d", pr)
		}
	}
}

func TestOneHot(t *testing.T) {
	p := DefaultPolicy()
	if Normal.OneHot() != 0 {
		t.Fatal("normal packets carry no priority bits")
	}
	w := p.WakeupPriority(0)
	if w.OneHot() != 1 {
		t.Fatalf("wakeup one-hot = %b, want bit 0", w.OneHot())
	}
	l := p.LockPriority(1, 0)
	if l.OneHot() != 1<<8 {
		t.Fatalf("highest lock one-hot = %b, want bit 8", l.OneHot())
	}
	// Exactly one bit set for any check-bit priority.
	for rtr := 1; rtr <= 128; rtr++ {
		oh := p.LockPriority(rtr, 0).OneHot()
		if oh == 0 || oh&(oh-1) != 0 {
			t.Fatalf("rtr=%d: one-hot %b has != 1 bits", rtr, oh)
		}
	}
}

func TestTable1Rules(t *testing.T) {
	p := DefaultPolicy()
	// Progress values 0 and 50 fall in different one-hot segments (16
	// completions per segment); values within one segment tie on rule 1.
	lockUrgent := p.LockPriority(1, 50)    // least RTR, fast progress
	lockRelaxed := p.LockPriority(128, 50) // most RTR, fast progress
	wake := p.WakeupPriority(50)
	slowLock := p.LockPriority(128, 0) // slow progress
	normal := Normal

	// Rule 2: Locking Request Packet First (lock and wakeup beat normal).
	if Compare(lockRelaxed, normal) <= 0 || Compare(wake, normal) <= 0 {
		t.Fatal("rule 2 violated: requests must beat normal packets")
	}
	// Rule 3: Least RTR First.
	if Compare(lockUrgent, lockRelaxed) <= 0 {
		t.Fatal("rule 3 violated: smaller RTR must win")
	}
	// Rule 4: Wakeup Request Last.
	if Compare(lockRelaxed, wake) <= 0 {
		t.Fatal("rule 4 violated: spinning lock request must beat wakeup")
	}
	// Rule 1: Slow Progress First dominates RTR.
	if Compare(slowLock, lockUrgent) <= 0 {
		t.Fatal("rule 1 violated: slower progress must win")
	}
	// Equal priorities tie.
	if Compare(lockUrgent, lockUrgent) != 0 || Compare(normal, normal) != 0 {
		t.Fatal("identical priorities must tie")
	}
}

func TestCompareProperties(t *testing.T) {
	// Property: Compare is antisymmetric and Max is consistent with it.
	gen := func(r *rand.Rand) Priority {
		if r.Intn(4) == 0 {
			return Normal
		}
		return Priority{Check: true, Class: uint8(r.Intn(9)), Prog: uint16(r.Intn(8))}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := gen(r), gen(r)
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		m := Max(a, b)
		return Compare(m, a) >= 0 && Compare(m, b) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareTransitivity(t *testing.T) {
	// Property: the Table 1 order is transitive (required for a total
	// pre-order the arbiters can sort by).
	gen := func(r *rand.Rand) Priority {
		if r.Intn(4) == 0 {
			return Normal
		}
		return Priority{Check: true, Class: uint8(r.Intn(9)), Prog: uint16(r.Intn(8))}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		if Compare(a, b) > 0 && Compare(b, c) > 0 && Compare(a, c) <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityString(t *testing.T) {
	p := DefaultPolicy()
	if Normal.String() != "normal" {
		t.Fatalf("normal string: %q", Normal.String())
	}
	if s := p.WakeupPriority(0).String(); s == "" || s == "normal" {
		t.Fatalf("wakeup string: %q", s)
	}
	if s := p.LockPriority(5, 2).String(); s == "" || s == "normal" {
		t.Fatalf("lock string: %q", s)
	}
}

func TestRegisterFile(t *testing.T) {
	var rf RegisterFile
	pol := DefaultPolicy()

	// Unwritten registers produce normal priority even with OCOR on.
	if got := rf.LockPriority(pol); got != Normal {
		t.Fatalf("unset registers gave %v", got)
	}

	rf.WriteLockRegs(5, 3)
	if rtr, ok := rf.RTR(); !ok || rtr != 5 {
		t.Fatalf("RTR = %d,%v", rtr, ok)
	}
	if rf.Prog() != 3 {
		t.Fatalf("Prog = %d", rf.Prog())
	}
	got := rf.LockPriority(pol)
	want := pol.LockPriority(5, 3)
	if got != want {
		t.Fatalf("LockPriority = %v, want %v", got, want)
	}

	// Baseline policy suppresses priorities entirely.
	if got := rf.LockPriority(BaselinePolicy()); got != Normal {
		t.Fatalf("baseline gave %v", got)
	}
	if got := rf.WakeupPriority(BaselinePolicy()); got != Normal {
		t.Fatalf("baseline wakeup gave %v", got)
	}

	rf.WriteProg(9)
	if rf.Prog() != 9 {
		t.Fatal("WriteProg did not update")
	}
	w := rf.WakeupPriority(pol)
	if w.Class != WakeupClass || !w.Check {
		t.Fatalf("wakeup priority %v", w)
	}

	rf.Clear()
	if _, ok := rf.RTR(); ok {
		t.Fatal("Clear did not invalidate")
	}
}

// TestKeyOrderMatchesCompare pins the property Router allocation relies on:
// the flattened Key agrees with Compare on every pair, including equality
// and including normal packets carrying (unused) nonzero Class/Prog fields.
func TestKeyOrderMatchesCompare(t *testing.T) {
	sign := func(v int) int {
		switch {
		case v > 0:
			return 1
		case v < 0:
			return -1
		}
		return 0
	}
	keySign := func(a, b uint32) int {
		switch {
		case a > b:
			return 1
		case a < b:
			return -1
		}
		return 0
	}
	// Exhaustive over the representable classes and a progress sample that
	// covers 0, the extremes and every byte boundary the bit layout packs.
	progs := []uint16{0, 1, 2, 7, 8, 63, 127, 128, 255, 256, 4095, 32767, 65534, 65535}
	var words []Priority
	for _, check := range []bool{false, true} {
		for class := 0; class < 256; class += 5 {
			for _, prog := range progs {
				words = append(words, Priority{Check: check, Class: uint8(class), Prog: prog})
			}
		}
	}
	// Normal packets with garbage Class/Prog must all collapse to key 0.
	words = append(words, Priority{Check: false, Class: 255, Prog: 65535})
	for _, a := range words {
		for _, b := range words {
			if got, want := keySign(a.Key(), b.Key()), sign(Compare(a, b)); got != want {
				t.Fatalf("Key disagrees with Compare: %v vs %v: key %d, cmp %d", a, b, got, want)
			}
		}
	}
	// And a randomized sweep over the full field space.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200000; i++ {
		a := Priority{Check: rng.Intn(2) == 1, Class: uint8(rng.Intn(256)), Prog: uint16(rng.Intn(65536))}
		b := Priority{Check: rng.Intn(2) == 1, Class: uint8(rng.Intn(256)), Prog: uint16(rng.Intn(65536))}
		if got, want := keySign(a.Key(), b.Key()), sign(Compare(a, b)); got != want {
			t.Fatalf("Key disagrees with Compare: %v vs %v: key %d, cmp %d", a, b, got, want)
		}
	}
}
