package par

// Pool is a persistent team of worker goroutines for repeated fork-join
// dispatch. Run(fn) invokes fn(w) once per worker id w in [0, Workers())
// and returns when every invocation has completed; worker 0 is the calling
// goroutine, so a pool of one dispatches nothing. Workers are spawned once
// at NewPool and stay parked on their start channels between Run calls:
// per-dispatch cost is one channel handoff out and one back per helper
// (see BenchmarkPoolRun), not a goroutine spawn + exit.
//
// Nothing in the simulator dispatches on a Pool since the NoC's fused
// parallel tick was deleted: the type stays only because the benchmark
// module's component wrapper still names it, and it goes when that
// wrapper stops forwarding tick pools (ROADMAP item 8). Map, which runs
// whole simulations side by side, is the package's parallelism.
//
// Run is not reentrant and a Pool must only be driven from one goroutine
// at a time; the workers synchronize exclusively with the dispatching
// goroutine (channel handoffs establish the happens-before edges), never
// with each other.
type Pool struct {
	workers int
	fn      func(worker int)
	// start[i] parks helper worker i+1; a send hands it the current fn.
	start []chan struct{}
	// done receives one completion (carrying any recovered panic) per
	// helper per Run.
	done   chan poolDone
	closed bool
}

type poolDone struct {
	worker   int
	panicked any
}

// NewPool spawns a pool of the given size (minimum 1). The caller owns the
// pool and must Close it to release the worker goroutines.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, done: make(chan poolDone, workers-1)}
	for w := 1; w < workers; w++ {
		ch := make(chan struct{})
		p.start = append(p.start, ch)
		go p.work(w, ch)
	}
	return p
}

// Workers returns the pool size, including the calling goroutine.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) work(id int, start <-chan struct{}) {
	for range start {
		p.done <- poolDone{worker: id, panicked: p.call(id)}
	}
}

// call runs fn(id), converting a panic into a value instead of unwinding
// the worker goroutine (which would kill the process without giving the
// dispatcher a chance to re-panic it on the calling goroutine).
func (p *Pool) call(id int) (panicked any) {
	defer func() { panicked = recover() }()
	p.fn(id)
	return nil
}

// Run invokes fn(w) once per worker and waits for all invocations. A panic
// in any invocation is
// re-raised on the calling goroutine after every worker has finished, so a
// failed dispatch never leaves a worker running; when several workers
// panic the lowest worker id wins, keeping the surfaced failure
// deterministic.
func (p *Pool) Run(fn func(worker int)) {
	if p.closed {
		panic("par: Run on closed Pool")
	}
	if p.workers == 1 {
		fn(0)
		return
	}
	p.fn = fn
	for _, ch := range p.start {
		ch <- struct{}{}
	}
	firstPanic := p.call(0)
	firstID := -1
	if firstPanic != nil {
		firstID = 0
	}
	for i := 1; i < p.workers; i++ {
		d := <-p.done
		if d.panicked != nil && (firstID == -1 || d.worker < firstID) {
			firstPanic, firstID = d.panicked, d.worker
		}
	}
	p.fn = nil
	if firstPanic != nil {
		panic(firstPanic)
	}
}

// Close releases the worker goroutines. The pool must be idle; Run after
// Close panics.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.start {
		close(ch)
	}
}
