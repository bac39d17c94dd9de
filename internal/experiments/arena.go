package experiments

// Lock-protocol arena: a deterministic tournament crossing every kernel
// lock protocol with OCOR on/off over a workload catalog subset. Each
// cell is one full-platform simulation; its per-acquisition blocking-time
// and competition-overhead histograms come from the metrics collector and
// are merged across the catalog, and the combinations are ranked into a
// leaderboard by total ROI finish time. The report is byte-identical for
// any -j / -workers setting, like every other sweep in this package.

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/kernel/protocol"
	"repro/internal/obs"
	"repro/internal/workload"
)

// ArenaOptions configures a tournament.
type ArenaOptions struct {
	// Threads, Seed, Scale, Jobs, Workers as in Options (Threads defaults
	// to 16 — the arena is about lock-algorithm contrast, not scale).
	Threads int
	Seed    uint64
	Scale   float64
	Jobs    int
	Workers int
	// Benches restricts the workload catalog (empty = the Quick subset).
	Benches []string
	// Protocols restricts the contestants (empty = every registered
	// protocol, in protocol.Known order).
	Protocols []string
}

func (o ArenaOptions) withDefaults() (ArenaOptions, error) {
	if o.Threads == 0 {
		o.Threads = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if len(o.Protocols) == 0 {
		o.Protocols = protocol.Known()
	}
	for _, name := range o.Protocols {
		if !protocol.Valid(name) {
			return o, fmt.Errorf("experiments: unknown lock protocol %q (known: %v)", name, protocol.Known())
		}
	}
	if len(o.Benches) == 0 {
		for _, p := range (Options{Quick: true}).profiles() {
			o.Benches = append(o.Benches, p.Name)
		}
	}
	return o, nil
}

// HistSummary is the JSON-stable digest of one obs.LogHist: quantiles are
// power-of-two bucket upper bounds, exactly as LogHist.Quantile reports.
type HistSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// SummarizeHist digests a histogram.
func SummarizeHist(h *obs.LogHist) HistSummary {
	return HistSummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.5),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// ArenaCell is one benchmark under one {protocol, OCOR} combination.
type ArenaCell struct {
	Bench         string      `json:"bench"`
	ROIFinish     uint64      `json:"roi_finish"`
	TotalBT       uint64      `json:"total_bt"`
	TotalCOH      uint64      `json:"total_coh"`
	Acquisitions  uint64      `json:"acquisitions"`
	SpinFraction  float64     `json:"spin_fraction"`
	Handoffs      uint64      `json:"handoffs"`
	MaxQueueDepth int         `json:"max_queue_depth"`
	BT            HistSummary `json:"bt"`
	COH           HistSummary `json:"coh"`
}

// ArenaEntry is one {protocol, OCOR} combination aggregated over the
// workload catalog: the leaderboard row. BT and COH digest the merge of
// every benchmark's per-acquisition histogram.
type ArenaEntry struct {
	Rank          int         `json:"rank"`
	Protocol      string      `json:"protocol"`
	OCOR          bool        `json:"ocor"`
	TotalROI      uint64      `json:"total_roi"`
	TotalBT       uint64      `json:"total_bt"`
	TotalCOH      uint64      `json:"total_coh"`
	Handoffs      uint64      `json:"handoffs"`
	MaxQueueDepth int         `json:"max_queue_depth"`
	BT            HistSummary `json:"bt"`
	COH           HistSummary `json:"coh"`
	Cells         []ArenaCell `json:"cells"`
}

// ArenaReport is the full tournament result. Leaderboard is ranked by
// TotalROI ascending (fastest catalog sweep wins), ties broken by
// protocol name then baseline before OCOR, so the order — like every
// value in the report — is deterministic.
type ArenaReport struct {
	Threads     int          `json:"threads"`
	Seed        uint64       `json:"seed"`
	Scale       float64      `json:"scale"`
	Benches     []string     `json:"benches"`
	Protocols   []string     `json:"protocols"`
	Leaderboard []ArenaEntry `json:"leaderboard"`
}

// RunArena runs the full tournament: |Protocols| x {baseline, OCOR} x
// |Benches| simulations distributed over the shared core budget, results
// assembled and ranked deterministically regardless of Jobs/Workers.
func RunArena(o ArenaOptions, progress io.Writer) (ArenaReport, error) {
	o, err := o.withDefaults()
	if err != nil {
		return ArenaReport{}, err
	}
	profs := make([]workload.Profile, len(o.Benches))
	for i, name := range o.Benches {
		p, err := workload.ByName(name)
		if err != nil {
			return ArenaReport{}, err
		}
		profs[i] = p.Scale(o.Scale)
	}

	// Cell layout: combination-major, benchmark-minor. Combination c =
	// 2*protoIdx + ocorIdx, so each leaderboard row's cells are a
	// contiguous run and the ordered emitter can print one progress line
	// as each combination's last benchmark completes.
	nb := len(profs)
	combos := 2 * len(o.Protocols)
	var cells []Cell
	for c := 0; c < combos; c++ {
		for _, p := range profs {
			cells = append(cells, Cell{Profile: p, Threads: o.Threads, OCOR: c%2 == 1, Seed: o.Seed,
				Protocol: o.Protocols[c/2], Workers: o.Workers})
		}
	}
	runs, _, err := RunGrid(cells, GridOptions{Jobs: o.Jobs}, func(i int, _ CellResult) {
		if progress == nil || i%nb != nb-1 {
			return
		}
		c := i / nb
		fmt.Fprintf(progress, "arena %-14s ocor=%-5v done (%d benches)\n", o.Protocols[c/2], c%2 == 1, nb)
	})
	if err != nil {
		return ArenaReport{}, err
	}

	report := ArenaReport{
		Threads: o.Threads, Seed: o.Seed, Scale: o.Scale,
		Benches: o.Benches, Protocols: o.Protocols,
	}
	for c := 0; c < combos; c++ {
		entry := ArenaEntry{Protocol: o.Protocols[c/2], OCOR: c%2 == 1}
		var bt, coh obs.LogHist
		for b := 0; b < nb; b++ {
			run := runs[c*nb+b]
			r := run.Results
			entry.Cells = append(entry.Cells, ArenaCell{
				Bench:         profs[b].Name,
				ROIFinish:     r.ROIFinish,
				TotalBT:       r.TotalBT,
				TotalCOH:      r.TotalCOH,
				Acquisitions:  r.Acquisitions,
				SpinFraction:  r.SpinFraction,
				Handoffs:      run.Handoffs,
				MaxQueueDepth: run.MaxQueueDepth,
				BT:            SummarizeHist(&run.BT),
				COH:           SummarizeHist(&run.COH),
			})
			entry.TotalROI += r.ROIFinish
			entry.TotalBT += r.TotalBT
			entry.TotalCOH += r.TotalCOH
			entry.Handoffs += run.Handoffs
			if run.MaxQueueDepth > entry.MaxQueueDepth {
				entry.MaxQueueDepth = run.MaxQueueDepth
			}
			bt.Merge(&run.BT)
			coh.Merge(&run.COH)
		}
		entry.BT = SummarizeHist(&bt)
		entry.COH = SummarizeHist(&coh)
		report.Leaderboard = append(report.Leaderboard, entry)
	}
	sort.SliceStable(report.Leaderboard, func(i, j int) bool {
		a, b := report.Leaderboard[i], report.Leaderboard[j]
		if a.TotalROI != b.TotalROI {
			return a.TotalROI < b.TotalROI
		}
		if a.Protocol != b.Protocol {
			return a.Protocol < b.Protocol
		}
		return !a.OCOR && b.OCOR
	})
	for i := range report.Leaderboard {
		report.Leaderboard[i].Rank = i + 1
	}
	return report, nil
}

// PrintArena renders the leaderboard as a fixed-width table.
func PrintArena(w io.Writer, r ArenaReport) {
	fmt.Fprintf(w, "Lock-protocol arena (threads=%d seed=%d scale=%g benches=%v)\n",
		r.Threads, r.Seed, r.Scale, r.Benches)
	fmt.Fprintf(w, "%4s %-14s %-5s %12s %14s %14s %10s %9s %10s %10s\n",
		"rank", "protocol", "ocor", "total ROI", "total BT", "total COH", "handoffs", "max queue", "BT p95", "COH p95")
	for _, e := range r.Leaderboard {
		fmt.Fprintf(w, "%4d %-14s %-5v %12d %14d %14d %10d %9d %10d %10d\n",
			e.Rank, e.Protocol, e.OCOR, e.TotalROI, e.TotalBT, e.TotalCOH,
			e.Handoffs, e.MaxQueueDepth, e.BT.P95, e.COH.P95)
	}
}
