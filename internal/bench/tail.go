package bench

import (
	"cmp"
	"fmt"
	"io"
	"sort"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The tail experiment: per-request causal attribution of tail latency.
// Each runtime runs the eviction-storm scenario twice — once with the
// storm, once calm, same seed, so the pair differs only in the storm —
// with a request recorder capturing every request's lifecycle segments
// and an exemplar-enabled latency histogram linking buckets back to
// concrete RequestIDs. The critical-path extractor then decomposes
// each completed request's latency into exact, conservation-checked
// components (queue wait, boot, warm restore, service, storm-induced
// redo): the p50/p99/p999 requests are named and attributed, the
// slowest requests get full waterfalls, and the storm tax is the
// paired quantile delta. Every cell is an isolated simulation, so the
// report is byte-identical for any -parallel value.

// TailSeed tags the committed BENCH_tail report and roots the per-cell
// seeds.
const TailSeed = 0x7a11a7

const (
	// tailNodes is the default fleet size (smaller than the fleet
	// experiment's: the artifact carries per-request detail).
	tailNodes = 20
	// tailLoad is the offered load as a fraction of nominal capacity.
	tailLoad = 0.8
	// tailTopK is how many of the slowest requests get waterfalls (on
	// top of every histogram exemplar, which always resolves to one).
	tailTopK = 3
)

// tailShape sizes the tail cells. The storm is harsher than the fleet
// experiment's, a quarter of the nodes, so redo segments dominate the
// far tail visibly.
var tailShape = cellShape{
	slots: 4, queueLimit: 16, meanReqs: 8, arrivals: 4000,
	evictAt: 2, downFor: 8,
	stormNodes: func(nodes int) int { return max(nodes/4, 1) },
}

// TailOpts parameterizes the experiment; zero values mean the
// committed-artifact defaults.
type TailOpts struct {
	Scale    int
	Parallel int
	// Nodes overrides the fleet size (default tailNodes).
	Nodes int
}

// TailComponents is one request's latency decomposed into causal
// components (decompose extracts them). All durations are picoseconds
// — the virtual clock's own unit — because the conservation law is
// exact: QueuePs + BootPs + WarmRestorePs + ServicePs + StormRedoPs ==
// TotalPs, no rounding. BootPs counts cold boots and fork boots.
type TailComponents struct {
	QueuePs       int64 `json:"queue_ps"`
	BootPs        int64 `json:"boot_ps"`
	WarmRestorePs int64 `json:"warm_restore_ps"`
	ServicePs     int64 `json:"service_ps"`
	StormRedoPs   int64 `json:"storm_redo_ps"`
	TotalPs       int64 `json:"total_ps"`
	// Placements counts scheduler decisions (instantaneous in the
	// control-plane model: counted, not timed); Evictions counts storm
	// displacements survived.
	Placements int `json:"placements"`
	Evictions  int `json:"evictions,omitempty"`
}

// TailStep is one segment of a waterfall, virtual-time ordered.
type TailStep struct {
	Kind    string `json:"kind"`
	AtPs    int64  `json:"at_ps"`
	DurPs   int64  `json:"dur_ps,omitempty"`
	Node    int    `json:"node,omitempty"`
	Outcome string `json:"outcome,omitempty"`
}

// TailWaterfall is one concrete request's full causal story.
type TailWaterfall struct {
	RequestID string `json:"request_id"`
	// Rank is the request's 1-based slowness rank among the cell's
	// completions (1 = slowest).
	Rank       int            `json:"rank"`
	LatencyMs  float64        `json:"latency_ms"`
	Components TailComponents `json:"components"`
	Steps      []TailStep     `json:"steps"`
}

// TailQuantile names the exact request at a latency quantile and
// attributes its latency.
type TailQuantile struct {
	Q          string         `json:"q"`
	LatencyMs  float64        `json:"latency_ms"`
	RequestID  string         `json:"request_id"`
	Components TailComponents `json:"components"`
}

// TailExemplarRef is one histogram-bucket exemplar: the link from the
// metrics layer back to a traced request. Every referenced ID resolves
// to a waterfall in the same row (Invariants checks).
type TailExemplarRef struct {
	BucketNs  int64  `json:"bucket_ns"` // bucket upper bound, -1 = +Inf
	RequestID string `json:"request_id"`
	ValueNs   int64  `json:"value_ns"`
}

// TailRow is one runtime's storm cell, attributed, plus the calm
// baseline and the storm tax (paired quantile deltas).
type TailRow struct {
	Runtime       string  `json:"runtime"`
	OfferedPerSec float64 `json:"offered_per_sec"`
	HorizonNs     int64   `json:"horizon_ns"`
	StormStartNs  int64   `json:"storm_start_ns"`
	StormEndNs    int64   `json:"storm_end_ns"`

	Arrived      int `json:"arrived"`
	Completed    int `json:"completed"`
	Rejected     int `json:"rejected"`
	Evicted      int `json:"evicted"`
	WarmRestores int `json:"warm_restores"`
	ColdRedos    int `json:"cold_redos"`

	// Quantiles attributes the exact p50/p99/p999 requests; Totals
	// aggregates components over every completed request (the same
	// conservation law holds on the sums).
	Quantiles []TailQuantile `json:"quantiles"`
	Totals    TailComponents `json:"totals"`

	Exemplars  []TailExemplarRef `json:"exemplars"`
	Waterfalls []TailWaterfall   `json:"waterfalls"`

	// The calm baseline (same seed, no storm) and the storm tax.
	CalmP50Ms      float64 `json:"calm_p50_ms"`
	CalmP99Ms      float64 `json:"calm_p99_ms"`
	CalmP999Ms     float64 `json:"calm_p999_ms"`
	StormTaxP50Ms  float64 `json:"storm_tax_p50_ms"`
	StormTaxP99Ms  float64 `json:"storm_tax_p99_ms"`
	StormTaxP999Ms float64 `json:"storm_tax_p999_ms"`
}

// TailReport is the whole experiment (the committed BENCH_tail
// artifact).
type TailReport struct {
	Seed         uint64             `json:"seed"`
	Scale        int                `json:"scale"`
	Nodes        int                `json:"nodes"`
	SlotsPerNode int                `json:"slots_per_node"`
	QueueLimit   int                `json:"queue_limit"`
	MeanReqs     int                `json:"mean_reqs"`
	Sched        string             `json:"sched"`
	Calibration  []FleetCalibration `json:"calibration"`
	Rows         []TailRow          `json:"rows"`
}

// tailCell is one (runtime, storm|calm) simulation's raw outcome.
type tailCell struct {
	res  *fleet.Result
	rec  *trace.RequestRecorder
	ex   []metrics.Exemplar
	cfg  fleet.Config
	rate float64
}

// runTailCell executes one cell: the storm (or calm-baseline) scenario
// with a request recorder and an exemplar-enabled probe attached.
func runTailCell(o TailOpts, nodes, ri int, name string, costs fleet.RuntimeCosts, storm bool) (*tailCell, error) {
	sched, err := fleet.SchedulerByName("spread")
	if err != nil {
		return nil, err
	}
	// Storm and calm share the seed: identical arrivals and demands, so
	// the quantile delta isolates the storm.
	rate := tailLoad * tailShape.capacity(nodes, costs)
	cfg := tailShape.poisson(o.Scale, nodes, costs, sched, faults.Child(TailSeed, ri), rate)
	if storm {
		tailShape.storm(&cfg)
	}
	rec := trace.NewRequestRecorder()
	cfg.Requests = rec
	probe := telemetry.NewFleetProbe(metrics.NewRegistry(), nil, nil, metrics.L("runtime", name))
	probe.EnableExemplars()
	cfg.Observe = probe
	res, err := fleet.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("tail: %s: %w", name, err)
	}
	return &tailCell{res: res, rec: rec, ex: probe.LatencyExemplars(), cfg: cfg, rate: rate}, nil
}

// tailPair is one completed request as the extractor sees it.
type tailPair struct {
	id  trace.RequestID
	lat clock.Time
	// seen is the request's first-seen (arrival) order: the
	// deterministic tiebreak among equal latencies.
	seen int
}

// tailRow extracts one runtime's attributed row from its storm and
// calm cells. Every completed request's components are
// conservation-checked here, not just the reported ones.
func tailRow(name string, storm, calm *tailCell) (TailRow, error) {
	res := storm.res
	row := TailRow{
		Runtime: name, OfferedPerSec: storm.rate,
		HorizonNs:    int64(storm.cfg.Horizon / clock.Nanosecond),
		StormStartNs: int64(storm.cfg.EvictAt / clock.Nanosecond),
		StormEndNs:   int64((storm.cfg.EvictAt + storm.cfg.DownFor) / clock.Nanosecond),
		Arrived:      res.Arrived, Completed: res.Completed, Rejected: res.Rejected,
		Evicted: res.Evicted, WarmRestores: res.WarmRestores, ColdRedos: res.ColdRedos,
	}

	// Walk every traced request: conservation-check all terminals and
	// collect the completed ones.
	var pairs []tailPair
	comps := map[trace.RequestID]TailComponents{}
	for seen, id := range storm.rec.Requests() {
		segs := storm.rec.Segments(id)
		if last := segs[len(segs)-1]; !last.Terminal() {
			continue // in flight at the horizon
		}
		c, err := decompose(segs)
		if err != nil {
			return row, fmt.Errorf("tail: %s: %w", name, err)
		}
		if segs[len(segs)-1].Kind != trace.SegComplete {
			continue // rejected: zero-latency terminal, nothing to rank
		}
		comps[id] = c
		pairs = append(pairs, tailPair{id: id, lat: clock.Time(c.TotalPs), seen: seen})
		row.Totals.QueuePs += c.QueuePs
		row.Totals.BootPs += c.BootPs
		row.Totals.WarmRestorePs += c.WarmRestorePs
		row.Totals.ServicePs += c.ServicePs
		row.Totals.StormRedoPs += c.StormRedoPs
		row.Totals.TotalPs += c.TotalPs
		row.Totals.Placements += c.Placements
		row.Totals.Evictions += c.Evictions
	}
	if len(pairs) != res.Completed {
		return row, fmt.Errorf("tail: %s: traced %d completions, result has %d",
			name, len(pairs), res.Completed)
	}
	// Slowest first; arrival order breaks latency ties deterministically.
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].lat != pairs[j].lat {
			return pairs[i].lat > pairs[j].lat
		}
		return pairs[i].seen < pairs[j].seen
	})
	rank := map[trace.RequestID]int{}
	for i, p := range pairs {
		rank[p.id] = i + 1
	}

	// Quantiles: the same ceil-rank order statistic Result.Quantile
	// publishes, here resolved to the concrete request paying it.
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p99", 0.99}, {"p999", 0.999}} {
		idx := int(q.q*float64(len(pairs))+0.999999) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(pairs) {
			idx = len(pairs) - 1
		}
		p := pairs[len(pairs)-1-idx] // pairs is sorted descending
		if want := res.Quantile(q.q); p.lat != want {
			return row, fmt.Errorf("tail: %s: %s request latency %v disagrees with the result quantile %v",
				name, q.name, p.lat, want)
		}
		row.Quantiles = append(row.Quantiles, TailQuantile{
			Q: q.name, LatencyMs: millis(p.lat), RequestID: p.id.String(),
			Components: comps[p.id],
		})
	}

	// Waterfalls: the top-K slowest plus every bucket exemplar — the
	// metrics layer's links must all resolve.
	want := map[trace.RequestID]bool{}
	for i := 0; i < tailTopK && i < len(pairs); i++ {
		want[pairs[i].id] = true
	}
	for _, e := range storm.ex {
		id := trace.RequestID(e.ID)
		if _, ok := comps[id]; !ok {
			return row, fmt.Errorf("tail: %s: exemplar %016x is not a completed traced request", name, e.ID)
		}
		want[id] = true
		row.Exemplars = append(row.Exemplars, TailExemplarRef{
			BucketNs: e.BucketNs, RequestID: id.String(),
			ValueNs: int64(e.Value) / 1000,
		})
	}
	for _, p := range pairs {
		if !want[p.id] {
			continue
		}
		wf := TailWaterfall{
			RequestID: p.id.String(), Rank: rank[p.id],
			LatencyMs: millis(p.lat), Components: comps[p.id],
		}
		for _, s := range storm.rec.Segments(p.id) {
			wf.Steps = append(wf.Steps, TailStep{
				Kind: s.Kind, AtPs: int64(s.At), DurPs: int64(s.Dur),
				Node: s.Node, Outcome: s.Outcome,
			})
		}
		row.Waterfalls = append(row.Waterfalls, wf)
	}

	// The paired baseline: same arrivals, no storm.
	row.CalmP50Ms = millis(calm.res.Quantile(0.5))
	row.CalmP99Ms = millis(calm.res.Quantile(0.99))
	row.CalmP999Ms = millis(calm.res.Quantile(0.999))
	row.StormTaxP50Ms = millis(res.Quantile(0.5)) - row.CalmP50Ms
	row.StormTaxP99Ms = millis(res.Quantile(0.99)) - row.CalmP99Ms
	row.StormTaxP999Ms = millis(res.Quantile(0.999)) - row.CalmP999Ms
	return row, nil
}

// RunTail executes the tail experiment. Deterministic: the same opts
// produce the same report, byte for byte, for any Parallel.
func RunTail(o TailOpts) (*TailReport, error) {
	o.Scale, o.Parallel = max(o.Scale, 1), max(o.Parallel, 1)
	nodes := cmp.Or(o.Nodes, tailNodes)
	specs := runtimeGrid()
	costs, names, cal, err := calibrateGrid("tail", o.Parallel, specs)
	if err != nil {
		return nil, err
	}

	rep := &TailReport{
		Seed: TailSeed, Scale: o.Scale, Nodes: nodes,
		SlotsPerNode: tailShape.slots, QueueLimit: tailShape.queueLimit,
		MeanReqs: tailShape.meanReqs, Sched: "spread", Calibration: cal,
	}

	// Two cells per runtime — storm (even) and calm baseline (odd) —
	// all independent, one fan-out.
	cells := make([]*tailCell, 2*len(specs))
	err = RunIndexed(o.Parallel, len(cells), func(ci int) error {
		ri, storm := ci/2, ci%2 == 0
		cell, err := runTailCell(o, nodes, ri, names[ri], costs[ri], storm)
		if err != nil {
			return err
		}
		cells[ci] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ri := range specs {
		row, err := tailRow(names[ri], cells[2*ri], cells[2*ri+1])
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// WriteTailJSON writes the report in the exact encoding of the
// committed BENCH_tail artifact.
func WriteTailJSON(rep *TailReport, w io.Writer) error { return writeJSON(w, rep) }

// WriteJSON writes the report in the committed BENCH_tail encoding.
func (rep *TailReport) WriteJSON(w io.Writer) error { return writeJSON(w, rep) }

// tailShare renders a component's share of an aggregate total.
func tailShare(part, total int64) string {
	if total == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(total))
}

// WriteTable renders the attribution summary as tables.
func (rep *TailReport) WriteTable(w io.Writer) error {
	t := NewTable(
		fmt.Sprintf("Tail-latency attribution: %d nodes x %d slots, eviction storm at t=horizon/2",
			rep.Nodes, rep.SlotsPerNode),
		"runtime", "done", "p50", "p99", "p999", "queue", "boot", "restore", "service", "redo", "tax p99", "tax p999")
	for _, r := range rep.Rows {
		var p50, p99, p999 float64
		for _, q := range r.Quantiles {
			switch q.Q {
			case "p50":
				p50 = q.LatencyMs
			case "p99":
				p99 = q.LatencyMs
			case "p999":
				p999 = q.LatencyMs
			}
		}
		t.Row(r.Runtime, itoa(r.Completed),
			fmt.Sprintf("%.2fms", p50),
			fmt.Sprintf("%.2fms", p99),
			fmt.Sprintf("%.2fms", p999),
			tailShare(r.Totals.QueuePs, r.Totals.TotalPs),
			tailShare(r.Totals.BootPs, r.Totals.TotalPs),
			tailShare(r.Totals.WarmRestorePs, r.Totals.TotalPs),
			tailShare(r.Totals.ServicePs, r.Totals.TotalPs),
			tailShare(r.Totals.StormRedoPs, r.Totals.TotalPs),
			fmt.Sprintf("%.2fms", r.StormTaxP99Ms),
			fmt.Sprintf("%.2fms", r.StormTaxP999Ms))
	}
	t.Note("component shares aggregate every completed request; per-request they sum")
	t.Note("exactly to the end-to-end latency (conservation law). tax = storm quantile")
	t.Note("minus the calm same-seed baseline. ckitrace -tail BENCH_tail.json -request <id>")
	t.Note("renders any exemplar's waterfall.")
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	wt := NewTable("Slowest-request waterfalls (storm cells)",
		"runtime", "request", "rank", "latency", "queue", "redo", "evictions")
	for _, r := range rep.Rows {
		for _, wf := range r.Waterfalls {
			if wf.Rank > tailTopK {
				continue
			}
			wt.Row(r.Runtime, wf.RequestID, itoa(wf.Rank),
				fmt.Sprintf("%.2fms", wf.LatencyMs),
				tailShare(wf.Components.QueuePs, wf.Components.TotalPs),
				tailShare(wf.Components.StormRedoPs, wf.Components.TotalPs),
				itoa(wf.Components.Evictions))
		}
	}
	_, err := wt.WriteTo(w)
	return err
}

// conserves reports whether the components sum exactly to the total.
func (c TailComponents) conserves() bool {
	return c.QueuePs+c.BootPs+c.WarmRestorePs+c.ServicePs+c.StormRedoPs == c.TotalPs
}

// Invariants checks what BENCH_tail promises for every runtime: the
// storm displaced work; the components conserve (per quantile, per
// waterfall, and in aggregate — RunTail checks every completed request,
// this pins the reported subset); the p50/p99/p999 quantiles are
// attributed and monotone; the top-K waterfalls run from arrival to
// completion; every histogram exemplar resolves to a waterfall; and the
// far-tail storm tax is non-negative.
func (rep *TailReport) Invariants() error {
	if len(rep.Rows) != len(runtimeGrid()) || len(rep.Calibration) != len(runtimeGrid()) {
		return fmt.Errorf("tail: %d rows / %d calibrations, want one per runtime (%d)",
			len(rep.Rows), len(rep.Calibration), len(runtimeGrid()))
	}
	for _, r := range rep.Rows {
		switch {
		case r.Arrived == 0 || r.Completed == 0 || r.Evicted == 0 || r.WarmRestores+r.ColdRedos == 0:
			return fmt.Errorf("tail: %s: empty cell or a storm that displaced nothing: %+v", r.Runtime, r)
		case len(r.Quantiles) != 3:
			return fmt.Errorf("tail: %s: %d quantiles, want p50/p99/p999", r.Runtime, len(r.Quantiles))
		case r.Quantiles[0].LatencyMs > r.Quantiles[1].LatencyMs || r.Quantiles[1].LatencyMs > r.Quantiles[2].LatencyMs:
			return fmt.Errorf("tail: %s: quantiles not monotone: %+v", r.Runtime, r.Quantiles)
		case !r.Totals.conserves() || r.Totals.Placements < r.Completed:
			return fmt.Errorf("tail: %s: aggregate components do not conserve or undercount placements: %+v", r.Runtime, r.Totals)
		case r.StormTaxP999Ms < 0:
			return fmt.Errorf("tail: %s: negative p999 storm tax %v", r.Runtime, r.StormTaxP999Ms)
		case len(r.Exemplars) == 0:
			return fmt.Errorf("tail: %s: latency histogram recorded no exemplars", r.Runtime)
		}
		for _, q := range r.Quantiles {
			if !q.Components.conserves() || q.Components.TotalPs == 0 || q.RequestID == "" {
				return fmt.Errorf("tail: %s %s: degenerate or non-conserving quantile %+v", r.Runtime, q.Q, q)
			}
		}
		waterfalls := map[string]bool{}
		ranks := map[int]bool{}
		for _, wf := range r.Waterfalls {
			if !wf.Components.conserves() || len(wf.Steps) == 0 ||
				wf.Steps[0].Kind != trace.SegArrival || wf.Steps[len(wf.Steps)-1].Kind != trace.SegComplete {
				return fmt.Errorf("tail: %s %s: malformed waterfall %+v", r.Runtime, wf.RequestID, wf)
			}
			waterfalls[wf.RequestID] = true
			ranks[wf.Rank] = true
		}
		for rank := 1; rank <= tailTopK; rank++ {
			if !ranks[rank] {
				return fmt.Errorf("tail: %s: no waterfall at slowness rank %d", r.Runtime, rank)
			}
		}
		for _, e := range r.Exemplars {
			if !waterfalls[e.RequestID] {
				return fmt.Errorf("tail: %s: exemplar %s has no waterfall", r.Runtime, e.RequestID)
			}
		}
	}
	return nil
}
