package fleet

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/trace"
)

// testCosts is a hand-picked cost model: 300µs boot, 50µs per request,
// 60µs warm restore — close to what the calibration pass measures for
// the virtualized runtimes.
func testCosts() RuntimeCosts {
	return RuntimeCosts{
		Boot:        300 * clock.Microsecond,
		Service:     50 * clock.Microsecond,
		WarmRestore: 60 * clock.Microsecond,
	}
}

// TestRunDeterminism: the control plane is a pure function of its
// config — two runs of the same config produce deep-equal results,
// eviction storm included.
func TestRunDeterminism(t *testing.T) {
	h := 20 * clock.Millisecond
	cfg := Config{
		Nodes: 8, SlotsPerNode: 2, QueueLimit: 8,
		Costs: testCosts(), MeanReqs: 4,
		Arrivals: des.PoissonArrivals(11, 15_000, h),
		Horizon:  h, Seed: 11, Sched: Spread{},
		SnapshotAge: 100 * clock.Microsecond,
		EvictAt:     10 * clock.Millisecond, EvictNodes: 2, DownFor: 2 * clock.Millisecond,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different results:\n%+v\nvs\n%+v", a, b)
	}
	cfg2 := cfg
	cfg2.Seed = 12
	c, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Latencies, c.Latencies) {
		t.Fatalf("different seeds produced identical latency streams")
	}
}

// TestUnderloadNoRejects: a fleet driven at half capacity completes
// nearly everything and never pushes back.
func TestUnderloadNoRejects(t *testing.T) {
	h := 20 * clock.Millisecond
	for _, name := range SchedulerNames() {
		sched, err := SchedulerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Nodes: 8, SlotsPerNode: 2, QueueLimit: 8,
			Costs: testCosts(), MeanReqs: 4,
			// Capacity ~= 16 slots / 500µs mean lifetime = 32k/s.
			Arrivals: des.PoissonArrivals(7, 15_000, h),
			Horizon:  h, Seed: 7, Sched: sched,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Arrived == 0 || res.Completed == 0 {
			t.Fatalf("%s: empty run: %+v", name, res)
		}
		if res.Rejected != 0 {
			t.Fatalf("%s: underloaded fleet rejected %d arrivals", name, res.Rejected)
		}
		if res.Quantile(0.5) > res.Quantile(0.99) || res.Quantile(0.99) > res.Quantile(0.999) {
			t.Fatalf("%s: quantiles not monotone: p50 %v p99 %v p999 %v",
				name, res.Quantile(0.5), res.Quantile(0.99), res.Quantile(0.999))
		}
		// Every latency covers at least boot + one request.
		if min := testCosts().Boot + testCosts().Service; res.Quantile(0.5) < min {
			t.Fatalf("%s: p50 %v below the physical floor %v", name, res.Quantile(0.5), min)
		}
	}
}

// TestOverloadBackpressure: at ~3x capacity the admission bound turns
// the excess into rejections instead of unbounded queues, and goodput
// saturates near capacity.
func TestOverloadBackpressure(t *testing.T) {
	h := 20 * clock.Millisecond
	for _, name := range SchedulerNames() {
		sched, _ := SchedulerByName(name)
		res, err := Run(Config{
			Nodes: 8, SlotsPerNode: 2, QueueLimit: 8,
			Costs: testCosts(), MeanReqs: 4,
			Arrivals: des.PoissonArrivals(3, 100_000, h),
			Horizon:  h, Seed: 3, Sched: sched,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rejected == 0 {
			t.Fatalf("%s: overloaded fleet rejected nothing: backpressure missing", name)
		}
		if res.MaxQueue > 8 {
			t.Fatalf("%s: queue depth %d exceeded the admission bound", name, res.MaxQueue)
		}
		// 16 slots / 500µs mean lifetime ≈ 32k/s ceiling.
		if g := res.Goodput(h); g > 1.2*32_000 {
			t.Fatalf("%s: goodput %v/s exceeds the capacity ceiling", name, g)
		}
	}
}

// TestSchedulerShape: binpack concentrates starts on the low-ID prefix
// leaving the tail idle; spread spills starts across every node.
func TestSchedulerShape(t *testing.T) {
	h := 20 * clock.Millisecond
	run := func(s Scheduler) *Result {
		res, err := Run(Config{
			Nodes: 8, SlotsPerNode: 2, QueueLimit: 8,
			Costs: testCosts(), MeanReqs: 4,
			// ~7 concurrent containers against 16 slots: plenty of
			// spare capacity for placement policy to show.
			Arrivals: des.PoissonArrivals(21, 14_000, h),
			Horizon:  h, Seed: 21, Sched: s,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bp := run(BinPack{})
	sp := run(Spread{})

	if last := bp.Nodes[len(bp.Nodes)-1]; last.Starts != 0 {
		t.Fatalf("binpack used the last node (%d starts) with the prefix unfilled", last.Starts)
	}
	if bp.Nodes[0].Starts <= bp.Nodes[len(bp.Nodes)-1].Starts {
		t.Fatalf("binpack did not concentrate: first %d starts, last %d",
			bp.Nodes[0].Starts, bp.Nodes[len(bp.Nodes)-1].Starts)
	}
	for _, n := range sp.Nodes {
		if n.Starts == 0 {
			t.Fatalf("spread left node %d idle: %+v", n.Node, sp.Nodes)
		}
	}
	// Spread's per-node start counts stay within a tight band.
	lo, hi := sp.Nodes[0].Starts, sp.Nodes[0].Starts
	for _, n := range sp.Nodes {
		if n.Starts < lo {
			lo = n.Starts
		}
		if n.Starts > hi {
			hi = n.Starts
		}
	}
	if hi > 2*lo {
		t.Fatalf("spread imbalanced: node starts range [%d, %d]", lo, hi)
	}
}

// TestEvictionStorm: taking nodes down mid-run displaces their work,
// snapshot-aged containers come back warm, young ones redo cold, and
// the books still balance.
func TestEvictionStorm(t *testing.T) {
	h := 20 * clock.Millisecond
	base := Config{
		Nodes: 4, SlotsPerNode: 2, QueueLimit: 16,
		Costs: testCosts(), MeanReqs: 4,
		Arrivals: des.PoissonArrivals(9, 12_000, h),
		Horizon:  h, Seed: 9, Sched: Spread{},
		EvictAt: 10 * clock.Millisecond, EvictNodes: 2, DownFor: 2 * clock.Millisecond,
	}

	warm := base
	warm.SnapshotAge = 50 * clock.Microsecond
	wres, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Evicted == 0 {
		t.Fatalf("eviction storm displaced nothing")
	}
	if wres.WarmRestores == 0 {
		t.Fatalf("no warm restores despite a 50µs snapshot age: %+v", wres)
	}
	crashed := 0
	for _, n := range wres.Nodes {
		if n.Crashed {
			crashed++
			if n.Evicted == 0 {
				t.Fatalf("crashed node %d evicted nothing", n.Node)
			}
		}
	}
	if crashed != 2 {
		t.Fatalf("marked %d nodes crashed, want 2", crashed)
	}

	cold := base
	cold.SnapshotAge = clock.Time(1) << 40 // older than any run: nothing qualifies
	cres, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	if cres.WarmRestores != 0 {
		t.Fatalf("warm restores with an unreachable snapshot age: %+v", cres)
	}
	if cres.ColdRedos == 0 {
		t.Fatalf("no cold redos in the cold configuration: %+v", cres)
	}

	// The storm never breaks completion accounting: a displaced
	// container completes at most once (the poisoned event never fires).
	if wres.Completed > wres.Arrived || cres.Completed > cres.Arrived {
		t.Fatalf("completions exceed arrivals: warm %+v cold %+v", wres, cres)
	}

	// And the undisturbed portion of the run is unchanged: an eviction
	// draws from its own generator, so demands are identical — the
	// no-eviction run completes at least as much.
	quiet := base
	quiet.EvictAt = 0
	qres, err := Run(quiet)
	if err != nil {
		t.Fatal(err)
	}
	if qres.Evicted != 0 || qres.WarmRestores != 0 || qres.ColdRedos != 0 {
		t.Fatalf("quiet run saw evictions: %+v", qres)
	}
	if qres.Completed < wres.Completed {
		t.Fatalf("eviction increased completions: quiet %d vs storm %d", qres.Completed, wres.Completed)
	}
}

// TestFleetScale is the acceptance run: ≥1000 containers over ≥50
// nodes under both schedulers, with an overload segment where the
// fleet visibly pushes back.
func TestFleetScale(t *testing.T) {
	// Capacity: 200 slots / 700µs mean lifetime ≈ 285k/s. Drive half
	// that for 10ms, then ~1.75x for 10ms.
	segs := []des.RateSegment{
		{RatePerSec: 150_000, Dur: 10 * clock.Millisecond},
		{RatePerSec: 500_000, Dur: 10 * clock.Millisecond},
	}
	h := 20 * clock.Millisecond
	for _, name := range SchedulerNames() {
		sched, _ := SchedulerByName(name)
		res, err := Run(Config{
			Nodes: 50, SlotsPerNode: 4, QueueLimit: 16,
			Costs: testCosts(), MeanReqs: 8,
			Arrivals: des.PiecewiseArrivals(1, segs),
			Horizon:  h, Seed: 1, Sched: sched,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Arrived < 1000 {
			t.Fatalf("%s: only %d arrivals, want >= 1000", name, res.Arrived)
		}
		if res.Completed < 1000 {
			t.Fatalf("%s: only %d completions, want >= 1000", name, res.Completed)
		}
		if res.Rejected == 0 {
			t.Fatalf("%s: the overload segment produced no rejections", name)
		}
		if len(res.Nodes) != 50 {
			t.Fatalf("%s: %d node stats, want 50", name, len(res.Nodes))
		}
		if res.Quantile(0.999) < res.Quantile(0.99) {
			t.Fatalf("%s: p999 %v below p99 %v", name, res.Quantile(0.999), res.Quantile(0.99))
		}
	}
}

// TestSchedulerRegistry: the -sched vocabulary resolves and unknown
// names fail loudly.
func TestSchedulerRegistry(t *testing.T) {
	names := SchedulerNames()
	if !reflect.DeepEqual(names, []string{"binpack", "spread"}) {
		t.Fatalf("scheduler registry = %v", names)
	}
	for _, n := range names {
		s, err := SchedulerByName(n)
		if err != nil || s.Name() != n {
			t.Fatalf("SchedulerByName(%q) = %v, %v", n, s, err)
		}
	}
	if _, err := SchedulerByName("random"); err == nil {
		t.Fatalf("unknown scheduler accepted")
	}
}

// TestConfigValidation: impossible configs error instead of running.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 0, SlotsPerNode: 1, Costs: testCosts(), Sched: Spread{}},
		{Nodes: 1, SlotsPerNode: 0, Costs: testCosts(), Sched: Spread{}},
		{Nodes: 1, SlotsPerNode: 1, Costs: testCosts()},
		{Nodes: 1, SlotsPerNode: 1, Sched: Spread{}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	// Arrivals must be sorted from time 0; the error names the first
	// offending index, even past the horizon.
	for _, tc := range []struct {
		atUs []clock.Time
		want string
	}{
		{[]clock.Time{0, 2, 2, 1, 0}, "arrival 3 "},
		{[]clock.Time{-1, 0}, "arrival 0 "},
		{[]clock.Time{0, 5, 9000, 1}, "arrival 3 "},
	} {
		cfg := Config{Nodes: 1, SlotsPerNode: 1, Costs: testCosts(), Sched: Spread{}, Horizon: clock.Millisecond}
		for i, at := range tc.atUs {
			cfg.Arrivals = append(cfg.Arrivals, des.Arrival{At: at * clock.Microsecond, Seq: i})
		}
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("arrivals %vµs: err %v, want one naming %q", tc.atUs, err, tc.want)
		}
	}
}

// recordingObserver is a pure test observer: it counts every hook.
type recordingObserver struct {
	arrivals, completed, rejected int
	zeroIDs                       int
	evicted                       map[EvictOutcome]int
	scrapes                       int
	lastView                      []Pressure
}

func (o *recordingObserver) Arrival(clock.Time) { o.arrivals++ }
func (o *recordingObserver) Completed(_ clock.Time, node int, id trace.RequestID, lat clock.Time) {
	o.completed++
	if id == 0 {
		o.zeroIDs++
	}
}
func (o *recordingObserver) Rejected(clock.Time) { o.rejected++ }
func (o *recordingObserver) Evicted(_ clock.Time, _ int, outcome EvictOutcome) {
	if o.evicted == nil {
		o.evicted = map[EvictOutcome]int{}
	}
	o.evicted[outcome]++
}
func (o *recordingObserver) Scrape(_ clock.Time, view []Pressure) {
	o.scrapes++
	o.lastView = append(o.lastView[:0], view...)
}

// TestObserverPurity: attaching an observer (with scrapes) changes the
// Result not at all, and the hooks see exactly the counts the Result
// reports.
func TestObserverPurity(t *testing.T) {
	h := 20 * clock.Millisecond
	cfg := Config{
		Nodes: 8, SlotsPerNode: 2, QueueLimit: 4,
		Costs: testCosts(), MeanReqs: 4,
		// Overloaded so rejections happen, storm so evictions happen.
		Arrivals: des.PoissonArrivals(23, 60_000, h),
		Horizon:  h, Seed: 23, Sched: Spread{},
		SnapshotAge: 100 * clock.Microsecond,
		EvictAt:     10 * clock.Millisecond, EvictNodes: 2, DownFor: 2 * clock.Millisecond,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	cfg.Observe = obs
	cfg.ScrapeEvery = 100 * clock.Microsecond
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observer changed the result:\n%+v\nvs\n%+v", plain, observed)
	}
	if obs.zeroIDs != 0 {
		t.Fatalf("%d completions carried the reserved zero request ID", obs.zeroIDs)
	}
	if obs.arrivals != observed.Arrived || obs.completed != observed.Completed ||
		obs.rejected != observed.Rejected {
		t.Fatalf("hooks saw %d/%d/%d arrivals/completions/rejections, result has %d/%d/%d",
			obs.arrivals, obs.completed, obs.rejected,
			observed.Arrived, observed.Completed, observed.Rejected)
	}
	warm, cold, requeued := obs.evicted[EvictWarm], obs.evicted[EvictCold], obs.evicted[EvictRequeued]
	if warm != observed.WarmRestores || cold != observed.ColdRedos ||
		warm+cold+requeued != observed.Evicted {
		t.Fatalf("eviction outcomes %d/%d/%d disagree with result %d/%d/%d evicted",
			warm, cold, requeued, observed.WarmRestores, observed.ColdRedos, observed.Evicted)
	}
	// One scrape per interval across the horizon, horizon tick included.
	if want := int(h / (100 * clock.Microsecond)); obs.scrapes != want {
		t.Fatalf("%d scrapes, want %d", obs.scrapes, want)
	}
	if len(obs.lastView) != cfg.Nodes {
		t.Fatalf("scrape view covers %d nodes, want %d", len(obs.lastView), cfg.Nodes)
	}
}

// TestRequestTracePurity: attaching a request recorder changes the
// Result not at all, every terminated request's segments obey the
// conservation law, and the recorded completion latencies are exactly
// the Result's latency sample.
func TestRequestTracePurity(t *testing.T) {
	h := 20 * clock.Millisecond
	cfg := Config{
		Nodes: 8, SlotsPerNode: 2, QueueLimit: 4,
		Costs: testCosts(), MeanReqs: 4,
		// Overloaded so rejections happen, storm so every eviction
		// path (warm, cold, requeue) shows up in the traces.
		Arrivals: des.PoissonArrivals(23, 60_000, h),
		Horizon:  h, Seed: 23, Sched: Spread{},
		SnapshotAge: 100 * clock.Microsecond,
		EvictAt:     10 * clock.Millisecond, EvictNodes: 2, DownFor: 2 * clock.Millisecond,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRequestRecorder()
	cfg.Requests = rec
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("request recorder changed the result:\n%+v\nvs\n%+v", plain, traced)
	}
	if rec.Len() != traced.Arrived {
		t.Fatalf("traced %d requests, %d arrived", rec.Len(), traced.Arrived)
	}
	var completes, rejects int
	var lats []clock.Time
	for _, id := range rec.Requests() {
		segs := rec.Segments(id)
		term, one := segs[len(segs)-1], true
		if !term.Terminal() {
			continue // still queued or running at the horizon
		}
		if _, one = rec.TerminalOf(id); !one {
			t.Fatalf("request %s has multiple terminals", id)
		}
		lat, err := trace.Conserve(segs)
		if err != nil {
			t.Fatalf("conservation: %v\nsegments: %+v", err, segs)
		}
		switch term.Kind {
		case trace.SegComplete:
			completes++
			lats = append(lats, lat)
		case trace.SegReject:
			rejects++
		}
	}
	if completes != traced.Completed || rejects != traced.Rejected {
		t.Fatalf("terminals %d complete / %d reject, result %d / %d",
			completes, rejects, traced.Completed, traced.Rejected)
	}
	// The conserved latencies are the Result's sample, value for value.
	want := append([]clock.Time(nil), traced.Latencies...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if !reflect.DeepEqual(lats, want) {
		t.Fatalf("traced latencies disagree with the result sample")
	}
	if traced.WarmRestores == 0 || traced.ColdRedos == 0 {
		t.Fatalf("scenario lost its storm coverage: %+v", traced)
	}
}

// TestGenerationCancellation: a displaced instance whose poisoned
// completion event fires after re-placement must terminate exactly
// once, at the re-placed completion — the stale event emits nothing.
func TestGenerationCancellation(t *testing.T) {
	h := 20 * clock.Millisecond
	arrivals := []des.Arrival{{At: 0, Seq: 0}} // ID 0: exercises the minting fallback
	for seed := uint64(0); seed < 64; seed++ {
		rec := trace.NewRequestRecorder()
		res, err := Run(Config{
			Nodes: 2, SlotsPerNode: 1, QueueLimit: 4,
			Costs: testCosts(), MeanReqs: 4,
			Arrivals: arrivals, Horizon: h, Seed: seed, Sched: BinPack{},
			// Mid-boot eviction, snapshot age out of reach: cold redo.
			SnapshotAge: clock.Time(1) << 40,
			EvictAt:     100 * clock.Microsecond, EvictNodes: 1, DownFor: h,
			Requests: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evicted == 0 {
			continue // the storm picked the idle node; try another seed
		}
		// The stale finish (boot+demand after the original start) fires
		// before the re-placed one (it started 100µs later): the books
		// must still show exactly one completion...
		if res.Completed != 1 || res.ColdRedos != 1 {
			t.Fatalf("seed %d: completed %d, cold redos %d, want 1/1: %+v",
				seed, res.Completed, res.ColdRedos, res)
		}
		id := rec.Requests()[0]
		segs := rec.Segments(id)
		// ...and the trace exactly one terminal segment.
		term, one := rec.TerminalOf(id)
		if !one || term.Kind != trace.SegComplete {
			t.Fatalf("seed %d: terminal = %+v (unique=%v)\nsegments: %+v", seed, term, one, segs)
		}
		lat, err := trace.Conserve(segs)
		if err != nil {
			t.Fatalf("seed %d: conservation: %v\nsegments: %+v", seed, err, segs)
		}
		if lat != res.Latencies[0] {
			t.Fatalf("seed %d: conserved latency %v, result %v", seed, lat, res.Latencies[0])
		}
		// The 100µs of pre-eviction boot shows up as storm tax.
		var redo clock.Time
		for _, s := range segs {
			if s.Kind == trace.SegStormRedo {
				redo += s.Dur
			}
		}
		if redo != 100*clock.Microsecond {
			t.Fatalf("seed %d: storm redo %v, want 100µs\nsegments: %+v", seed, redo, segs)
		}
		return
	}
	t.Fatal("no seed displaced the running instance in 64 tries")
}

// TestQuantileBoundaries pins Quantile's ceil-rank index semantics on
// small and large sample counts — the p999 extraction the fleet tables
// publish must pick the right order statistic, not round off the end.
func TestQuantileBoundaries(t *testing.T) {
	mk := func(n int) *Result {
		r := &Result{}
		// Latencies 1, 2, ..., n (given in reverse to exercise the sort).
		for i := n; i >= 1; i-- {
			r.Latencies = append(r.Latencies, clock.Time(i))
		}
		return r
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want clock.Time
	}{
		// One sample: every quantile is that sample.
		{1, 0.5, 1}, {1, 0.99, 1}, {1, 0.999, 1}, {1, 1, 1},
		// Two samples: the median is the 1st order statistic
		// (ceil(0.5*2) = 1), the tail quantiles the 2nd.
		{2, 0.5, 1}, {2, 0.99, 2}, {2, 0.999, 2},
		{3, 0.5, 2}, {3, 0.999, 3},
		{5, 0.5, 3}, {5, 0.99, 5},
		// 1000 samples: p99 = ceil(990), p999 = ceil(999) — distinct
		// order statistics, not both clamped to the max.
		{1000, 0.99, 990}, {1000, 0.999, 999}, {1000, 1, 1000},
		{100, 0.999, 100}, {101, 0.999, 101},
	} {
		if got := mk(tc.n).Quantile(tc.q); got != tc.want {
			t.Errorf("n=%d q=%g: got %d, want %d", tc.n, tc.q, int64(got), int64(tc.want))
		}
	}
	var empty Result
	if empty.Quantile(0.99) != 0 {
		t.Errorf("empty result quantile != 0")
	}
}
