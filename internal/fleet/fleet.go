package fleet

import (
	"fmt"
	"sort"

	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/trace"
)

// RuntimeCosts are the per-runtime machine truths the control plane
// schedules around, measured (not assumed) by booting real containers
// in the calibration pass: what a cold boot costs, what one request
// costs, and what a warm restore from a snapshot costs.
type RuntimeCosts struct {
	Boot        clock.Time
	Service     clock.Time
	WarmRestore clock.Time
	// ForkBoot is the cost of instantiating from a shared snapshot via
	// the fork-from-snapshot fast path (COW page sharing); used when
	// Config.ForkBoots selects the serverless churn arrival mode.
	ForkBoot clock.Time
}

// Config describes one fleet run.
type Config struct {
	// Nodes is the fleet size; SlotsPerNode is each node's concurrent
	// container capacity; QueueLimit bounds each node's start queue
	// (the admission-control knob: a placement that finds every
	// admittable queue full is rejected, which is the backpressure
	// signal under overload).
	Nodes        int
	SlotsPerNode int
	QueueLimit   int
	// Costs is the runtime's calibrated cost model.
	Costs RuntimeCosts
	// MeanReqs is the mean request count per container; per-container
	// demand is an exponential draw around it (seeded, deterministic).
	MeanReqs int
	// Arrivals is the open-loop arrival stream (Poisson, diurnal, or a
	// parsed rate trace), sorted by time; Horizon closes the
	// measurement window.
	Arrivals []des.Arrival
	Horizon  clock.Time
	// Seed drives the demand draws and the eviction choice.
	Seed uint64
	// Sched is the placement policy.
	Sched Scheduler
	// SnapshotAge: a running container older than this has a snapshot
	// and survives eviction warm (remaining demand preserved, restart
	// pays WarmRestore); younger ones restart cold from scratch.
	SnapshotAge clock.Time
	// EvictAt, when > 0, takes EvictNodes nodes down at that time for
	// DownFor — the restart storm: every running and queued container
	// on them re-enters the scheduler at once.
	EvictAt    clock.Time
	EvictNodes int
	DownFor    clock.Time
	// ForkBoots selects the serverless churn arrival mode: every
	// arrival instantiates by forking a node-resident snapshot
	// (Costs.ForkBoot, traced as a fork_boot segment) instead of cold
	// booting. Storm cold-redos re-fork too — losing a forked instance
	// never resurrects the cold-boot cost it avoided.
	ForkBoots bool
	// Observe, when non-nil, sees control-plane events as they happen
	// in virtual time; ScrapeEvery, when > 0, additionally invokes
	// Observe.Scrape with the node pressure view at every multiple of
	// that interval up to the horizon. Pure observation: attaching an
	// observer never changes the Result (a test pins this).
	Observe     Observer
	ScrapeEvery clock.Time
	// Requests, when non-nil, records every request's lifecycle as
	// causal virtual-time segments (arrival, queue, placement, boot or
	// warm restore, service, storm redo, terminal) keyed by the
	// RequestID minted at the arrival source. Like Observe it is pure:
	// attaching a recorder never changes the Result, and a nil recorder
	// costs nothing (a test pins both).
	Requests *trace.RequestRecorder
}

// EvictOutcome classifies how a displaced container instance re-enters
// the fleet during an eviction storm.
type EvictOutcome int

const (
	// EvictWarm: it was running with a snapshot old enough to restore
	// from — progress preserved, WarmRestore boot.
	EvictWarm EvictOutcome = iota
	// EvictCold: it was running but too young to have a snapshot — all
	// progress redone from scratch.
	EvictCold
	// EvictRequeued: it was still queued, so it just re-enters the
	// scheduler with nothing lost.
	EvictRequeued
)

var evictOutcomeNames = [...]string{"warm", "cold", "requeued"}

func (o EvictOutcome) String() string {
	if int(o) < len(evictOutcomeNames) {
		return evictOutcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Observer receives control-plane events as the fleet run executes.
// Implementations must be pure observers: they run on the fleet's
// virtual timeline but may not mutate fleet state or advance any
// clock, so the Result is byte-identical with or without one attached.
// The Pressure slice passed to Scrape is reused between calls; copy it
// to retain. (internal/telemetry.FleetProbe is the canonical
// implementation — fleet deliberately does not import it.)
type Observer interface {
	// Arrival: one open-loop arrival entered the system.
	Arrival(now clock.Time)
	// Completed: a container on node finished its demand; latency is
	// arrival to completion; id is the request's tracing identity (for
	// histogram exemplars linking buckets back to concrete traces).
	Completed(now clock.Time, node int, id trace.RequestID, latency clock.Time)
	// Rejected: admission control turned an arrival away.
	Rejected(now clock.Time)
	// Evicted: a storm displaced one container instance from node.
	Evicted(now clock.Time, node int, outcome EvictOutcome)
	// Scrape: the periodic telemetry sample point (every
	// Config.ScrapeEvery of virtual time).
	Scrape(now clock.Time, nodes []Pressure)
}

// NodeStat is one node's control-plane accounting.
type NodeStat struct {
	Node     int  `json:"node"`
	Starts   int  `json:"starts"`
	Requests int  `json:"requests"`
	Evicted  int  `json:"evicted"`
	MaxQueue int  `json:"max_queue"`
	Crashed  bool `json:"crashed,omitempty"`
}

// Result is the fleet run's outcome. Every arrival is exactly one of
// completed, rejected, queued, or running at the horizon — Conserve
// checks the law.
type Result struct {
	Arrived          int
	Completed        int
	Rejected         int
	QueuedAtHorizon  int
	RunningAtHorizon int
	// Evicted counts container instances displaced by a node going
	// down; WarmRestores of them resumed from a snapshot, ColdRedos
	// lost their progress.
	Evicted      int
	WarmRestores int
	ColdRedos    int
	// MaxQueue is the deepest any node's queue got.
	MaxQueue int
	// TotalQueueWait sums time spent queued before starting.
	TotalQueueWait clock.Time
	// Latencies holds one arrival-to-completion latency per completed
	// container, in completion order.
	Latencies []clock.Time
	Nodes     []NodeStat

	sorted []clock.Time
}

// Conserve verifies arrival conservation and returns an error naming
// the leak if the books don't balance.
func (r *Result) Conserve() error {
	got := r.Completed + r.Rejected + r.QueuedAtHorizon + r.RunningAtHorizon
	if got != r.Arrived {
		return fmt.Errorf("fleet: conservation broken: %d arrived, %d accounted (%d completed + %d rejected + %d queued + %d running)",
			r.Arrived, got, r.Completed, r.Rejected, r.QueuedAtHorizon, r.RunningAtHorizon)
	}
	return nil
}

// Quantile returns the q-th latency quantile (0 < q <= 1) over
// completed containers, 0 when nothing completed. Exact: computed from
// the full sorted sample, not an approximation sketch.
func (r *Result) Quantile(q float64) clock.Time {
	if len(r.Latencies) == 0 {
		return 0
	}
	if r.sorted == nil {
		r.sorted = append([]clock.Time(nil), r.Latencies...)
		sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i] < r.sorted[j] })
	}
	idx := int(q*float64(len(r.sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.sorted) {
		idx = len(r.sorted) - 1
	}
	return r.sorted[idx]
}

// MeanLatency is the mean arrival-to-completion latency.
func (r *Result) MeanLatency() clock.Time {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum clock.Time
	for _, l := range r.Latencies {
		sum += l
	}
	return sum / clock.Time(len(r.Latencies))
}

// Goodput is completions per virtual second over the horizon.
func (r *Result) Goodput(horizon clock.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(r.Completed) / horizon.Seconds()
}

// Run executes the fleet control-plane simulation: open-loop arrivals
// are placed by the scheduler over the node pressure view, queue on
// their node until a slot frees, run for boot + demand, and complete.
// Everything is a pure function of the config, so the same config
// yields the same Result — byte for byte — regardless of host
// parallelism (the run touches no shared state). Arrivals at or past
// the horizon are ignored; unsorted arrivals are an error.
func Run(cfg Config) (*Result, error) {
	if cfg.Nodes <= 0 || cfg.SlotsPerNode <= 0 {
		return nil, fmt.Errorf("fleet: need nodes and slots, got %d x %d", cfg.Nodes, cfg.SlotsPerNode)
	}
	if cfg.Sched == nil {
		return nil, fmt.Errorf("fleet: no scheduler")
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 16
	}
	if cfg.MeanReqs <= 0 {
		cfg.MeanReqs = 8
	}
	if cfg.Costs.Service <= 0 {
		return nil, fmt.Errorf("fleet: non-positive service cost")
	}
	if cfg.ForkBoots && cfg.Costs.ForkBoot <= 0 {
		return nil, fmt.Errorf("fleet: churn mode needs a positive fork-boot cost")
	}
	// The arrivals stream through a cursor merged with the event queue,
	// so they must come in time order, none before the run starts.
	arrived := len(cfg.Arrivals)
	var prev clock.Time
	for i, a := range cfg.Arrivals {
		if a.At < prev {
			return nil, fmt.Errorf("fleet: arrival %d at %v is before %v: arrivals must be sorted by time from 0", i, a.At, prev)
		}
		prev = a.At
		if a.At >= cfg.Horizon && arrived == len(cfg.Arrivals) {
			arrived = i
		}
	}
	e := newEngine(cfg, arrived)
	e.run()
	res := e.res
	for i := range e.nodes {
		n := &e.nodes[i]
		res.QueuedAtHorizon += n.queued()
		res.RunningAtHorizon += len(n.running)
		res.Nodes = append(res.Nodes, NodeStat{
			Node: n.id, Starts: n.Starts, Requests: n.Requests,
			Evicted: n.Evicted, MaxQueue: n.MaxQueue, Crashed: n.Crashed,
		})
	}
	if err := res.Conserve(); err != nil {
		return nil, err
	}
	return res, nil
}

// evKind tags a control-plane event.
type evKind uint8

const (
	evFinish  evKind = iota // an instance's run on a node ends
	evStorm                 // the eviction victims go down
	evRestore               // the victims come back up
	evScrape                // a telemetry sample point
)

// event is one queued control-plane occurrence. Arrivals never enter
// the queue: they stream from the sorted Config.Arrivals.
type event struct {
	kind evKind
	// node (0-based), inst (slab index) and gen identify a finish.
	node int32
	inst int32
	gen  int32
}

// engine is one fleet run's state.
type engine struct {
	cfg   Config
	res   *Result
	q     des.Queue[event]
	nodes []SimNode
	// view is the scheduler's pressure view, kept current entry by entry.
	view []Pressure
	// insts is the instance slab: one entry per arrival before the
	// horizon, filled in order as they fire.
	insts []instance
	// demandRng draws per-container demands; the eviction choice has its
	// own generator, so adding an eviction never perturbs them.
	demandRng *des.Rand
	// victims are the storm's node IDs, ascending.
	victims []int
	// arrivalBoot is how a fresh instance (an arrival, or a storm
	// cold-redo) comes up in this run's arrival mode.
	arrivalBoot     clock.Time
	arrivalBootKind string
	// rec is the request-trace sink; a nil *RequestRecorder is a valid
	// no-op, so every emission is unconditional.
	rec *trace.RequestRecorder
}

func newEngine(cfg Config, arrived int) *engine {
	e := &engine{
		cfg:             cfg,
		res:             &Result{Nodes: make([]NodeStat, 0, cfg.Nodes)},
		nodes:           make([]SimNode, cfg.Nodes),
		view:            make([]Pressure, cfg.Nodes),
		insts:           make([]instance, arrived),
		demandRng:       des.NewRand(cfg.Seed),
		arrivalBoot:     cfg.Costs.Boot,
		arrivalBootKind: trace.SegBoot,
		rec:             cfg.Requests,
	}
	if cfg.ForkBoots {
		e.arrivalBoot, e.arrivalBootKind = cfg.Costs.ForkBoot, trace.SegForkBoot
	}
	if arrived > 0 {
		e.res.Latencies = make([]clock.Time, 0, arrived)
	}
	// Node IDs are 1-based, matching container IDs: ID 0 means "no
	// node" everywhere a node label can be absent (spans, metrics). A
	// node never runs more than its slots, and a well-behaved scheduler
	// never queues past the admission bound, so every node's running
	// set and queue are carved from two shared arrays.
	slots, limit := cfg.SlotsPerNode, cfg.QueueLimit
	running := make([]int32, cfg.Nodes*slots)
	queue := make([]int32, cfg.Nodes*limit)
	for i := range e.nodes {
		e.nodes[i] = SimNode{
			id: i + 1, slots: slots, queueLimit: limit,
			running: running[i*slots : i*slots : (i+1)*slots],
			queue:   queue[i*limit : i*limit : (i+1)*limit],
		}
		e.sync(i)
	}
	return e
}

// run drains the arrival stream and the event queue up to the horizon.
// An arrival wins a tie with any queued event at an equal time, as if
// every arrival had been queued before anything else.
func (e *engine) run() {
	e.schedule()
	// At most one live finish per slot is in flight.
	e.q.Grow(e.cfg.Nodes * e.cfg.SlotsPerNode)
	next := 0
	for {
		at, ok := e.q.Peek()
		if next < len(e.insts) && (!ok || e.cfg.Arrivals[next].At <= at) {
			e.arrive(next)
			next++
			continue
		}
		if !ok || at > e.cfg.Horizon {
			return
		}
		now, ev := e.q.Pop()
		switch ev.kind {
		case evFinish:
			e.finish(int(ev.node), ev.inst, ev.gen, now)
		case evStorm:
			e.storm(now)
		case evRestore:
			for _, id := range e.victims {
				e.nodes[id-1].down = false
				e.sync(id - 1)
			}
		case evScrape:
			e.cfg.Observe.Scrape(now, e.view)
		}
	}
}

// schedule queues the storm, its end and the telemetry scrape points.
// Scrapes come after the storm, so at an equal timestamp a scrape
// samples the state the storm left behind; the hooks are pure, so this
// changes nothing measured.
func (e *engine) schedule() {
	cfg := e.cfg
	// The eviction storm: EvictNodes seeded-chosen nodes go down at
	// EvictAt; every container on them re-enters the scheduler at
	// once.
	if cfg.EvictAt > 0 && cfg.EvictNodes > 0 {
		evictRng := des.NewRand(cfg.Seed ^ 0xe51c7e51c7)
		taken := make(map[int]bool, cfg.EvictNodes)
		for len(e.victims) < cfg.EvictNodes && len(e.victims) < cfg.Nodes {
			id := 1 + int(evictRng.Uint64()%uint64(cfg.Nodes))
			if !taken[id] {
				taken[id] = true
				e.victims = append(e.victims, id)
			}
		}
		sort.Ints(e.victims)
		e.q.Push(cfg.EvictAt, event{kind: evStorm})
		if cfg.DownFor > 0 {
			e.q.Push(cfg.EvictAt+cfg.DownFor, event{kind: evRestore})
		}
	}
	if cfg.Observe != nil && cfg.ScrapeEvery > 0 {
		for t := cfg.ScrapeEvery; t <= cfg.Horizon; t += cfg.ScrapeEvery {
			e.q.Push(t, event{kind: evScrape})
		}
	}
}

// sync refreshes node k's entry in the pressure view.
func (e *engine) sync(k int) { e.view[k] = e.nodes[k].Pressure() }

// emitTimed records a timed request segment, skipping empty intervals
// so waterfalls stay clean without breaking the tiling the
// conservation law checks. Timed segments (queue, boot, service, redo)
// are emitted retrospectively once their end is known.
func (e *engine) emitTimed(id trace.RequestID, kind string, at, dur clock.Time, node int) {
	if dur > 0 {
		e.rec.Emit(id, kind, at, dur, node, "")
	}
}

// arrive fires arrival i: its demand is drawn here, in arrival order,
// which keeps the stream independent of placement.
func (e *engine) arrive(i int) {
	a := e.cfg.Arrivals[i]
	reqs := 1 + int(e.demandRng.ExpFloat64()*float64(e.cfg.MeanReqs))
	if max := 8 * e.cfg.MeanReqs; reqs > max {
		reqs = max
	}
	id := a.ID
	if id == 0 {
		// Hand-built arrival streams (tests, closed fixtures) carry
		// no minted ID; derive the same stable identity they would
		// have gotten at the source.
		id = trace.MintRequestID(e.cfg.Seed, a.Seq)
	}
	e.insts[i] = instance{
		id:        id,
		arrivedAt: a.At,
		boot:      e.arrivalBoot,
		demand:    clock.Time(reqs) * e.cfg.Costs.Service,
		reqs:      reqs,
		bootKind:  e.arrivalBootKind,
	}
	e.res.Arrived++
	e.rec.Emit(id, trace.SegArrival, a.At, 0, 0, "")
	if e.cfg.Observe != nil {
		e.cfg.Observe.Arrival(a.At)
	}
	e.place(int32(i), a.At)
}

// place hands instance i to the scheduler: it starts, queues, or is
// rejected.
func (e *engine) place(i int32, now clock.Time) {
	inst := &e.insts[i]
	id, ok := e.cfg.Sched.Place(e.view)
	if !ok {
		e.res.Rejected++
		e.rec.Emit(inst.id, trace.SegReject, now, 0, 0, "")
		if e.cfg.Observe != nil {
			e.cfg.Observe.Rejected(now)
		}
		return
	}
	n := &e.nodes[id-1]
	if len(n.running) < n.slots {
		e.rec.Emit(inst.id, trace.SegPlacement, now, 0, n.id, "started")
		e.start(id-1, i, now)
		return
	}
	e.rec.Emit(inst.id, trace.SegPlacement, now, 0, n.id, "queued")
	inst.enqueuedAt = now
	n.enqueue(i)
	q := n.queued()
	if q > n.MaxQueue {
		n.MaxQueue = q
	}
	if q > e.res.MaxQueue {
		e.res.MaxQueue = q
	}
	e.sync(id - 1)
}

// start runs instance i on node k and queues its finish.
func (e *engine) start(k int, i int32, now clock.Time) {
	n, inst := &e.nodes[k], &e.insts[i]
	inst.startedAt = now
	n.running = append(n.running, i)
	n.Starts++
	n.Requests += inst.reqs
	e.q.Push(now+inst.boot+inst.demand, event{kind: evFinish, node: int32(k), inst: i, gen: inst.gen})
	e.sync(k)
}

// finish completes instance i on node k unless an eviction superseded
// the run that queued this event, then starts the node's next queued
// instance.
func (e *engine) finish(k int, i int32, gen int32, now clock.Time) {
	n, inst := &e.nodes[k], &e.insts[i]
	if inst.gen != gen {
		return // superseded by an eviction requeue
	}
	n.removeRunning(i)
	e.res.Completed++
	e.res.Latencies = append(e.res.Latencies, now-inst.arrivedAt)
	e.emitTimed(inst.id, inst.bootKind, inst.startedAt, inst.boot, n.id)
	e.emitTimed(inst.id, trace.SegService, inst.startedAt+inst.boot, now-(inst.startedAt+inst.boot), n.id)
	e.rec.Emit(inst.id, trace.SegComplete, now, 0, n.id, "")
	if e.cfg.Observe != nil {
		e.cfg.Observe.Completed(now, n.id, inst.id, now-inst.arrivedAt)
	}
	if n.queued() > 0 {
		j := n.dequeue()
		next := &e.insts[j]
		e.res.TotalQueueWait += now - next.enqueuedAt
		e.emitTimed(next.id, trace.SegQueue, next.enqueuedAt, now-next.enqueuedAt, n.id)
		e.start(k, j, now)
		return
	}
	e.sync(k)
}

// storm takes the victims down one by one. Every container on a victim
// re-enters the scheduler at once: snapshot-aged ones restore warm
// (remaining demand preserved, WarmRestore boot), young ones redo from
// scratch, queued ones just requeue.
func (e *engine) storm(now clock.Time) {
	cfg := e.cfg
	var displaced []int32
	for _, id := range e.victims {
		n := &e.nodes[id-1]
		n.down = true
		n.Crashed = true
		displaced = append(append(displaced[:0], n.running...), n.queue[n.qhead:]...)
		running := len(n.running)
		n.running = n.running[:0]
		n.queue, n.qhead = n.queue[:0], 0
		e.sync(id - 1)
		for d, i := range displaced {
			inst := &e.insts[i]
			n.Evicted++
			e.res.Evicted++
			outcome := EvictRequeued
			if d < running {
				// Was running: decide warm vs cold by snapshot age.
				elapsed := now - inst.startedAt
				ran := elapsed - inst.boot
				if ran < 0 {
					ran = 0
				}
				if elapsed >= cfg.SnapshotAge && cfg.Costs.WarmRestore > 0 {
					e.res.WarmRestores++
					outcome = EvictWarm
					if elapsed < inst.boot {
						// Displaced mid-boot: the partial boot
						// is wasted (the restore replaces it).
						e.emitTimed(inst.id, trace.SegStormRedo, inst.startedAt, elapsed, id)
					} else {
						// The finished boot and the service the
						// snapshot preserves counted toward
						// completion; only work past the
						// preservation point is redone.
						e.emitTimed(inst.id, inst.bootKind, inst.startedAt, inst.boot, id)
						preserved := ran
						if ran >= inst.demand {
							preserved = inst.demand - cfg.Costs.Service // final request redone
							if preserved < 0 {
								preserved = 0
							}
						}
						e.emitTimed(inst.id, trace.SegService, inst.startedAt+inst.boot, preserved, id)
						e.emitTimed(inst.id, trace.SegStormRedo, inst.startedAt+inst.boot+preserved, ran-preserved, id)
					}
					inst.boot = cfg.Costs.WarmRestore
					inst.bootKind = trace.SegWarmRestore
					if ran < inst.demand {
						inst.demand -= ran
					} else {
						inst.demand = cfg.Costs.Service // final request redone
					}
				} else {
					e.res.ColdRedos++
					outcome = EvictCold
					// Redone from scratch: everything since the
					// start — boot included — is storm tax.
					e.emitTimed(inst.id, trace.SegStormRedo, inst.startedAt, elapsed, id)
					inst.boot = e.arrivalBoot
					inst.bootKind = e.arrivalBootKind
					inst.demand = clock.Time(inst.reqs) * cfg.Costs.Service
				}
				inst.gen++ // poison the in-flight completion
			} else {
				e.emitTimed(inst.id, trace.SegQueue, inst.enqueuedAt, now-inst.enqueuedAt, id)
			}
			e.rec.Emit(inst.id, trace.SegEvict, now, 0, id, outcome.String())
			if cfg.Observe != nil {
				cfg.Observe.Evicted(now, id, outcome)
			}
			e.place(i, now)
		}
	}
}
