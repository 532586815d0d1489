package fleet

import (
	"fmt"
	"sort"
	"strings"
)

// Scheduler picks a node for one container start given the current
// per-node pressure view, or reports that no node can admit it (the
// backpressure signal: the arrival is rejected, not queued forever).
// Implementations must be pure functions of the view so placement is
// deterministic, and must not modify it: the view is the control
// plane's live copy, updated in place as node state changes.
type Scheduler interface {
	Name() string
	Place(view []Pressure) (node int, ok bool)
}

// BinPack fills nodes in ID order: the first node with a free slot
// wins, then the first with queue headroom. Packing concentrates load
// so the tail of the fleet idles — high per-node utilization, but a
// deep queue on the packed prefix once slots run out, and a wide
// blast radius when a packed node is evicted.
type BinPack struct{}

// Name implements Scheduler.
func (BinPack) Name() string { return "binpack" }

// Place implements Scheduler.
func (BinPack) Place(view []Pressure) (int, bool) {
	for _, p := range view {
		if !p.Down && p.Free() > 0 {
			return p.Node, true
		}
	}
	for _, p := range view {
		if p.Admittable() {
			return p.Node, true
		}
	}
	return 0, false
}

// Spread balances load: the node with the most free slots wins (ties:
// shortest queue, then lowest ID), falling back to the shortest
// admittable queue. Spreading flattens per-node pressure, keeps queue
// depth — and therefore start-latency tails — low, and confines an
// eviction to 1/N of the fleet's work.
type Spread struct{}

// Name implements Scheduler.
func (Spread) Name() string { return "spread" }

// Place implements Scheduler.
func (Spread) Place(view []Pressure) (int, bool) {
	best, bestOK := 0, false
	var bestP Pressure
	for _, p := range view {
		if p.Down || p.Free() <= 0 {
			continue
		}
		if !bestOK || p.Free() > bestP.Free() ||
			(p.Free() == bestP.Free() && p.Queued < bestP.Queued) {
			best, bestP, bestOK = p.Node, p, true
		}
	}
	if bestOK {
		return best, true
	}
	for _, p := range view {
		if !p.Admittable() {
			continue
		}
		if !bestOK || p.Queued < bestP.Queued {
			best, bestP, bestOK = p.Node, p, true
		}
	}
	return best, bestOK
}

// schedulers is the registry of named schedulers.
var schedulers = map[string]Scheduler{
	"binpack": BinPack{},
	"spread":  Spread{},
}

// SchedulerNames returns the sorted registry (the -sched flag's
// vocabulary).
func SchedulerNames() []string {
	out := make([]string, 0, len(schedulers))
	for n := range schedulers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SchedulerByName resolves a -sched flag value.
func SchedulerByName(name string) (Scheduler, error) {
	if s, ok := schedulers[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("fleet: unknown scheduler %q (have %s)",
		name, strings.Join(SchedulerNames(), ", "))
}
