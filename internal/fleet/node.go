// Package fleet is the datacenter layer above "machine": an
// orchestrator that places thousands of short-lived secure containers
// across a fleet of simulated nodes on the shared virtual clock,
// driven by an open-loop heavy-traffic arrival model (internal/des)
// instead of the closed loop the single-machine experiments use.
//
// The control plane is split from the data plane the way a container
// daemon splits its scheduler from its runtimes: placement, queueing,
// admission control, and eviction run in one deterministic
// discrete-event simulation over cheap value-style node states, while
// per-node machine truth — real guest kernels booting, serving, and
// warm-restarting under the supervisor — is replayed per node on a
// MachineNode. Because every node's machine is a fully isolated
// simulation, replay shards across host cores (one node per worker)
// and streams per-node artifacts instead of holding the whole fleet in
// memory.
package fleet

import (
	"repro/internal/clock"
	"repro/internal/trace"
)

// Pressure is a node's load signal as the scheduler sees it: how many
// container slots exist, how many are running, how deep the start
// queue is, and whether the node is down (evicted, draining). The
// control plane updates a node's entry whenever its running, queued or
// down state changes, so schedulers act on current — not stale — state.
type Pressure struct {
	Node       int
	Slots      int
	Running    int
	Queued     int
	QueueLimit int
	Down       bool
}

// Free reports available container slots.
func (p Pressure) Free() int { return p.Slots - p.Running }

// Load is the node's total committed work (running + queued).
func (p Pressure) Load() int { return p.Running + p.Queued }

// Admittable reports whether the node can accept one more container
// (a free slot, or queue headroom under the admission bound).
func (p Pressure) Admittable() bool {
	if p.Down {
		return false
	}
	return p.Running < p.Slots || p.Queued < p.QueueLimit
}

// instance is one placed container's control-plane state. A run keeps
// its instances in one slab indexed by arrival; nodes and events refer
// to them by that index.
type instance struct {
	// id is the request's causal-tracing identity, minted at the DES
	// arrival source and carried unchanged across evictions.
	id trace.RequestID
	// arrivedAt is the original arrival time; latency is measured from
	// here even across evictions and restarts.
	arrivedAt clock.Time
	// enqueuedAt is when the instance last entered a node queue.
	enqueuedAt clock.Time
	// startedAt is when it last began running (boot included).
	startedAt clock.Time
	// boot is the start cost to pay (cold boot, or warm restore after
	// an eviction); demand is the remaining run time after boot.
	// bootKind names boot for the request trace (trace.SegBoot or
	// trace.SegWarmRestore).
	boot     clock.Time
	demand   clock.Time
	bootKind string
	// reqs is the request count backing demand (the replay work list).
	reqs int
	// gen invalidates the in-flight completion event after an
	// eviction (the event queue has no cancellation): the event carries
	// gen at start and fires only if it still matches.
	gen int32
}

// SimNode is the control plane's value-style node: slot and queue
// accounting only, no machine behind it. It is deliberately cheap —
// a 50-node fleet is 50 of these, not 50 machines — so the placement
// DES can run far larger fleets than the replay stage ever boots.
type SimNode struct {
	id         int
	slots      int
	queueLimit int
	// running and queue hold instance slab indices in start and arrival
	// order; the queue's live part is queue[qhead:], so a dequeue does
	// not reslice away the backing array.
	running []int32
	queue   []int32
	qhead   int
	down    bool

	// Stats accumulated for the per-node report.
	Starts   int
	Requests int
	Evicted  int
	MaxQueue int
	Crashed  bool
}

// Pressure is the node's current load signal.
func (n *SimNode) Pressure() Pressure {
	return Pressure{
		Node:       n.id,
		Slots:      n.slots,
		Running:    len(n.running),
		Queued:     n.queued(),
		QueueLimit: n.queueLimit,
		Down:       n.down,
	}
}

// queued is the start queue's depth.
func (n *SimNode) queued() int { return len(n.queue) - n.qhead }

// enqueue appends inst to the start queue, first sliding the live part
// to the front when the backing array is full, so a queue that stays
// within its high-water mark never reallocates.
func (n *SimNode) enqueue(inst int32) {
	if len(n.queue) == cap(n.queue) && n.qhead > 0 {
		n.queue = n.queue[:copy(n.queue, n.queue[n.qhead:])]
		n.qhead = 0
	}
	n.queue = append(n.queue, inst)
}

// dequeue removes and returns the queue's head; the queue must be
// non-empty.
func (n *SimNode) dequeue() int32 {
	inst := n.queue[n.qhead]
	n.qhead++
	if n.qhead == len(n.queue) {
		n.queue, n.qhead = n.queue[:0], 0
	}
	return inst
}

// removeRunning drops inst from the running set, keeping start order.
func (n *SimNode) removeRunning(inst int32) {
	for i, r := range n.running {
		if r == inst {
			n.running = append(n.running[:i], n.running[i+1:]...)
			return
		}
	}
}
