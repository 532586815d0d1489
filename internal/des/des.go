// Package des is a small deterministic discrete-event simulator used to
// turn per-request service times (measured on the container simulator)
// into closed-loop throughput curves — the memtier-style experiment of
// Fig. 16, where N clients each keep one request outstanding against a
// server with a fixed worker count.
package des

import "repro/internal/clock"

// Sim is a discrete-event simulation run: a Queue of callbacks.
type Sim struct {
	now clock.Time
	q   Queue[func(now clock.Time)]
}

// Now returns the current simulation time.
func (s *Sim) Now() clock.Time { return s.now }

// At schedules fire at absolute time t (clamped to now).
func (s *Sim) At(t clock.Time, fire func(now clock.Time)) {
	if t < s.now {
		t = s.now
	}
	s.q.Push(t, fire)
}

// After schedules fire after delay d.
func (s *Sim) After(d clock.Time, fire func(now clock.Time)) {
	s.At(s.now+d, fire)
}

// Run processes events until the horizon (or the queue drains). Events
// past the horizon stay queued.
func (s *Sim) Run(horizon clock.Time) {
	for {
		at, ok := s.q.Peek()
		if !ok {
			return
		}
		if at > horizon {
			s.now = horizon
			return
		}
		var fire func(clock.Time)
		s.now, fire = s.q.Pop()
		fire(s.now)
	}
}

// ServiceModel yields the per-request service time as a function of the
// instantaneous backlog (coalescing makes loaded servers cheaper per
// request — the virtio suppression effect).
type ServiceModel func(backlog int) clock.Time

// ClosedLoop describes one Fig. 16-style experiment.
type ClosedLoop struct {
	// Clients each keep one request outstanding.
	Clients int
	// Workers is the server's concurrency (memcached: several threads;
	// redis: one).
	Workers int
	// RTT is the client↔server network round-trip plus client think
	// time.
	RTT clock.Time
	// Service maps backlog depth to per-request service time.
	Service ServiceModel
	// Horizon is the measured interval.
	Horizon clock.Time
}

// Throughput runs the closed loop and returns completed requests per
// (virtual) second and the mean response latency.
func (cl ClosedLoop) Throughput() (opsPerSec float64, meanLatency clock.Time) {
	s := &Sim{}
	type req struct {
		arrived clock.Time
	}
	var (
		queue     []req
		busy      int
		completed int
		totalLat  clock.Time
	)
	var dispatch func(now clock.Time)
	finish := func(r req) func(now clock.Time) {
		return func(now clock.Time) {
			busy--
			completed++
			totalLat += now - r.arrived
			// The client receives the response and, after RTT, sends
			// the next request.
			s.After(cl.RTT, func(now clock.Time) {
				queue = append(queue, req{arrived: now})
				dispatch(now)
			})
			dispatch(now)
		}
	}
	dispatch = func(now clock.Time) {
		for busy < cl.Workers && len(queue) > 0 {
			r := queue[0]
			queue = queue[1:]
			busy++
			// Backlog includes the request being served.
			st := cl.Service(len(queue) + 1)
			s.After(st, finish(r))
		}
	}
	// Prime: all clients send at t≈0 (staggered for determinism).
	for i := 0; i < cl.Clients; i++ {
		d := clock.Time(i) * clock.Microsecond / 8
		s.After(d, func(now clock.Time) {
			queue = append(queue, req{arrived: now})
			dispatch(now)
		})
	}
	s.Run(cl.Horizon)
	if completed == 0 {
		return 0, 0
	}
	return float64(completed) / cl.Horizon.Seconds(), totalLat / clock.Time(completed)
}

// SMPLoop is the multi-vCPU variant of ClosedLoop: the server spreads
// requests over VCPUs cores, and every completed request triggers TLB
// maintenance with probability 1/ShootdownEvery — the initiating vCPU
// stalls for ShootdownStall while every sibling loses RemoteStall to
// the flush-IPI handler. That contention term is what bends the
// scaling curve as the vCPU count grows: runtimes with expensive
// shootdowns flatten out first.
type SMPLoop struct {
	// Clients each keep one request outstanding.
	Clients int
	// VCPUs is the server's core count; each core serves one request at
	// a time.
	VCPUs int
	// RTT is the client↔server round trip plus think time.
	RTT clock.Time
	// Service maps backlog depth to per-request service time.
	Service ServiceModel
	// ShootdownEvery triggers one TLB shootdown every this many
	// completions (0 disables — the pure scaling baseline).
	ShootdownEvery int
	// ShootdownStall is the initiator-side latency per shootdown;
	// RemoteStall is what each sibling core loses to the IPI handler.
	ShootdownStall clock.Time
	RemoteStall    clock.Time
	// Horizon is the measured interval.
	Horizon clock.Time
	// Observe, when non-nil, is called once per completed request with
	// its response latency (arrival to completion). A pure observation
	// hook: it cannot influence the simulation, so attaching it changes
	// no result.
	Observe func(latency clock.Time)
}

// Throughput runs the loop and returns completed requests per virtual
// second, the mean response latency, and the shootdown count.
func (sl SMPLoop) Throughput() (opsPerSec float64, meanLatency clock.Time, shootdowns int) {
	s := &Sim{}
	type req struct {
		arrived clock.Time
	}
	nextFree := make([]clock.Time, sl.VCPUs)
	var (
		queue     []req
		completed int
		totalLat  clock.Time
	)
	var dispatch func(now clock.Time)
	dispatch = func(now clock.Time) {
		for len(queue) > 0 {
			// Earliest-free core, lowest ID on ties (deterministic).
			v := 0
			for i := 1; i < len(nextFree); i++ {
				if nextFree[i] < nextFree[v] {
					v = i
				}
			}
			r := queue[0]
			queue = queue[1:]
			start := now
			if nextFree[v] > start {
				start = nextFree[v]
			}
			st := sl.Service(len(queue) + 1)
			done := start + st
			nextFree[v] = done
			core := v
			s.At(done, func(now clock.Time) {
				completed++
				totalLat += now - r.arrived
				if sl.Observe != nil {
					sl.Observe(now - r.arrived)
				}
				if sl.ShootdownEvery > 0 && completed%sl.ShootdownEvery == 0 {
					shootdowns++
					nextFree[core] += sl.ShootdownStall
					for i := range nextFree {
						if i == core {
							continue
						}
						if nextFree[i] < now {
							nextFree[i] = now
						}
						nextFree[i] += sl.RemoteStall
					}
				}
				s.After(sl.RTT, func(now clock.Time) {
					queue = append(queue, req{arrived: now})
					dispatch(now)
				})
			})
		}
	}
	for i := 0; i < sl.Clients; i++ {
		d := clock.Time(i) * clock.Microsecond / 8
		s.After(d, func(now clock.Time) {
			queue = append(queue, req{arrived: now})
			dispatch(now)
		})
	}
	s.Run(sl.Horizon)
	if completed == 0 {
		return 0, 0, shootdowns
	}
	return float64(completed) / sl.Horizon.Seconds(), totalLat / clock.Time(completed), shootdowns
}
