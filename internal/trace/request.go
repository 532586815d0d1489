package trace

// Per-request causal tracing: where Span decomposes one machine flow
// (a syscall, a shootdown) into phases, a request trace decomposes one
// fleet request's whole life — arrival, queueing, placement, boot or
// warm restore, service, storm-induced redo — into Segments that tile
// the request's end-to-end latency exactly. Every segment carries the
// RequestID minted at the DES arrival source and a parent link to its
// causal predecessor, so a tail-latency report can say not just that
// p999 blew up but which concrete request paid for it and where.

import (
	"fmt"
	"strconv"

	"repro/internal/clock"
	"repro/internal/wire"
)

// RequestID is the stable identity of one open-loop request, minted at
// the DES arrival source (MintRequestID) and propagated unchanged
// through admission, queueing, placement, service, eviction, and
// re-placement. Zero means "no request" everywhere an ID can be absent.
type RequestID uint64

// String renders the ID as the fixed-width hex the artifacts and CLIs
// use (ckitrace -request parses it back).
func (id RequestID) String() string {
	return fmt.Sprintf("%016x", uint64(id))
}

// ParseRequestID parses the hex rendering of String.
func ParseRequestID(s string) (RequestID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad request id %q: %w", s, err)
	}
	if v == 0 {
		return 0, fmt.Errorf("trace: request id 0 is reserved")
	}
	return RequestID(v), nil
}

// MintRequestID derives the request ID from the arrival stream's seed
// and the arrival's sequence number — an FNV-64a fold, so the ID is a
// pure function of the stream (byte-identical across runs and host
// parallelism) yet distinct streams do not collide on small sequence
// numbers. Never returns zero.
func MintRequestID(seed uint64, seq int) RequestID {
	h := wire.Fold(wire.Fold(wire.Offset64, seed), uint64(int64(seq)))
	if h == 0 {
		h = 1
	}
	return RequestID(h)
}

// Segment kinds. Timed kinds (non-zero Dur) tile the request's life
// with no gaps or overlaps, so their durations sum exactly to the
// end-to-end latency; marker kinds are zero-duration lifecycle events.
const (
	// SegArrival is the root marker: the request entered the system.
	SegArrival = "arrival"
	// SegQueue is time spent waiting in a node's start queue.
	SegQueue = "queue"
	// SegPlacement is the scheduler's decision point (instantaneous in
	// the control-plane model): Node is the chosen node, Outcome is
	// "started" or "queued".
	SegPlacement = "placement"
	// SegBoot is a cold container boot that counted toward completion.
	SegBoot = "boot"
	// SegWarmRestore is a warm restore from a snapshot after an
	// eviction.
	SegWarmRestore = "warm_restore"
	// SegForkBoot is a fork-from-snapshot instantiation (the serverless
	// churn arrival mode): COW page sharing instead of a cold boot.
	SegForkBoot = "fork_boot"
	// SegService is service time preserved toward completion.
	SegService = "service"
	// SegStormRedo is run time (boot or service) an eviction threw
	// away — the storm tax paid in redone work.
	SegStormRedo = "storm_redo"
	// SegEvict marks a storm displacement; Outcome is the
	// fleet.EvictOutcome name (warm, cold, requeued).
	SegEvict = "evict"
	// SegReject is the terminal marker of an admission rejection.
	SegReject = "reject"
	// SegComplete is the terminal marker of a completion.
	SegComplete = "complete"
)

// Segment is one closed piece of a request's life. ID and Parent index
// into the request's own segment list (Parent -1 = root); because a
// request's lifecycle is causal, the parent of each segment is simply
// the segment recorded before it, forming a chain from arrival to the
// terminal marker.
type Segment struct {
	Req     RequestID  `json:"req"`
	ID      int        `json:"id"`
	Parent  int        `json:"parent"`
	Kind    string     `json:"kind"`
	At      clock.Time `json:"at"`
	Dur     clock.Time `json:"dur"`
	Node    int        `json:"node,omitempty"`
	Outcome string     `json:"outcome,omitempty"`
}

// Terminal reports whether the segment ends the request's life.
func (s Segment) Terminal() bool {
	return s.Kind == SegComplete || s.Kind == SegReject
}

// Timed reports whether the segment consumes request latency (its Dur
// participates in the conservation law).
func (s Segment) Timed() bool {
	switch s.Kind {
	case SegQueue, SegBoot, SegWarmRestore, SegForkBoot, SegService, SegStormRedo:
		return true
	}
	return false
}

// requestLog is one request's segments in causal (recording) order.
type requestLog struct {
	id   RequestID
	segs []Segment
}

// RequestRecorder collects per-request lifecycle segments. A nil
// *RequestRecorder is a valid no-op recorder, and no method ever reads
// or advances a clock — timestamps come from the caller's virtual
// timeline — so attaching one never changes what it observes.
type RequestRecorder struct {
	byReq map[RequestID]int
	reqs  []requestLog
}

// NewRequestRecorder creates an empty recorder.
func NewRequestRecorder() *RequestRecorder {
	return &RequestRecorder{byReq: map[RequestID]int{}}
}

// Emit appends one segment to req's trace and returns its index within
// the request. The parent link is the request's previously recorded
// segment (-1 for the first), which is exactly the causal predecessor
// for a sequential lifecycle. On a nil recorder it returns -1.
func (r *RequestRecorder) Emit(req RequestID, kind string, at, dur clock.Time, node int, outcome string) int {
	if r == nil {
		return -1
	}
	li, ok := r.byReq[req]
	if !ok {
		li = len(r.reqs)
		r.byReq[req] = li
		r.reqs = append(r.reqs, requestLog{id: req})
	}
	l := &r.reqs[li]
	id := len(l.segs)
	l.segs = append(l.segs, Segment{
		Req: req, ID: id, Parent: id - 1,
		Kind: kind, At: at, Dur: dur, Node: node, Outcome: outcome,
	})
	return id
}

// Requests returns every traced RequestID in first-seen order (a
// copy) — deterministic for a deterministic workload.
func (r *RequestRecorder) Requests() []RequestID {
	if r == nil {
		return nil
	}
	out := make([]RequestID, len(r.reqs))
	for i := range r.reqs {
		out[i] = r.reqs[i].id
	}
	return out
}

// Segments returns req's segments in causal order (a copy), nil when
// the request was never seen.
func (r *RequestRecorder) Segments(req RequestID) []Segment {
	if r == nil {
		return nil
	}
	li, ok := r.byReq[req]
	if !ok {
		return nil
	}
	return append([]Segment(nil), r.reqs[li].segs...)
}

// Len reports the number of traced requests.
func (r *RequestRecorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.reqs)
}

// TerminalOf returns the request's terminal segment and true when the
// trace holds exactly one terminal (the well-formedness the fleet's
// generation counters guarantee: a stale completion after re-placement
// must not double-terminate).
func (r *RequestRecorder) TerminalOf(req RequestID) (Segment, bool) {
	var term Segment
	n := 0
	for _, s := range r.Segments(req) {
		if s.Terminal() {
			term = s
			n++
		}
	}
	return term, n == 1
}

// Conserve checks the conservation law on one request's segments: the
// timed segments must tile [arrival, terminal] back to back — each
// starting where its predecessor ended, summing exactly to the
// end-to-end latency. It returns the latency on success and an error
// naming the first violation otherwise. Rejected requests conserve
// trivially (zero latency, no timed segments after the reject).
func Conserve(segs []Segment) (clock.Time, error) {
	if len(segs) == 0 {
		return 0, fmt.Errorf("trace: empty request trace")
	}
	if segs[0].Kind != SegArrival {
		return 0, fmt.Errorf("trace: request %s: first segment is %q, not arrival", segs[0].Req, segs[0].Kind)
	}
	var term *Segment
	cursor := segs[0].At
	var sum clock.Time
	for i := range segs {
		s := &segs[i]
		if s.Parent != i-1 {
			return 0, fmt.Errorf("trace: request %s: segment %d parent %d breaks the causal chain", s.Req, s.ID, s.Parent)
		}
		if s.Terminal() {
			if term != nil {
				return 0, fmt.Errorf("trace: request %s: two terminal segments (%s at %v, %s at %v)",
					s.Req, term.Kind, term.At, s.Kind, s.At)
			}
			term = s
		}
		if !s.Timed() {
			continue
		}
		if s.At != cursor {
			return 0, fmt.Errorf("trace: request %s: %s segment starts at %v, previous work ended at %v",
				s.Req, s.Kind, s.At, cursor)
		}
		cursor = s.At + s.Dur
		sum += s.Dur
	}
	if term == nil {
		return 0, fmt.Errorf("trace: request %s: no terminal segment", segs[0].Req)
	}
	if term.Kind == SegComplete {
		if lat := term.At - segs[0].At; lat != sum {
			return 0, fmt.Errorf("trace: request %s: segments sum to %v, end-to-end latency is %v",
				segs[0].Req, sum, lat)
		}
		if term.At != cursor {
			return 0, fmt.Errorf("trace: request %s: completion at %v but last work ended at %v",
				segs[0].Req, term.At, cursor)
		}
	}
	return sum, nil
}
