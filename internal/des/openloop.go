// Open-loop traffic: the heavy-traffic arrival model of the fleet
// layer. The closed-loop models above (ClosedLoop, SMPLoop) assume a
// fixed client population that waits for responses — fine for one
// machine, wrong for a datacenter front door, where millions of users
// submit work with no regard for how loaded the service is. Open-loop
// arrivals decouple offered load from completion rate, which is what
// makes overload a real state: work queues, waits, and — past the
// admission bound — is rejected rather than absorbed invisibly.
//
// Every generator here is a pure function of its seed, so two runs
// produce byte-identical arrival sequences — the property the fleet
// experiment's committed artifacts depend on.
package des

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/clock"
	"repro/internal/trace"
)

// Arrival is one open-loop request arrival: a unit of work (for the
// fleet layer, one secure-container instance to place and run) entering
// the system at a time the system does not control. ID is the request's
// stable causal-tracing identity, minted here at the source — a pure
// function of (seed, Seq) — and propagated unchanged through every
// downstream lifecycle stage.
type Arrival struct {
	At  clock.Time
	Seq int
	ID  trace.RequestID
}

// Rand is a small deterministic PRNG (SplitMix64) for arrival
// generation. Unlike math/rand it is guaranteed stable across Go
// releases, so seeded traces are reproducible forever.
type Rand struct{ state uint64 }

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponential sample with mean 1.
func (r *Rand) ExpFloat64() float64 {
	// 1-u is in (0, 1], so the log is finite.
	return -math.Log(1 - r.Float64())
}

// PoissonArrivals generates a Poisson arrival process at ratePerSec
// over [0, horizon): exponential inter-arrival times drawn from the
// seeded generator. Deterministic per (seed, rate, horizon).
func PoissonArrivals(seed uint64, ratePerSec float64, horizon clock.Time) []Arrival {
	if ratePerSec <= 0 || horizon <= 0 {
		return nil
	}
	rng := NewRand(seed)
	meanGapNs := 1e9 / ratePerSec
	var out []Arrival
	t := 0.0 // ns
	for {
		t += rng.ExpFloat64() * meanGapNs
		at := clock.FromNanos(t)
		if at >= horizon {
			return out
		}
		out = append(out, Arrival{At: at, Seq: len(out), ID: trace.MintRequestID(seed, len(out))})
	}
}

// RateSegment is one piece of a piecewise-constant rate trace: hold
// RatePerSec for Dur of virtual time.
type RateSegment struct {
	RatePerSec float64
	Dur        clock.Time
}

// PiecewiseArrivals generates a Poisson process whose rate follows the
// given segments back to back. The arrival stream is continuous across
// segment boundaries (the residual inter-arrival gap carries over,
// rescaled to the new rate). Deterministic per (seed, segments).
func PiecewiseArrivals(seed uint64, segs []RateSegment) []Arrival {
	rng := NewRand(seed)
	var out []Arrival
	var base clock.Time
	for _, s := range segs {
		if s.Dur <= 0 {
			continue
		}
		if s.RatePerSec > 0 {
			meanGapNs := 1e9 / s.RatePerSec
			t := 0.0
			limit := float64(s.Dur) / float64(clock.Nanosecond)
			for {
				t += rng.ExpFloat64() * meanGapNs
				if t >= limit {
					break
				}
				out = append(out, Arrival{At: base + clock.FromNanos(t), Seq: len(out), ID: trace.MintRequestID(seed, len(out))})
			}
		}
		base += s.Dur
	}
	return out
}

// ParseRateTrace reads a piecewise-constant rate trace, one segment per
// line as "<rate_per_sec> <duration_ms>"; blank lines and #-comments
// are skipped. This is the -trace-file format of ckibench -exp fleet.
// A malformed line — wrong field count, trailing garbage, a
// non-numeric or non-finite value, a non-positive rate, or a
// non-positive duration — is an error naming the offending line. A
// zero rate is rejected too: PiecewiseArrivals would silently emit no
// arrivals for the segment, and a trace that stalls its own stream is
// always a typo, not an intent.
func ParseRateTrace(r io.Reader) ([]RateSegment, error) {
	var segs []RateSegment
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("des: trace line %d: %q: want \"<rate_per_sec> <duration_ms>\"", line, text)
		}
		rate, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("des: trace line %d: bad rate %q", line, fields[0])
		}
		durMs, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("des: trace line %d: bad duration %q", line, fields[1])
		}
		if math.IsNaN(rate) || math.IsInf(rate, 0) || math.IsNaN(durMs) || math.IsInf(durMs, 0) {
			return nil, fmt.Errorf("des: trace line %d: values must be finite", line)
		}
		if rate <= 0 || durMs <= 0 {
			return nil, fmt.Errorf("des: trace line %d: rate and duration must be > 0 (got rate %v, duration %vms)", line, rate, durMs)
		}
		segs = append(segs, RateSegment{RatePerSec: rate, Dur: clock.Time(durMs * float64(clock.Millisecond))})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("des: trace holds no segments")
	}
	return segs, nil
}

// DiurnalTrace is a bursty day-shaped arrival generator: a sinusoidal
// rate swing between BaseRate (trough) and BaseRate*PeakFactor (peak),
// compressed so Periods full day-cycles fit inside Horizon, with
// seeded request bursts (a thundering herd, a retry storm) layered on
// top. It stands in for the diurnal traffic of a large user
// population without needing wall-clock-sized horizons.
type DiurnalTrace struct {
	Seed     uint64
	BaseRate float64 // trough arrivals/sec (> 0)
	// PeakFactor is peak rate / trough rate (>= 1).
	PeakFactor float64
	// Periods is how many full day-cycles span the horizon (>= 1).
	Periods float64
	// BurstProb is the per-arrival probability of spawning a burst of
	// BurstSize extra arrivals spread uniformly over BurstSpread.
	BurstProb   float64
	BurstSize   int
	BurstSpread clock.Time
	Horizon     clock.Time
}

// rate returns the instantaneous arrival rate at time t.
func (d DiurnalTrace) rate(t clock.Time) float64 {
	if d.PeakFactor < 1 {
		return d.BaseRate
	}
	// 0 at the trough, 1 at the peak.
	phase := 0.5 - 0.5*math.Cos(2*math.Pi*d.Periods*float64(t)/float64(d.Horizon))
	return d.BaseRate * (1 + (d.PeakFactor-1)*phase)
}

// Arrivals generates the trace by thinning a Poisson process at the
// peak rate, then layering bursts. The result is sorted by time and
// deterministic per seed.
func (d DiurnalTrace) Arrivals() []Arrival {
	if d.BaseRate <= 0 || d.Horizon <= 0 {
		return nil
	}
	if d.PeakFactor < 1 {
		d.PeakFactor = 1
	}
	if d.Periods < 1 {
		d.Periods = 1
	}
	rng := NewRand(d.Seed)
	peak := d.BaseRate * d.PeakFactor
	meanGapNs := 1e9 / peak
	var times []clock.Time
	t := 0.0
	limit := float64(d.Horizon) / float64(clock.Nanosecond)
	for {
		t += rng.ExpFloat64() * meanGapNs
		if t >= limit {
			break
		}
		at := clock.FromNanos(t)
		// Thinning: accept with probability rate(t)/peak.
		if rng.Float64()*peak > d.rate(at) {
			continue
		}
		times = append(times, at)
		if d.BurstProb > 0 && d.BurstSize > 0 && rng.Float64() < d.BurstProb {
			for i := 0; i < d.BurstSize; i++ {
				bt := at + clock.Time(rng.Float64()*float64(d.BurstSpread))
				if bt < d.Horizon {
					times = append(times, bt)
				}
			}
		}
	}
	// Bursts land out of order; restore time order with a stable,
	// deterministic sort (insertion: burst tails are near their heads).
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	out := make([]Arrival, len(times))
	for i, at := range times {
		out[i] = Arrival{At: at, Seq: i, ID: trace.MintRequestID(d.Seed, i)}
	}
	return out
}
