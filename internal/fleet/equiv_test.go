package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/trace"
)

// hashingObserver folds every hook call, scrape views included, into a
// running digest in the order the run makes them.
type hashingObserver struct{ h hash.Hash }

func (o hashingObserver) Arrival(now clock.Time) { fmt.Fprintf(o.h, "A %d\n", now) }
func (o hashingObserver) Completed(now clock.Time, node int, id trace.RequestID, lat clock.Time) {
	fmt.Fprintf(o.h, "C %d %d %s %d\n", now, node, id, lat)
}
func (o hashingObserver) Rejected(now clock.Time) { fmt.Fprintf(o.h, "R %d\n", now) }
func (o hashingObserver) Evicted(now clock.Time, node int, outcome EvictOutcome) {
	fmt.Fprintf(o.h, "E %d %d %s\n", now, node, outcome)
}
func (o hashingObserver) Scrape(now clock.Time, view []Pressure) {
	fmt.Fprintf(o.h, "S %d %+v\n", now, view)
}

// gridArrivals is a hand-built stream on a 1µs grid: gaps of 0–6µs, so
// several arrivals share a timestamp and, with integer-µs costs, land
// on the same instants as completions, the storm, the restore and the
// scrapes. IDs are left 0 to exercise the minting fallback.
func gridArrivals(n int) []des.Arrival {
	rng := des.NewRand(0x9e1d)
	out := make([]des.Arrival, n)
	var at clock.Time
	for i := range out {
		at += clock.Time(rng.Uint64()%7) * clock.Microsecond
		out[i] = des.Arrival{At: at, Seq: i}
	}
	return out
}

// equivDigest runs cfg with a request recorder and a hashing observer
// attached and returns the SHA-256 of the Result JSON, every request's
// segments, and the observer's hook sequence.
func equivDigest(t *testing.T, cfg Config) string {
	t.Helper()
	obsHash := sha256.New()
	rec := trace.NewRequestRecorder()
	cfg.Requests = rec
	cfg.Observe = hashingObserver{obsHash}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
	for _, id := range rec.Requests() {
		for _, s := range rec.Segments(id) {
			fmt.Fprintf(h, "%s %d %d %s %d %d %d %s\n", s.Req, s.ID, s.Parent, s.Kind, s.At, s.Dur, s.Node, s.Outcome)
		}
	}
	h.Write(obsHash.Sum(nil))
	return hex.EncodeToString(h.Sum(nil))
}

// TestTieOrderEquivalence pins fleet.Run's full observable behaviour
// on inputs built to collide at equal timestamps. The digests were
// recorded from the closure-per-event engine that ran every event
// through one (at, seq) heap with all arrivals scheduled first, so at
// an equal instant arrivals fire before the storm, the restore, the
// scrapes and then completions in scheduling order. Any engine must
// reproduce them exactly.
func TestTieOrderEquivalence(t *testing.T) {
	want := map[string]string{
		"binpack/storm=false/fork=false/scrape=false": "2af750a3e774ff4be547440cc4fad96c51f4b59a400da46dcd4ca24505205423",
		"binpack/storm=false/fork=false/scrape=true":  "7db8fbd2cf0791d9b4d0fd76bb04f1d76298bb48169c74953f781a468c5c3c47",
		"binpack/storm=false/fork=true/scrape=false":  "bdba64312ba1900e8bbaa14f53c30412c79ae13337a6f671b5d1a3851f1ba3e3",
		"binpack/storm=false/fork=true/scrape=true":   "af34052025b1cf63a9b3fceb36fb0008a24618b37d0260cf837a03453077e412",
		"binpack/storm=true/fork=false/scrape=false":  "0a382c1b01330087c8b1fc1bd6b07c63bcbe2c1c28854c29db2e7915cce87fec",
		"binpack/storm=true/fork=false/scrape=true":   "a72098a7f7faa775f722884727d0a598c42a3f62a55f28510c9e30a49451a792",
		"binpack/storm=true/fork=true/scrape=false":   "d9a0f23886c8f310125ec78c69326e4174b6ec217e02afb90d570bdf82480d87",
		"binpack/storm=true/fork=true/scrape=true":    "64dd4011dfb56d625a56a4257881169954d9bcd3e99e9c5c98aa75bb888754a2",
		"spread/storm=false/fork=false/scrape=false":  "825a30f479f93ad6d1596ff99a582610cd5db60b73d5ab7f370aad91fb6428f5",
		"spread/storm=false/fork=false/scrape=true":   "a986c39991df2b5e661c40989f9490a3eb9fa19fe2d80a6fe81be8d77fe35744",
		"spread/storm=false/fork=true/scrape=false":   "3dd72959fb6ecbdb0cbc16c6a137df042d387293f8e5eeeb9d92bb903e61492e",
		"spread/storm=false/fork=true/scrape=true":    "5a6d41074a7ec518284a27cc011735304bfcdcb14515c067ed07b33c9ce506f9",
		"spread/storm=true/fork=false/scrape=false":   "a2dacb650b7a3bd245cc4bf63803b50562b7e50399701bbd12a50c9d81962997",
		"spread/storm=true/fork=false/scrape=true":    "6c2daa50de8296b7786dac74856a47b3ca2a65bd6bc7c40c151ff3ec2f3f8bad",
		"spread/storm=true/fork=true/scrape=false":    "cfb261e97ec4cd9ed871474a83bfae640021fd82dbfa3c1685bb4c1795e1dff0",
		"spread/storm=true/fork=true/scrape=true":     "16885b4d5ca045d6b7c4c54a6e2b4d7bf22caa8008bc451db80f0871d9d7d0cb",
	}
	arrivals := gridArrivals(900)
	for _, sched := range []Scheduler{BinPack{}, Spread{}} {
		for _, storm := range []bool{false, true} {
			for _, fork := range []bool{false, true} {
				for _, scrape := range []bool{false, true} {
					name := fmt.Sprintf("%s/storm=%v/fork=%v/scrape=%v", sched.Name(), storm, fork, scrape)
					cfg := Config{
						Nodes: 6, SlotsPerNode: 2, QueueLimit: 3,
						Costs: RuntimeCosts{
							Boot:        30 * clock.Microsecond,
							Service:     5 * clock.Microsecond,
							WarmRestore: 7 * clock.Microsecond,
							ForkBoot:    3 * clock.Microsecond,
						},
						MeanReqs: 4, Arrivals: arrivals, Horizon: 2 * clock.Millisecond,
						Seed: 5, Sched: sched, SnapshotAge: 20 * clock.Microsecond,
						ForkBoots: fork,
					}
					if storm {
						cfg.EvictAt, cfg.EvictNodes, cfg.DownFor = 500*clock.Microsecond, 2, 200*clock.Microsecond
					}
					if scrape {
						cfg.ScrapeEvery = 25 * clock.Microsecond
					}
					got := equivDigest(t, cfg)
					if w, ok := want[name]; !ok || got != w {
						t.Errorf("%s: digest %s, want %s", name, got, w)
					}
				}
			}
		}
	}
}
