package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// output is one result a pass produced, named by its label. A label
// that names a reference file is checked byte for byte against it; any
// other output (one made from a non-default seed) is checked by the
// invariants its pass evaluated into err, and must be byte-identical to
// the same output of the run's first pass.
type output struct {
	label string
	data  []byte
	err   error
}

// checker counts output checks and reports the failed ones.
type checker struct {
	want      map[string][sha256.Size]byte
	ref       map[string]bool
	attempted int
	failed    int
	log       io.Writer
}

// newChecker reads and digests the reference files, given relative to
// root.
func newChecker(root string, refs []string, log io.Writer) (*checker, error) {
	ck := &checker{want: map[string][sha256.Size]byte{}, ref: map[string]bool{}, log: log}
	for _, r := range refs {
		b, err := os.ReadFile(filepath.Join(root, r))
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		ck.want[r] = sha256.Sum256(b)
		ck.ref[r] = true
	}
	return ck, nil
}

// check records one check; a non-nil err is a failure.
func (ck *checker) check(label string, err error) {
	ck.attempted++
	if err != nil {
		ck.failed++
		fmt.Fprintf(ck.log, "perfbench: check failed: %s: %v\n", label, err)
	}
}

// verify checks one pass's outputs.
func (ck *checker) verify(outs []output) {
	for _, o := range outs {
		sum := sha256.Sum256(o.data)
		want, seen := ck.want[o.label]
		err := o.err
		switch {
		case err != nil:
		case !seen:
			ck.want[o.label] = sum
		case sum != want && ck.ref[o.label]:
			err = errors.New("output differs from the reference")
		case sum != want:
			err = errors.New("output differs from the run's first pass")
		}
		ck.check(o.label, err)
	}
}

// span is one host-time interval around a call into a layer; Attr
// names the runtime or scheduler it ran on, Parent indexes the
// enclosing span (-1 for none).
type span struct {
	Name    string `json:"name"`
	Attr    string `json:"attr,omitempty"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory. When off, begin does nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

func nop() {}

// begin opens a span and returns the function that closes it. Spans
// nest: one opened while another is open is its child.
func (t *tracer) begin(name, attr string) func() {
	if !t.on {
		return nop
	}
	if t.t0.IsZero() {
		t.t0 = time.Now()
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Attr: attr, Parent: parent, StartNs: int64(time.Since(t.t0))})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].EndNs = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// durations returns the lengths of the spans called name, restricted to
// attr unless it is empty.
func (t *tracer) durations(name, attr string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			ds = append(ds, time.Duration(s.EndNs-s.StartNs))
		}
	}
	return ds
}

// total returns the summed length and the number of the spans that
// durations selects.
func (t *tracer) total(name, attr string) (time.Duration, int) {
	var sum time.Duration
	ds := t.durations(name, attr)
	for _, d := range ds {
		sum += d
	}
	return sum, len(ds)
}

// mean is the mean span length in the given unit, 0 without spans.
func (t *tracer) mean(name, attr string, unit time.Duration) float64 {
	sum, n := t.total(name, attr)
	return ratio(float64(sum)/float64(unit), float64(n))
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
