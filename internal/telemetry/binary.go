package telemetry

import (
	"sort"

	"repro/internal/clock"
	"repro/internal/wire"
)

// The CKITS1 binary time-series format: a compact canonical encoding
// of a Store for artifacts and the ckimon CLI.
//
//	magic   "CKITS1\x00\x01"           (8 bytes: name + format version)
//	header  u64 interval_ps, u32 depth, u32 ticks, u32 nseries
//	series  str name, str kind, u16 nlabels, nlabels × (str k, str v),
//	        u32 first_tick, u32 nwindows, nwindows × window
//	window  i64 at_ns, f64 delta, f64 value, f64 total, u64 count,
//	        f64 p50_ns, f64 p99_ns          (ticks are recomputed)
//	trailer u64 FNV-64a of everything before it
//
// It is an internal/wire sealed frame; str is a u16-length string.
// Labels encode in sorted key order, so the bytes are canonical: the
// same store state always encodes to the same bytes.

const binMagic = "CKITS1\x00\x01"

// DecodeError is a CKITS1 decode failure naming the offset.
type DecodeError = wire.Error

// EncodeBinary renders the store in the CKITS1 format.
func (st *Store) EncodeBinary() []byte {
	w := wire.NewWriter(nil, binMagic)
	w.U64(uint64(st.Interval))
	w.U32(uint32(st.Depth))
	w.U32(uint32(st.ticks))
	w.U32(uint32(len(st.series)))
	for _, s := range st.series {
		w.Str16(s.Name)
		w.Str16(s.Kind)
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.U16(uint16(len(keys)))
		for _, k := range keys {
			w.Str16(k)
			w.Str16(s.Labels[k])
		}
		w.U32(uint32(s.FirstTick))
		w.U32(uint32(len(s.Windows)))
		for _, win := range s.Windows {
			w.U64(uint64(win.AtNs))
			w.F64(win.Delta)
			w.F64(win.Value)
			w.F64(win.Total)
			w.U64(win.Count)
			w.F64(win.P50Ns)
			w.F64(win.P99Ns)
		}
	}
	return w.Seal()
}

// DecodeBinary parses CKITS1 bytes back into a Store, verifying the
// magic, structure, and checksum trailer. Every failure is a
// *DecodeError naming the offending offset.
func DecodeBinary(data []byte) (*Store, error) {
	r, err := wire.NewSealedReader(data, binMagic)
	if err != nil {
		return nil, err
	}
	st := NewStore(clock.Time(r.U64()), int(r.U32()))
	st.ticks = int(r.U32())
	nseries := r.Count(14) // name, kind and label count, first tick, window count
	for i := 0; i < nseries && r.Err() == nil; i++ {
		s := &Series{Name: r.Str16(), Kind: r.Str16()}
		nlabels := int(r.U16())
		var labels []struct{ k, v string }
		for j := 0; j < nlabels && r.Err() == nil; j++ {
			k, v := r.Str16(), r.Str16()
			labels = append(labels, struct{ k, v string }{k, v})
		}
		if len(labels) > 0 {
			s.Labels = make(map[string]string, len(labels))
			var b []byte
			b = append(b, s.Name...)
			for _, l := range labels {
				s.Labels[l.k] = l.v
				b = append(b, '|')
				b = append(b, l.k...)
				b = append(b, '=')
				b = append(b, l.v...)
			}
			s.key = string(b)
		} else {
			s.key = s.Name
		}
		s.FirstTick = int(r.U32())
		nwin := r.Count(56) // seven 8-byte fields
		for j := 0; j < nwin && r.Err() == nil; j++ {
			s.Windows = append(s.Windows, Window{
				Tick:  s.FirstTick + j,
				AtNs:  int64(r.U64()),
				Delta: r.F64(),
				Value: r.F64(),
				Total: r.F64(),
				Count: r.U64(),
				P50Ns: r.F64(),
				P99Ns: r.F64(),
			})
		}
		if r.Err() == nil {
			st.byKey[s.key] = s
			st.series = append(st.series, s)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if len(st.series) > 0 {
		last := st.series[0]
		if n := len(last.Windows); n > 0 {
			st.lastAt = clock.Time(last.Windows[n-1].AtNs) * clock.Nanosecond
		}
	}
	return st, nil
}
