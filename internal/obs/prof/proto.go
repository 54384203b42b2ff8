package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
)

// This file is a dependency-free reader for the pprof protocol-buffer
// profile format (profile.proto) that runtime/pprof emits. The repo bakes
// in no third-party modules, so the differential profiler decodes the
// wire format directly: profiles are small (a handful of KB), the schema
// is frozen, and hebobs prof only needs sample values, stack frames and
// sample labels — not the full pprof feature surface.

// Profile is the decoded subset of a pprof proto that the rollup and
// validation layers consume.
type Profile struct {
	// SampleTypes names the columns of every sample's Values, e.g.
	// [samples/count, cpu/nanoseconds] for a CPU profile or
	// [alloc_objects/count, alloc_space/bytes, ...] for heap profiles.
	SampleTypes []ValueType
	// Samples are the profile's measurements.
	Samples []Sample
	// DurationNanos is the profiled wall-clock span (0 when unset).
	DurationNanos int64
	// DefaultSampleType names the headline column the producer intends
	// ("alloc_space" for the allocs profile, "inuse_space" for heap —
	// the two share a schema and differ only here). Empty when unset.
	DefaultSampleType string

	strings   []string
	functions map[uint64]string   // function id -> name
	locations map[uint64][]uint64 // location id -> function ids, leaf first
}

// ValueType is one sample-value column descriptor.
type ValueType struct {
	Type, Unit string
}

func (v ValueType) String() string { return v.Type + "/" + v.Unit }

// Sample is one measurement: a call stack (leaf first, as frame names),
// one value per sample type, and the pprof labels attached by pprof.Do.
type Sample struct {
	// LocationIDs is the raw stack, leaf first.
	LocationIDs []uint64
	// Values holds one value per SampleTypes column.
	Values []int64
	// Labels are the sample's string-valued pprof labels (scheme,
	// workload, seed, phase for labeled sweep cells).
	Labels map[string]string
}

// Stack resolves a sample's frames to function names, leaf first. Inlined
// frames expand in place.
func (p *Profile) Stack(s Sample) []string {
	var out []string
	for _, loc := range s.LocationIDs {
		for _, fid := range p.locations[loc] {
			if name := p.functions[fid]; name != "" {
				out = append(out, name)
			}
		}
	}
	return out
}

// SampleTypeIndex resolves a sample-type name ("cpu", "alloc_space", ...)
// to its column index; an empty name selects the profile's headline
// column — its declared default_sample_type when set (alloc_space for
// the allocs profile), else the last column (cpu/nanoseconds for CPU
// profiles, inuse_space for heap).
func (p *Profile) SampleTypeIndex(name string) (int, error) {
	if name == "" {
		if len(p.SampleTypes) == 0 {
			return 0, fmt.Errorf("prof: profile has no sample types")
		}
		if p.DefaultSampleType != "" {
			name = p.DefaultSampleType
		} else {
			return len(p.SampleTypes) - 1, nil
		}
	}
	for i, st := range p.SampleTypes {
		if st.Type == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("prof: no sample type %q (have %v)", name, p.SampleTypes)
}

// ParseFile reads one pprof proto (gzipped or raw) from disk.
func ParseFile(path string) (*Profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := Parse(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Parse decodes a pprof proto stream; a gzip magic prefix is transparently
// unwrapped (runtime/pprof always gzips).
func Parse(r io.Reader) (*Profile, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
		raw, err = io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
	}
	p := &Profile{
		functions: map[uint64]string{},
		locations: map[uint64][]uint64{},
	}
	type rawLabel struct{ key, str int64 }
	type rawSample struct {
		locs   []uint64
		values []int64
		labels []rawLabel
	}
	type rawValueType struct{ typ, unit int64 }
	var sampleTypes []rawValueType
	var samples []rawSample
	var defaultSampleType int64     // string-table index, 0 = unset
	funcNames := map[uint64]int64{} // function id -> string-table index

	d := decoder{buf: raw}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return nil, err
		}
		switch field {
		case 1: // sample_type
			msg, err := d.bytes(wire)
			if err != nil {
				return nil, err
			}
			vt := rawValueType{}
			if err := walk(msg, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					vt.typ = int64(v)
				case 2:
					vt.unit = int64(v)
				}
			}); err != nil {
				return nil, err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			msg, err := d.bytes(wire)
			if err != nil {
				return nil, err
			}
			s := rawSample{}
			if err := walk(msg, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					if b != nil {
						s.locs = append(s.locs, unpackUvarints(b)...)
					} else {
						s.locs = append(s.locs, v)
					}
				case 2:
					if b != nil {
						for _, u := range unpackUvarints(b) {
							s.values = append(s.values, int64(u))
						}
					} else {
						s.values = append(s.values, int64(v))
					}
				case 3:
					lbl := rawLabel{}
					_ = walk(b, func(lf int, lv uint64, _ []byte) {
						switch lf {
						case 1:
							lbl.key = int64(lv)
						case 2:
							lbl.str = int64(lv)
						}
					})
					s.labels = append(s.labels, lbl)
				}
			}); err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case 4: // location
			msg, err := d.bytes(wire)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fids []uint64
			if err := walk(msg, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // line
					_ = walk(b, func(lf int, lv uint64, _ []byte) {
						if lf == 1 {
							fids = append(fids, lv)
						}
					})
				}
			}); err != nil {
				return nil, err
			}
			p.locations[id] = fids
		case 5: // function
			msg, err := d.bytes(wire)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			if err := walk(msg, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}); err != nil {
				return nil, err
			}
			funcNames[id] = name
		case 6: // string_table
			b, err := d.bytes(wire)
			if err != nil {
				return nil, err
			}
			p.strings = append(p.strings, string(b))
		case 10: // duration_nanos
			v, err := d.varint(wire)
			if err != nil {
				return nil, err
			}
			p.DurationNanos = int64(v)
		case 14: // default_sample_type
			v, err := d.varint(wire)
			if err != nil {
				return nil, err
			}
			defaultSampleType = int64(v)
		default:
			if err := d.skip(wire); err != nil {
				return nil, err
			}
		}
	}
	if len(p.strings) == 0 {
		return nil, fmt.Errorf("prof: no string table — not a pprof proto")
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(p.strings) {
			return ""
		}
		return p.strings[i]
	}
	// Function names arrive as string-table indices; the table may appear
	// after the functions in the stream, so resolve them only now.
	for id, idx := range funcNames {
		p.functions[id] = str(idx)
	}
	for _, vt := range sampleTypes {
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: str(vt.typ), Unit: str(vt.unit)})
	}
	if len(p.SampleTypes) == 0 {
		return nil, fmt.Errorf("prof: profile declares no sample types")
	}
	p.DefaultSampleType = str(defaultSampleType)
	for _, rs := range samples {
		s := Sample{LocationIDs: rs.locs, Values: rs.values}
		for _, l := range rs.labels {
			if k, v := str(l.key), str(l.str); k != "" && v != "" {
				if s.Labels == nil {
					s.Labels = map[string]string{}
				}
				s.Labels[k] = v
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// decoder is a minimal protobuf wire-format cursor.
type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) done() bool { return d.pos >= len(d.buf) }

// tag reads the next field number and wire type.
func (d *decoder) tag() (field, wire int, err error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	return int(v >> 3), int(v & 7), nil
}

func (d *decoder) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if d.pos >= len(d.buf) {
			return 0, fmt.Errorf("prof: truncated varint")
		}
		b := d.buf[d.pos]
		d.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
		if shift >= 64 {
			return 0, fmt.Errorf("prof: varint overflow")
		}
	}
}

// varint reads a wire-type-0 value (erroring on other wire types).
func (d *decoder) varint(wire int) (uint64, error) {
	if wire != 0 {
		return 0, fmt.Errorf("prof: expected varint, got wire type %d", wire)
	}
	return d.uvarint()
}

// bytes reads a wire-type-2 length-delimited payload.
func (d *decoder) bytes(wire int) ([]byte, error) {
	if wire != 2 {
		return nil, fmt.Errorf("prof: expected bytes, got wire type %d", wire)
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return nil, fmt.Errorf("prof: truncated field (%d bytes declared, %d left)", n, len(d.buf)-d.pos)
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// skip discards one field of any wire type.
func (d *decoder) skip(wire int) error {
	switch wire {
	case 0:
		_, err := d.uvarint()
		return err
	case 1:
		if len(d.buf)-d.pos < 8 {
			return fmt.Errorf("prof: truncated fixed64")
		}
		d.pos += 8
		return nil
	case 2:
		_, err := d.bytes(wire)
		return err
	case 5:
		if len(d.buf)-d.pos < 4 {
			return fmt.Errorf("prof: truncated fixed32")
		}
		d.pos += 4
		return nil
	default:
		return fmt.Errorf("prof: unsupported wire type %d", wire)
	}
}

// walk iterates a message's fields, calling fn with (field, varintValue,
// bytesValue): varint fields pass (v, nil), length-delimited fields pass
// (0, bytes). Unknown and fixed-width fields are skipped.
func walk(msg []byte, fn func(field int, v uint64, b []byte)) error {
	d := decoder{buf: msg}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return err
		}
		switch wire {
		case 0:
			v, err := d.uvarint()
			if err != nil {
				return err
			}
			fn(field, v, nil)
		case 2:
			b, err := d.bytes(wire)
			if err != nil {
				return err
			}
			fn(field, 0, b)
		default:
			if err := d.skip(wire); err != nil {
				return err
			}
		}
	}
	return nil
}

// unpackUvarints decodes a packed repeated varint payload.
func unpackUvarints(b []byte) []uint64 {
	var out []uint64
	d := decoder{buf: b}
	for !d.done() {
		v, err := d.uvarint()
		if err != nil {
			return out
		}
		out = append(out, v)
	}
	return out
}
