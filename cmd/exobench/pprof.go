package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// A decoder for the gzipped profile.proto that runtime/pprof writes,
// reading only what the layer fold needs: sample types, samples, the
// innermost function of each location, function names and the string
// table. It mirrors the hand-written encoder in internal/prof, so the
// module still takes no dependency.

// profile is the decoded subset of a pprof profile.
type profile struct {
	SampleTypes []string   // "type/unit" per value column
	Samples     []pbSample // leaf-first location ids plus values
	LocFunc     map[uint64]uint64
	FuncName    map[uint64]string
}

type pbSample struct {
	Locs   []uint64
	Values []int64
}

// pbField is one decoded protobuf field: v for varint/fixed fields, b for
// length-delimited ones.
type pbField struct {
	num, wire int
	v         uint64
	b         []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(msg []byte) ([]pbField, error) {
	var out []pbField
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, fmt.Errorf("pprof: bad field key")
		}
		msg = msg[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(msg)
			if n <= 0 {
				return nil, fmt.Errorf("pprof: bad varint in field %d", f.num)
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return nil, fmt.Errorf("pprof: short fixed64 in field %d", f.num)
			}
			f.v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return nil, fmt.Errorf("pprof: bad length in field %d", f.num)
			}
			f.b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return nil, fmt.Errorf("pprof: short fixed32 in field %d", f.num)
			}
			f.v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// uints appends a repeated varint field, which encoders may write packed
// (one length-delimited record) or one value per field.
func (f pbField) uints(dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("pprof: bad packed varint in field %d", f.num)
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// decodeProfile parses a gzipped profile.proto.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{LocFunc: map[uint64]uint64{}, FuncName: map[uint64]string{}}
	var strs []string
	var types [][2]uint64
	funcStr := map[uint64]uint64{}
	for _, f := range fields {
		switch f.num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var vt [2]uint64
			for _, s := range sub {
				if s.num == 1 || s.num == 2 {
					vt[s.num-1] = s.v
				}
			}
			types = append(types, vt)
		case 2: // sample: location_id=1, value=2
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s pbSample
			for _, sf := range sub {
				switch sf.num {
				case 1:
					if s.Locs, err = sf.uints(s.Locs); err != nil {
						return nil, err
					}
				case 2:
					var vs []uint64
					if vs, err = sf.uints(nil); err != nil {
						return nil, err
					}
					for _, v := range vs {
						s.Values = append(s.Values, int64(v))
					}
				}
			}
			p.Samples = append(p.Samples, s)
		case 4: // location: id=1, line=4 (Line{function_id=1}); line[0] is the innermost inlined frame
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			haveLine := false
			for _, lf := range sub {
				switch {
				case lf.num == 1:
					id = lf.v
				case lf.num == 4 && !haveLine:
					line, err := pbFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 {
							fn = l.v
						}
					}
					haveLine = true
				}
			}
			p.LocFunc[id] = fn
		case 5: // function: id=1, name=2
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range sub {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
			}
			funcStr[id] = name
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, vt := range types {
		t, err := str(vt[0])
		if err != nil {
			return nil, err
		}
		u, err := str(vt[1])
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, t+"/"+u)
	}
	for id, si := range funcStr {
		if p.FuncName[id], err = str(si); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// layers are the simulator's modules plus the Go runtime (with the
// standard library), exobench itself, and everything else.
var layers = []string{"hw", "vm", "aegis", "exos", "ether", "pkt", "dpf", "runtime", "harness", "other"}

// layerOf maps a function symbol to its layer by package path.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "main", pkg == "exokernel/cmd/exobench": // the latter under go test
		return "harness"
	case strings.HasPrefix(pkg, "exokernel/internal/"):
		l := strings.TrimPrefix(pkg, "exokernel/internal/")
		for _, x := range layers[:7] {
			if l == x {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "exokernel/"):
		return "other"
	}
	return "runtime"
}

// foldByLayer sums CPU time by the layer of each sample's leaf frame.
func foldByLayer(p *profile) (map[string]int64, error) {
	col := -1
	for i, t := range p.SampleTypes {
		if t == "cpu/nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("pprof: no cpu/nanoseconds sample type in %v", p.SampleTypes)
	}
	out := map[string]int64{}
	for _, s := range p.Samples {
		if len(s.Locs) == 0 || col >= len(s.Values) {
			continue
		}
		out[layerOf(p.FuncName[p.LocFunc[s.Locs[0]]])] += s.Values[col]
	}
	return out, nil
}
