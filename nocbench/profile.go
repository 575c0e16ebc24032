package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
)

// cpuPackages maps a Go package path to the cpu.* metric its leaf-frame
// samples count toward.
var cpuPackages = map[string]string{
	"nocbt/internal/noc":    "cpu.noc",
	"nocbt/internal/accel":  "cpu.accel",
	"nocbt/internal/flit":   "cpu.flit",
	"nocbt/internal/core":   "cpu.core",
	"nocbt/internal/tensor": "cpu.tensor",
	"nocbt/internal/dnn":    "cpu.dnn",
	"nocbt/internal/train":  "cpu.train",
	"net":                   "cpu.net_http",
	"net/http":              "cpu.net_http",
	"net/textproto":         "cpu.net_http",
	"encoding/json":         "cpu.encoding_json",
}

// gcRoots are the runtime entry points of garbage-collection work; a
// sample with one of them on its stack counts toward cpu.gc.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// cpuShares aggregates a CPU profile by package: each sample counts toward
// the package of its leaf frame (self time), and toward cpu.gc when a GC
// entry point is on its stack. Shares are percentages of all samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		frames := p.frames(s.locs)
		if len(frames) > 0 {
			if m, ok := cpuPackages[packageOf(frames[0])]; ok {
				counts[m] += n
			}
		}
		for _, f := range frames {
			if slices.Contains(gcRoots, f) {
				counts["cpu.gc"] += n
				break
			}
		}
	}
	out := map[string]float64{}
	for m, c := range counts {
		out[m] = 100 * float64(c) / float64(total)
	}
	return out, nil
}

// packageOf returns the import path of a symbol such as
// "nocbt/internal/noc.(*Sim).Step".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of a pprof profile.proto the shares need.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, leaf first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// frames returns the function names of a stack, leaf first.
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fid := range p.locations[l] {
			if i := p.functions[fid]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// parseProfile decodes the gzipped protobuf runtime/pprof writes. It reads
// only samples, locations, functions and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

// appendVarints appends one unpacked varint value, or every varint of a
// packed field.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField walks a protobuf message, calling fn with the varint value
// (wire type 0) or the payload (wire type 2, never nil) of each field.
func eachField(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
