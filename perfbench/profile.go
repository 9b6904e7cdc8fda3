package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers are the names host cost is attributed to: one per pask/internal
// package (hip and cuda fold into backend), "api" for the public pask
// package, "other" for internal packages not listed here, and "runtime" for
// samples with no pask frame at all (the Go runtime, the garbage collector
// and this benchmark's own code).
var layers = []string{
	"api", "backend", "blas", "cacheimg", "codeobj", "core", "device",
	"experiments", "faults", "graphx", "kernels", "metrics", "miopen", "onnx",
	"predict", "serving", "sim", "tensor", "trace", "traffic", "warmup",
	"other", "runtime",
}

const internalPrefix = "pask/internal/"

// layerOf returns the layer a sample belongs to, given its function names
// leaf first: the innermost pask/internal/<layer> frame wins.
func layerOf(frames []string) string {
	api := false
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			name := rest
			if i := strings.IndexAny(name, "/."); i >= 0 {
				name = name[:i]
			}
			switch name {
			case "hip", "cuda":
				return "backend"
			}
			for _, l := range layers {
				if l == name {
					return l
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "pask.") {
			api = true
		}
	}
	if api {
		return "api"
	}
	return "runtime"
}

// profile is the part of a pprof profile the attribution needs: the sample
// types and, per sample, its values and its function names leaf first.
type profile struct {
	types   []string
	samples []sample
}

type sample struct {
	values []int64
	frames []string
}

// byLayer sums the named sample value per layer.
func (p *profile) byLayer(valueType string) (map[string]int64, error) {
	idx := -1
	for i, t := range p.types {
		if t == valueType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("profile has no %q values (has %v)", valueType, p.types)
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		if idx < len(s.values) {
			out[layerOf(s.frames)] += s.values[idx]
		}
	}
	return out, nil
}

// parseProfile decodes a (possibly gzipped) pprof protobuf profile, as
// runtime/pprof writes it. Only the fields the attribution reads are kept.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeIdx   []int64
		raws      []rawSample
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
	)
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.types = append(p.types, str(t))
	}
	for _, r := range raws {
		s := sample{values: r.values}
		for _, l := range r.locs {
			for _, f := range locFuncs[l] {
				s.frames = append(s.frames, str(funcNames[f]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number and
// either its varint value (v) or its length-delimited bytes (b).
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated varint field in either encoding: one value (v,
// b == nil) or a packed run (b).
func varints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
