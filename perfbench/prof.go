package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profPackages are the program's modules whose CPU-profile self time
// the traced run attributes (prof.<m>.self_pct).
var profPackages = []string{
	"buf", "kernel", "sim", "fs", "disk", "splice", "socket",
	"stream", "server", "vm", "trace", "simcheck", "workload",
}

// profRuntime maps a runtime leaf function to its prof.runtime.<x>
// bucket; gc is matched on the whole stack instead (gcFrames).
var profRuntime = map[string]string{
	"runtime.memclrNoHeapPointers": "memclr",
	"runtime.memmove":              "memmove",
	"runtime.futex":                "futex",
}

// gcFrames mark a sample as garbage-collector work wherever the leaf
// is: background mark and sweep workers and mutator assists.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart",
}

// profShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of sampled CPU time in percent: self time summed by
// kdp/internal package of the leaf function, the runtime leaves in
// profRuntime, and "gc" for samples with a gcFrames frame.
func profShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	sums := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		total += v
		if b := bucketOf(p.leaf(s.locs[0])); b != "" {
			sums[b] += v
		}
		for _, id := range s.locs {
			if p.hasFrame(id, gcFrames) {
				sums["gc"] += v
				break
			}
		}
	}
	out := map[string]float64{}
	for k, v := range sums {
		if total > 0 {
			out[k] = 100 * float64(v) / float64(total)
		}
	}
	return out, nil
}

// bucketOf names the bucket of a leaf function, or "" for none.
func bucketOf(fn string) string {
	if b, ok := profRuntime[fn]; ok {
		return b
	}
	rest, ok := strings.CutPrefix(fn, "kdp/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i > 0 {
		return rest[:i]
	}
	return ""
}

// profile holds the parts of a pprof profile.proto the benchmark
// reads: samples (location ids, leaf first, and values), each
// location's function ids (innermost inlined function first), and
// function names.
type profile struct {
	samples []profSample
	locFns  map[uint64][]uint64
	fnName  map[uint64]int64
	strs    []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

func (p *profile) name(fn uint64) string {
	if i := p.fnName[fn]; i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

func (p *profile) leaf(loc uint64) string {
	if fns := p.locFns[loc]; len(fns) > 0 {
		return p.name(fns[0])
	}
	return ""
}

func (p *profile) hasFrame(loc uint64, names []string) bool {
	for _, fn := range p.locFns[loc] {
		n := p.name(fn)
		for _, want := range names {
			if n == want {
				return true
			}
		}
	}
	return false
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLoc       = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case fSampleLoc:
					s.locs = appendVarints(s.locs, v, packed)
				case fSampleValue:
					for _, u := range appendVarints(nil, v, packed) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFns[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			name := int64(-1)
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.fnName[id] = name
			return err
		case fProfileStrings:
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// appendVarints appends a repeated integer field: the varint v when
// it was sent unpacked (packed == nil), else every varint in packed.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		u, n := varint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		packed = packed[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField calls fn for every field of a protobuf message: varint
// fields with their value and a nil slice, length-delimited fields
// with their bytes. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, msg); err != nil {
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

func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
