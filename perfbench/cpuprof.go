package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"strings"
)

// cpuPackages are the keys of the cpu.<pkg> metrics: the program's
// packages that run in a measured phase, "bench" for this benchmark's own
// wrappers, and "other" for samples with neither (runtime background work
// such as the garbage collector's mark workers).
var cpuPackages = []string{
	"sim", "workload", "stats", "nand", "mapping", "learned", "gc", "ftl",
	"core", "dftl", "tpftl", "leaftl", "obs", "fault", "bench", "other",
}

const internalPrefix = "learnedftl/internal/"

// cpuProfile is a runtime/pprof CPU profile being taken into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and folds its samples by package.
func (p *cpuProfile) stop() (map[string]int64, error) {
	pprof.StopCPUProfile()
	return foldProfile(p.buf.Bytes())
}

// foldPackage maps a function name to the package its CPU time is charged
// to, or "" when the frame belongs to no charged package (the runtime, the
// standard library). A sample is charged to its innermost charged frame, so
// a runtime map probe under mapping.(*CMT).DirtyInRange counts as mapping.
// Program packages without a cpu.<pkg> metric are charged to "other".
func foldPackage(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		if slices.Contains(cpuPackages, rest) {
			return rest
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// foldProfile decodes a gzipped pprof profile and sums its sample counts
// by foldPackage of each sample's innermost charged frame.
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decode CPU profile: %w", err)
	}
	// Per location, the package of its innermost charged line; inlined
	// lines come innermost first.
	locPkg := make(map[uint64]string, len(p.locations))
	for id, fns := range p.locations {
		for _, fn := range fns {
			if pkg := foldPackage(p.strings[p.functions[fn]]); pkg != "" {
				locPkg[id] = pkg
				break
			}
		}
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		pkg := "other"
		for _, loc := range s.locations {
			if lp, ok := locPkg[loc]; ok {
				pkg = lp
				break
			}
		}
		out[pkg] += s.count
	}
	return out, nil
}

// profile is the part of a pprof profile.proto the fold needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type profSample struct {
	locations []uint64 // leaf first
	count     int64    // first value: the sample count
}

// decodeProfile decodes the fields of profile.proto the fold reads:
// Profile.sample (2), .location (4), .function (5) and .string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s profSample
			values := 0
			err := fields(sub, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1:
					return repeated(v, packed, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return repeated(v, packed, func(x uint64) {
						if values == 0 {
							s.count = int64(x)
						}
						values++
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(sub, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields, which profile.proto does not use in the decoded messages, are
// skipped.
func fields(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			if v, n = varint(b); n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// repeated delivers a repeated varint field that is either packed (sub
// holds the values) or a single unpacked value.
func repeated(v uint64, packed []byte, each func(uint64)) error {
	if packed == nil {
		each(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n == 0 {
			return errors.New("truncated packed varint")
		}
		each(x)
		packed = packed[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 on error).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
