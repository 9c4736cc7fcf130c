package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuShares accumulates CPU self time by package category over one or
// more runtime/pprof CPU profiles. A sample counts toward the innermost
// frame outside the Go runtime and its helpers (cpu.runtime packages),
// so map operations, allocation and copies count toward the package
// that performed them; a sample whose whole stack is runtime code (the
// collector, the scheduler) counts as cpu.runtime.
type cpuShares map[string]int64

// profile runs fn under the CPU profiler and adds its self time to s.
func (s cpuShares) profile(fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return ferr
	}
	return s.add(buf.Bytes())
}

// shares reports each category's fraction of the total.
func (s cpuShares) shares() map[string]float64 {
	var total int64
	for _, v := range s {
		total += v
	}
	out := make(map[string]float64, len(s))
	for k, v := range s {
		out[k] = ratio(float64(v), float64(total))
	}
	return out
}

// cpuCategory maps a fully qualified function name to the cpu.* metric
// its self time counts toward.
func cpuCategory(fn string) string {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "valora/internal/"); ok {
		switch rest {
		case "sim", "serving", "sched", "lora", "lmm", "atmm", "registry", "metrics", "trace", "workload", "simgpu":
			return "cpu." + rest
		}
		return "cpu.other"
	}
	switch {
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "bufio" || pkg == "syscall" || pkg == "io" ||
		pkg == "internal/poll" || strings.HasPrefix(pkg, "internal/syscall/") || strings.HasPrefix(pkg, "vendor/golang.org/x/net"):
		return "cpu.net"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/") || pkg == "sync" || strings.HasPrefix(pkg, "sync/") ||
		pkg == "sort" || pkg == "slices" || pkg == "math" || strings.HasPrefix(pkg, "math/") ||
		pkg == "container/heap" || pkg == "time" || !strings.ContainsAny(fn, "./"):
		// The last case is assembly stubs such as gcWriteBarrier.
		return "cpu.runtime"
	case strings.HasPrefix(pkg, "encoding/") || pkg == "fmt" || pkg == "strconv" || pkg == "reflect" ||
		pkg == "unicode/utf8" || pkg == "strings" || pkg == "bytes":
		return "cpu.encoding"
	}
	return "cpu.other"
}

// funcPackage extracts the import path from a symbol such as
// "valora/internal/sim.(*Timeline).Run".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// add decodes one gzipped profile.proto and attributes every sample's
// CPU time (see cpuShares). Only the fields needed for that are read:
// Profile.sample(2), .location(4), .function(5), .string_table(6);
// Sample.location_id(1), .value(2); Location.id(1), .line(4);
// Line.function_id(1); Function.id(1), .name(2).
func (s cpuShares) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		stack []uint64 // location ids, leaf first
		value int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]uint64{}   // function id → string index
		strs     []string
	)
	// varints appends a repeated varint field, packed (b != nil) or not.
	varints := func(dst []uint64, v uint64, b []byte) ([]uint64, error) {
		if b == nil {
			return append(dst, v), nil
		}
		for len(b) > 0 {
			x, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			dst, b = append(dst, x), b[n:]
		}
		return dst, nil
	}
	err = protoFields(raw, func(field int, _ uint64, b []byte) error {
		switch field {
		case 2:
			var sm sample
			var values []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					sm.stack, err = varints(sm.stack, v, b)
				case 2:
					values, err = varints(values, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			// A CPU profile's sample values are [count, nanoseconds].
			if len(values) > 0 {
				sm.value = int64(values[len(values)-1])
			}
			samples = append(samples, sm)
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	category := func(stack []uint64) string {
		for _, loc := range stack {
			for _, fn := range locFuncs[loc] {
				idx, ok := funcName[fn]
				if !ok || int(idx) >= len(strs) {
					continue
				}
				if c := cpuCategory(strs[idx]); c != "cpu.runtime" {
					return c
				}
			}
		}
		return "cpu.runtime"
	}
	for _, sm := range samples {
		s[category(sm.stack)] += sm.value
	}
	return nil
}

var errProto = errors.New("malformed protobuf")

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its bytes.
func protoFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
	}
	return nil
}
