package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Layers are the buckets CPU samples are attributed to: the repo's
// modules, the benchmark's own code, the Go runtime's garbage
// collector, net/http, and the rest of the runtime.
var Layers = []string{
	"scenario", "parsim", "overlay", "core", "agent", "wire", "transport",
	"serve", "obs", "other", "bench", "nethttp", "gc", "runtime",
}

// moduleLayers are the antientropy/internal packages reported under
// their own name; samples in any other internal package go to "other".
var moduleLayers = map[string]bool{
	"scenario": true, "parsim": true, "overlay": true, "core": true,
	"agent": true, "wire": true, "transport": true, "serve": true, "obs": true,
}

// gcFrames mark a sample as garbage-collector work wherever they sit on
// its stack: the background mark, sweep and scavenge workers, and the
// mark assists a mutator is charged while it allocates.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcAssistAlloc",
}

const internalPrefix = "antientropy/internal/"

// benchPackage is this command's import path, the name its functions
// carry in a test binary (in the command itself they are main.*).
const benchPackage = "antientropy/perfbench"

// Attribute maps one sample's stack, innermost frame first, to its
// layer: a GC worker frame anywhere wins; otherwise the innermost
// antientropy/internal/<pkg> frame names the layer (its package, or
// "other" outside moduleLayers); then the innermost frame of the
// benchmark's own main package ("bench"); then net/http ("nethttp");
// everything else is "runtime".
func Attribute(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if pkg, ok := internalPackage(fn); ok {
			if moduleLayers[pkg] {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, benchPackage+".") {
			return "bench"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "net/http.") {
			return "nethttp"
		}
	}
	return "runtime"
}

// internalPackage extracts <pkg> from a function named
// antientropy/internal/<pkg>.<symbol>.
func internalPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i], true
	}
	return "", false
}

// clientFrames are net/http's client side: the Client, the Transport and
// the per-connection read and write loops.
var clientFrames = []string{
	"net/http.(*Client).", "net/http.(*Transport).", "net/http.(*persistConn).", "net/http.send",
}

// isClientStack reports a stack on the client side of net/http.
func isClientStack(stack []string) bool {
	for _, fn := range stack {
		for _, p := range clientFrames {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// sortFuncs are the standard library's slices sorting routines (the
// exported entry points and the pdqsort internals they call).
var sortFuncs = []string{
	"Sort", "pdqsort", "insertionSort", "heapSort", "siftDown", "partition",
	"partialInsertionSort", "breakPatterns", "choosePivot", "median", "order2",
	"reverseRange", "stable", "symMerge", "rotate", "swapRange",
}

// isSortFrame reports a frame of the standard library's slice sorting.
func isSortFrame(fn string) bool {
	name, ok := strings.CutPrefix(fn, "slices.")
	if !ok {
		return false
	}
	for _, p := range sortFuncs {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// CPUBreakdown is a CPU profile folded by layer.
type CPUBreakdown struct {
	// LayerNS is CPU nanoseconds per layer.
	LayerNS map[string]int64
	// TotalNS sums every sample.
	TotalNS int64
	// OverlaySortNS is the overlay's CPU spent under slices sorting;
	// SortNS the same over all layers.
	OverlaySortNS int64
	SortNS        int64
	// ClientNS is the nethttp CPU spent on the client side of a
	// connection (the load generator's), not serving it.
	ClientNS int64
}

// Add folds one sample into the breakdown.
func (b *CPUBreakdown) Add(stack []string, ns int64) {
	if b.LayerNS == nil {
		b.LayerNS = make(map[string]int64)
	}
	layer := Attribute(stack)
	b.LayerNS[layer] += ns
	b.TotalNS += ns
	if layer == "nethttp" && isClientStack(stack) {
		b.ClientNS += ns
	}
	sorting := false
	for _, fn := range stack {
		if _, ok := internalPackage(fn); ok {
			break
		}
		if isSortFrame(fn) {
			sorting = true
			break
		}
	}
	if sorting {
		b.SortNS += ns
		if layer == "overlay" {
			b.OverlaySortNS += ns
		}
	}
}

// Merge adds o into b.
func (b *CPUBreakdown) Merge(o CPUBreakdown) {
	if b.LayerNS == nil {
		b.LayerNS = make(map[string]int64)
	}
	for k, v := range o.LayerNS {
		b.LayerNS[k] += v
	}
	b.TotalNS += o.TotalNS
	b.OverlaySortNS += o.OverlaySortNS
	b.SortNS += o.SortNS
	b.ClientNS += o.ClientNS
}

// ReadCPUProfile decodes a runtime/pprof CPU profile file and folds it.
func ReadCPUProfile(path string) (CPUBreakdown, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return CPUBreakdown{}, err
	}
	return ParseCPUProfile(raw)
}

// ParseCPUProfile decodes a (gzipped) profile.proto CPU profile, as
// written by runtime/pprof, and folds its samples by layer. It reads
// only what attribution needs: samples, locations, functions and the
// string table.
func ParseCPUProfile(raw []byte) (CPUBreakdown, error) {
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return CPUBreakdown{}, fmt.Errorf("profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return CPUBreakdown{}, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
		types     int
	)
	err := pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			types++
		case 2: // sample
			var s sample
			if err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbUints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbUints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := pbFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return CPUBreakdown{}, err
	}
	// runtime/pprof CPU profiles carry [samples/count, cpu/nanoseconds];
	// the last sample type is the CPU time.
	valueIdx := types - 1
	if valueIdx < 0 {
		return CPUBreakdown{}, errors.New("profile: no sample types")
	}
	var out CPUBreakdown
	out.LayerNS = make(map[string]int64)
	var stack []string
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return CPUBreakdown{}, errors.New("profile: sample without cpu value")
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx, ok := funcNames[fid]; ok && idx >= 0 && int(idx) < len(strs) {
					stack = append(stack, strs[idx])
				}
			}
		}
		out.Add(stack, s.values[valueIdx])
	}
	return out, nil
}

// pbFields walks the fields of one protobuf message, calling fn with
// the field number, wire type, the varint value (wire type 0) or the
// payload bytes (wire type 2).
func pbFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbUints decodes a repeated integer field in either encoding: one
// varint (wire type 0) or a packed run (wire type 2).
func pbUints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// pbVarint decodes one varint, returning its byte length (0 on error).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
