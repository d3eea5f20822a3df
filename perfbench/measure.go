package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported as a number.
const minBeyond = 10

// Percentile is one percentile of a sample set with its sample count.
// OK is false when fewer than minBeyond samples lie beyond it; such a
// percentile prints as insufficient, not as a number.
type Percentile struct {
	Value float64
	N     int
	OK    bool
}

// Sufficient reports whether n samples leave at least minBeyond of them
// beyond the q-th quantile (0 < q < 1).
func Sufficient(n int, q float64) bool {
	rank := int(math.Ceil(q * float64(n)))
	return n-rank >= minBeyond
}

// Quantile returns the q-th quantile of samples by linear interpolation
// between closest ranks. It sorts samples in place.
func Quantile(samples []float64, q float64) Percentile {
	n := len(samples)
	if n == 0 {
		return Percentile{}
	}
	slices.Sort(samples)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, n-1)
	v := samples[lo] + (pos-float64(lo))*(samples[hi]-samples[lo])
	return Percentile{Value: v, N: n, OK: Sufficient(n, q)}
}

// Median returns the median of samples (sorting them in place), or 0
// for none. Medians of per-run figures need no sufficiency rule.
func Median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return Quantile(samples, 0.5).Value
}

// HistQuantile returns the q-th quantile of a bucketed histogram,
// interpolating linearly inside the bucket that holds it. bounds are
// the finite upper bounds; counts are per bucket with the +Inf bucket
// last. A quantile in the +Inf bucket reads as the last finite bound.
func HistQuantile(bounds []float64, counts []int64, q float64) Percentile {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return Percentile{}
	}
	target := q * float64(n)
	var cum int64
	lower := 0.0
	for i, c := range counts {
		if i >= len(bounds) {
			break
		}
		upper := bounds[i]
		if float64(cum+c) >= target && c > 0 {
			frac := (target - float64(cum)) / float64(c)
			return Percentile{Value: lower + frac*(upper-lower), N: int(n), OK: Sufficient(int(n), q)}
		}
		cum += c
		lower = upper
	}
	return Percentile{Value: lower, N: int(n), OK: Sufficient(int(n), q)}
}

// cpuTime is the user+system CPU this process has consumed.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvDur(ru.Utime) + tvDur(ru.Stime)
}

// maxRSSMB is this process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100 on
// every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// childCPU sums the user+system CPU of this process's live child
// processes, read from /proc. It is how the udp workload takes the
// workers' CPU at the start of its timed window.
func childCPU() time.Duration {
	var total time.Duration
	tasks, _ := filepath.Glob("/proc/self/task/*/children")
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		for _, pid := range strings.Fields(string(raw)) {
			total += procCPU(pid)
		}
	}
	return total
}

// procCPU reads utime+stime of one process from /proc/<pid>/stat.
func procCPU(pid string) time.Duration {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	// After ')': state is field 3 of the man page, utime 14, stime 15.
	if len(f) < 13 {
		return 0
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0
	}
	return time.Duration(ut+st) * clockTick
}

// HeapStats are the runtime/metrics allocation counters.
type HeapStats struct {
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
	GCCycles   uint64 `json:"gc_cycles"`
}

// Sub returns h − o.
func (h HeapStats) Sub(o HeapStats) HeapStats {
	return HeapStats{h.AllocBytes - o.AllocBytes, h.Allocs - o.Allocs, h.GCCycles - o.GCCycles}
}

// Add returns h + o.
func (h HeapStats) Add(o HeapStats) HeapStats {
	return HeapStats{h.AllocBytes + o.AllocBytes, h.Allocs + o.Allocs, h.GCCycles + o.GCCycles}
}

// readHeap samples the cumulative allocation and GC counters.
func readHeap() HeapStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var h HeapStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.AllocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		h.Allocs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		h.GCCycles = s[2].Value.Uint64()
	}
	return h
}

// Window measures one timed window: its wall time and this process's
// allocations between StartWindow and Stop.
type Window struct {
	start time.Time
	heap0 HeapStats
	Wall  time.Duration
	Heap  HeapStats
}

// StartWindow opens a window now.
func StartWindow() *Window {
	return &Window{start: time.Now(), heap0: readHeap()}
}

// Stop closes the window.
func (w *Window) Stop() {
	w.Wall = time.Since(w.start)
	w.Heap = readHeap().Sub(w.heap0)
}

// fmtPercentile renders a percentile for the report: the number, or
// "insufficient" with the sample count.
func fmtPercentile(p Percentile, scale float64, unit string) string {
	if !p.OK {
		return fmt.Sprintf("insufficient (n=%d)", p.N)
	}
	return fmt.Sprintf("%.4g %s (n=%d)", p.Value*scale, unit, p.N)
}
