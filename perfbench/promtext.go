package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"

	"antientropy/internal/obs"
)

// Scrape is one Prometheus text-format exposition of an obs.Registry,
// parsed into series values keyed by the full series name including
// labels (`name{le="0.5"}`). It is how the benchmark reads the
// program's public counters, gauges and histograms.
type Scrape map[string]float64

// ScrapeRegistry renders reg and parses the result.
func ScrapeRegistry(reg *obs.Registry) Scrape {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return Scrape{}
	}
	return ParseScrape(buf.Bytes())
}

// ParseScrape parses Prometheus text exposition lines.
func ParseScrape(text []byte) Scrape {
	out := Scrape{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// Hist reassembles histogram name: finite upper bounds and per-bucket
// (not cumulative) counts with the +Inf bucket last, plus sum and
// count.
func (s Scrape) Hist(name string) (bounds []float64, counts []int64, sum float64) {
	prefix := name + `_bucket{le="`
	type bucket struct {
		le  float64
		cum float64
	}
	var bs []bucket
	for k, v := range s {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	prev := 0.0
	for _, b := range bs {
		if !math.IsInf(b.le, 1) {
			bounds = append(bounds, b.le)
		}
		counts = append(counts, int64(b.cum-prev))
		prev = b.cum
	}
	return bounds, counts, s[name+"_sum"]
}

// HistDiff subtracts an earlier scrape's buckets from a later one's:
// the observations made in between.
func HistDiff(later, earlier []int64) []int64 {
	out := make([]int64, len(later))
	for i := range later {
		out[i] = later[i]
		if i < len(earlier) {
			out[i] -= earlier[i]
		}
	}
	return out
}
