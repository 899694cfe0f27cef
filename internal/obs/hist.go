package obs

import (
	"math"
	"sort"
	"sync"
)

// Histogram bucketing: geometric buckets anchored at 1µs with 8 buckets per
// decade, spanning 12 decades (1µs .. ~1e6s). That keeps the relative error
// of any reported quantile under ~33% (one bucket width, 10^(1/8) ≈ 1.33×)
// with a fixed 96-slot footprint — no per-observation allocation, so the
// serving hot path can record every request latency.
const (
	histMin       = 1e-6
	histPerDecade = 8
	histBuckets   = 12 * histPerDecade
)

// histGamma is the bucket growth factor, 10^(1/histPerDecade).
var histGamma = math.Pow(10, 1.0/histPerDecade)

// Histogram is a fixed-size log-bucketed distribution accumulator for
// latencies (or any non-negative seconds-valued metric). Like the rest of
// the recorder, a nil *Histogram is the disabled state: Observe on it is a
// single branch and records nothing. Enabled histograms are safe for
// concurrent use.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets]int64
	n      int64
	sum    float64
	max    float64
}

// NewHistogram returns an empty enabled histogram. Recorder-owned histograms
// come from Recorder.Hist instead.
func NewHistogram() *Histogram { return &Histogram{} }

// histIndex maps a value to its bucket. Values at or below the smallest
// bucket's range land in slot 0; values past the top clamp into the last
// slot (the exact max is tracked separately, so clamping only widens the
// extreme quantiles).
func histIndex(v float64) int {
	if !(v > histMin) { // also catches NaN
		return 0
	}
	idx := int(math.Log10(v/histMin) * histPerDecade)
	if idx < 0 {
		return 0
	}
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// Observe records one value. Nil-safe; NaN and negative values are clamped
// into the lowest bucket rather than corrupting the distribution.
//
//wrht:noalloc disabled
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.mu.Lock()
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of recorded observations.
//
//wrht:noalloc disabled
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			if i == histBuckets-1 {
				return h.max // open-ended overflow bucket
			}
			upper := histMin * math.Pow(histGamma, float64(i+1))
			if upper > h.max {
				upper = h.max
			}
			return upper
		}
	}
	return h.max
}

// HistStat is the rendered summary of one named histogram in a Snapshot.
// All values are in the histogram's native unit (seconds for latencies).
type HistStat struct {
	Name  string
	Count int64
	Mean  float64
	P50   float64
	P90   float64
	P99   float64
	Max   float64
}

// Stat summarizes the histogram under the given name.
//
//wrht:noalloc disabled
func (h *Histogram) Stat(name string) HistStat {
	if h == nil {
		return HistStat{Name: name}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HistStat{Name: name, Count: h.n, Max: h.max}
	if h.n > 0 {
		st.Mean = h.sum / float64(h.n)
		st.P50 = h.quantileLocked(0.50)
		st.P90 = h.quantileLocked(0.90)
		st.P99 = h.quantileLocked(0.99)
	}
	return st
}

// Hist returns the named histogram, creating it on first use. A nil recorder
// returns a nil (disabled) histogram, keeping the caller's Observe calls
// branch-cheap when observability is off.
//
//wrht:noalloc disabled
func (r *Recorder) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// histStatsLocked snapshots every recorder-owned histogram, sorted by name.
// Caller holds r.mu; each histogram is summarized under its own lock, which
// is safe because Histogram never calls back into the recorder.
func (r *Recorder) histStatsLocked() []HistStat {
	if len(r.hists) == 0 {
		return nil
	}
	out := make([]HistStat, 0, len(r.hists))
	for name, h := range r.hists {
		out = append(out, h.Stat(name))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
