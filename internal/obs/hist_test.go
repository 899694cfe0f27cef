package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1.0) // must not panic
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram reported data")
	}
	st := h.Stat("x")
	if st.Name != "x" || st.Count != 0 {
		t.Fatalf("nil Stat = %+v", st)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 100 observations spread over two decades: 1ms..100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(1e-3 * float64(i))
	}
	st := h.Stat("lat")
	if st.Count != 100 {
		t.Fatalf("count = %d", st.Count)
	}
	if math.Abs(st.Mean-0.0505) > 1e-9 {
		t.Fatalf("mean = %g", st.Mean)
	}
	if st.Max != 0.1 {
		t.Fatalf("max = %g", st.Max)
	}
	// Bucket resolution is 10^(1/8) ≈ 1.33×; quantile upper bounds must
	// bracket the exact values within one bucket.
	checks := []struct {
		q, exact float64
	}{{0.50, 0.050}, {0.90, 0.090}, {0.99, 0.099}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.exact || got > c.exact*1.34 {
			t.Errorf("q%.2f = %g, want in [%g, %g]", c.q, got, c.exact, c.exact*1.34)
		}
	}
	if q := h.Quantile(1.0); q != 0.1 {
		t.Errorf("q1.00 = %g, want exact max 0.1", q)
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-5)         // clamped to lowest bucket
	h.Observe(math.NaN()) // clamped to lowest bucket
	h.Observe(1e9)        // past the top decade: clamped into last bucket
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d", got)
	}
	if q := h.Quantile(1.0); q != 1e9 {
		t.Fatalf("q1.0 = %g, want exact max", q)
	}
	if st := h.Stat("x"); st.Max != 1e9 {
		t.Fatalf("max = %g", st.Max)
	}
}

func TestRecorderHist(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Hist("a") != nil {
		t.Fatalf("nil recorder returned live histogram")
	}
	r := New()
	h1 := r.Hist("serve.latency")
	h2 := r.Hist("serve.latency")
	if h1 != h2 {
		t.Fatalf("Hist not idempotent")
	}
	h1.Observe(0.002)
	r.Hist("other").Observe(0.5)
	snap := r.Snapshot()
	if len(snap.Hists) != 2 {
		t.Fatalf("snapshot hists = %d", len(snap.Hists))
	}
	if snap.Hists[0].Name != "other" || snap.Hists[1].Name != "serve.latency" {
		t.Fatalf("hists not sorted: %+v", snap.Hists)
	}
	if snap.Hists[1].Count != 1 {
		t.Fatalf("count = %d", snap.Hists[1].Count)
	}
	// The Latency table must render.
	found := false
	for _, tb := range snap.Tables() {
		if tb.Title == "Latency" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no Latency table in snapshot")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1e-3)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]) of the
// recorded values: the upper edge of the bucket holding the q-th
// observation, capped at the exact observed max. An empty (or nil)
// histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}
