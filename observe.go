package wrht

import (
	"fmt"
	"io"
	"os"
	"strings"

	"wrht/internal/obs"
	"wrht/internal/stats"
)

// Observer is the public handle on a SweepSession's flight recorder
// (internal/obs). Obtain one with SweepSession.Observe *before* pricing
// starts; every subsequent CommunicationTime / RunSweep / SimulateFabric /
// Compare call on the session then records per-step pricing spans,
// fabric admit/preempt/reconfig timelines, per-wavelength occupancy lanes,
// and cache/certificate counters. Observation is write-only: priced numbers
// are bit-identical to an unobserved session, and exported traces are
// byte-deterministic regardless of sweep parallelism (all timestamps are
// simulated time, and every logical run records to its own track set).
//
//	ss := wrht.NewSweepSession()
//	ob := ss.Observe()
//	res, _ := ss.SimulateFabric(cfg, jobs, policy)
//	ob.WriteTraceFile("trace.json") // open in ui.perfetto.dev
//	fmt.Print(ss.Snapshot().Markdown())
type Observer struct {
	rec *obs.Recorder
}

// Observe enables the session's flight recorder (idempotent: repeated calls
// return a handle on the same recorder) and returns the Observer used to
// export its artifacts. Enabling is safe to race with in-flight pricing —
// the recorder pointer is swapped in atomically, so concurrent calls that
// sampled the pre-swap state simply finish unobserved and everything that
// starts afterwards records. For byte-deterministic trace exports, still
// call Observe before issuing pricing work (a half-observed sweep records a
// nondeterministic subset of its runs).
func (ss *SweepSession) Observe() *Observer {
	rec := obs.New()
	if !ss.sess.rec.CompareAndSwap(nil, rec) {
		rec = ss.sess.rec.Load()
	}
	return &Observer{rec: rec}
}

// WriteTrace exports the session's recorded streams as Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing: fabric
// jobs as tracks with instant markers, run/settle spans, queue-depth and
// lit-wavelength counter tracks, per-wavelength occupancy lanes, and
// per-step pricing spans for every schedule the session priced.
func (o *Observer) WriteTrace(w io.Writer) error {
	return o.rec.WriteTrace(w)
}

// WriteTraceFile is WriteTrace to a file path.
func (o *Observer) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.rec.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Metric is one named scalar of a metrics snapshot.
type Metric struct {
	Name  string
	Value float64
}

// GaugeMetric is the last/max pair of a recorded gauge.
type GaugeMetric struct {
	Name string
	Last float64
	Max  float64
}

// LatencyMetric summarizes one recorded latency histogram (seconds).
type LatencyMetric struct {
	Name  string
	Count int64
	Mean  float64
	P50   float64
	P90   float64
	P99   float64
	Max   float64
}

// WavelengthUse is one wavelength's accumulated busy time within one
// recorded fabric simulation (Process names the simulation).
type WavelengthUse struct {
	Process  string
	Index    int
	BusySec  float64
	Segments int
}

// MetricsSnapshot is a point-in-time summary of an observed session: cache
// effectiveness per layer plus every recorder counter, gauge, and
// per-wavelength occupancy accumulator. Render with Markdown or CSV.
type MetricsSnapshot struct {
	Cache       CacheStats
	Counters    []Metric
	Gauges      []GaugeMetric
	Latencies   []LatencyMetric
	Wavelengths []WavelengthUse
	// Spans/Instants/Samples count the recorded trace stream entries.
	Spans, Instants, Samples int
}

// Snapshot summarizes the session's observability state. It works on
// unobserved sessions too (cache stats only, empty recorder sections).
func (ss *SweepSession) Snapshot() MetricsSnapshot {
	snap := ss.sess.recorder().Snapshot()
	out := MetricsSnapshot{
		Cache:    ss.Stats(),
		Spans:    snap.Spans,
		Instants: snap.Instants,
		Samples:  snap.Samples,
	}
	for _, c := range snap.Counters {
		out.Counters = append(out.Counters, Metric(c))
	}
	for _, g := range snap.Gauges {
		out.Gauges = append(out.Gauges, GaugeMetric(g))
	}
	for _, h := range snap.Hists {
		out.Latencies = append(out.Latencies, LatencyMetric(h))
	}
	for _, ln := range snap.Lanes {
		out.Wavelengths = append(out.Wavelengths, WavelengthUse{
			Process: ln.Process, Index: ln.Lane, BusySec: ln.BusySec, Segments: ln.Segments,
		})
	}
	return out
}

// tables renders the snapshot sections as stats tables (shared by the
// Markdown and CSV forms, so both carry identical columns).
func (s MetricsSnapshot) tables() []*stats.Table {
	cache := stats.NewTable("Cache layers", "layer", "hits", "builds")
	cache.AddRowf("plan", s.Cache.PlanHits, s.Cache.PlanBuilds)
	cache.AddRowf("schedule", s.Cache.ScheduleHits, s.Cache.ScheduleBuilds)
	cache.AddRowf("simulation", s.Cache.SimulationHits, s.Cache.SimulationRuns)
	cache.AddRowf("fabric-runtime", s.Cache.FabricRuntimeHits, s.Cache.FabricRuntimeBuilds)
	out := []*stats.Table{cache}

	counters := stats.NewTable("Counters", "name", "value")
	for _, c := range s.Counters {
		counters.AddRowf(c.Name, c.Value)
	}
	counters.AddRowf("trace.spans", s.Spans)
	counters.AddRowf("trace.instants", s.Instants)
	counters.AddRowf("trace.samples", s.Samples)
	out = append(out, counters)

	if len(s.Gauges) > 0 {
		gauges := stats.NewTable("Gauges", "name", "last", "max")
		for _, g := range s.Gauges {
			gauges.AddRowf(g.Name, g.Last, g.Max)
		}
		out = append(out, gauges)
	}
	if len(s.Latencies) > 0 {
		lat := stats.NewTable("Latency", "name", "count", "mean", "p50", "p90", "p99", "max")
		for _, h := range s.Latencies {
			lat.AddRowf(h.Name, h.Count,
				stats.FormatSeconds(h.Mean), stats.FormatSeconds(h.P50),
				stats.FormatSeconds(h.P90), stats.FormatSeconds(h.P99),
				stats.FormatSeconds(h.Max))
		}
		out = append(out, lat)
	}
	if len(s.Wavelengths) > 0 {
		lanes := stats.NewTable("Wavelength occupancy", "process", "wavelength", "busy", "segments")
		for _, w := range s.Wavelengths {
			lanes.AddRowf(w.Process, w.Index, stats.FormatSeconds(w.BusySec), w.Segments)
		}
		out = append(out, lanes)
	}
	return out
}

// Markdown renders the snapshot as markdown tables.
func (s MetricsSnapshot) Markdown() string {
	var b strings.Builder
	for i, t := range s.tables() {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.Markdown())
	}
	return b.String()
}

// CSV renders the snapshot as CSV sections separated by blank lines, with
// the same columns as the markdown form; each section is preceded by a
// `# <title>` comment line.
func (s MetricsSnapshot) CSV() string {
	var b strings.Builder
	for i, t := range s.tables() {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "# %s\n", t.Title)
		b.WriteString(t.CSV())
	}
	return b.String()
}

// ScheduleClassStats reports how the classed-pricing lowering classified a
// schedule's steps: how many carry a verified rotational-symmetry
// certificate (priced in O(classes) per step), how many were materialized
// transfer-by-transfer, and how many of those *claimed* a certificate that
// failed verification (demotions — silent fallbacks that cost the O(N)
// pricing speedup and that the observability layer exists to surface).
type ScheduleClassStats struct {
	Algorithm string
	Steps     int
	// CertifiedSteps/MaterializedSteps/DemotedSteps partition the steps
	// (demoted is a subset of materialized).
	CertifiedSteps    int
	MaterializedSteps int
	DemotedSteps      int
	// Classes is the total pricing-equivalence-class count across certified
	// steps; Transfers the total point-to-point transfer count they stand for.
	Classes   int
	Transfers int
}

// InspectScheduleClasses lowers the algorithm's schedule for a buffer of the
// given size (exactly as CommunicationTime would) and reports its
// certificate statistics without pricing it.
func InspectScheduleClasses(cfg Config, alg Algorithm, bytes int64) (ScheduleClassStats, error) {
	b, err := lowerBuffer(cfg, alg, bytes, nil)
	if err != nil {
		return ScheduleClassStats{}, err
	}
	cls := b.cls
	defer cls.Release()
	cert, mat, dem := cls.CertStats()
	return ScheduleClassStats{
		Algorithm:         cls.Algorithm,
		Steps:             cls.NumSteps(),
		CertifiedSteps:    cert,
		MaterializedSteps: mat,
		DemotedSteps:      dem,
		Classes:           cls.NumClasses(),
		Transfers:         cls.TotalTransfers(),
	}, nil
}
