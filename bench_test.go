// Benchmarks regenerate every quantitative result in the paper (and this
// repository's ablations). Each reported metric is a *simulated* time or
// derived statistic; ns/op measures the simulator itself.
//
//	go test -bench=Figure2 -benchmem          # the paper's only data figure
//	go test -bench=Headline                   # the 75.76% / 91.86% claims
//	go test -bench=. -benchmem                # everything, incl. ablations
//
// See EXPERIMENTS.md for the experiment ↔ benchmark index.
package wrht_test

import (
	"fmt"
	"testing"

	"wrht"
	"wrht/internal/core"
	"wrht/internal/report"
	"wrht/internal/ring"
	"wrht/internal/wdm"
)

var figure2Scales = []int{128, 256, 512, 1024}

// skipInShort marks the benchmarks whose single iteration simulates
// 512–1024-node ring schedules or GB-scale buffers; the CI smoke run
// (-short -benchtime=1x) exercises the rest.
func skipInShort(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy simulation; skipped in short mode")
	}
}

// BenchmarkSweepEngine compares the historical serial point-by-point pricing
// loop against the concurrent engine with its shared plan cache on the same
// 48-point grid (3 scales × 2 wavelength budgets × 4 models × 2 Wrht
// variants). ns/op is the wall clock; planBuilds/op counts core.BuildPlan
// invocations (the optimizer issues hundreds of candidate builds per
// distinct (nodes, wavelengths) pair, which the cache pays once instead of
// once per point).
func BenchmarkSweepEngine(b *testing.B) {
	nodes := []int{64, 128, 256}
	waves := []int{32, 64}
	algs := []wrht.Algorithm{wrht.AlgWrht, wrht.AlgWrhtUnstriped}
	models := wrht.Models()
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}

	b.Run("serial", func(b *testing.B) {
		start := core.PlanBuildCount()
		for i := 0; i < b.N; i++ {
			for _, n := range nodes {
				for _, w := range waves {
					for _, m := range models {
						for _, alg := range algs {
							cfg := wrht.DefaultConfig(n)
							cfg.Optical.Wavelengths = w
							if _, err := wrht.CommunicationTime(cfg, alg, m.Bytes); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
			}
		}
		b.ReportMetric(float64(core.PlanBuildCount()-start)/float64(b.N), "planBuilds/op")
	})
	b.Run("engine", func(b *testing.B) {
		spec := wrht.SweepSpec{
			Nodes:       nodes,
			Wavelengths: waves,
			Models:      names,
			Algorithms:  algs,
		}
		start := core.PlanBuildCount()
		for i := 0; i < b.N; i++ {
			res, err := wrht.RunSweep(spec)
			if err != nil {
				b.Fatal(err)
			}
			if err := res.Err(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(core.PlanBuildCount()-start)/float64(b.N), "planBuilds/op")
	})
}

// BenchmarkFigure2 regenerates Figure 2: per (model, N), the communication
// time of the paper's four algorithms, reported in milliseconds of simulated
// time (the paper's "normalized time" unit is ≈1 ms; see EXPERIMENTS.md).
func BenchmarkFigure2(b *testing.B) {
	skipInShort(b)
	for _, m := range wrht.Models() {
		for _, n := range figure2Scales {
			b.Run(fmt.Sprintf("%s/N%d", m.Name, n), func(b *testing.B) {
				cfg := wrht.DefaultConfig(n)
				var last map[wrht.Algorithm]float64
				for i := 0; i < b.N; i++ {
					last = map[wrht.Algorithm]float64{}
					for _, alg := range wrht.PaperAlgorithms() {
						r, err := wrht.CommunicationTime(cfg, alg, m.Bytes)
						if err != nil {
							b.Fatal(err)
						}
						last[alg] = r.Seconds
					}
				}
				b.ReportMetric(last[wrht.AlgERing]*1e3, "eRing_ms")
				b.ReportMetric(last[wrht.AlgRD]*1e3, "rd_ms")
				b.ReportMetric(last[wrht.AlgORing]*1e3, "oRing_ms")
				b.ReportMetric(last[wrht.AlgWrht]*1e3, "wrht_ms")
			})
		}
	}
}

// BenchmarkHeadlineReduction reproduces the abstract's claims: WRHT reduces
// communication time by 75.76% vs the electrical algorithms and 91.86% vs
// the optical ring (averaged over Figure 2's 4 models × 4 scales).
func BenchmarkHeadlineReduction(b *testing.B) {
	skipInShort(b)
	var vsERing, vsElec, vsORing float64
	for i := 0; i < b.N; i++ {
		vsERing, vsElec, vsORing = 0, 0, 0
		count := 0
		for _, m := range wrht.Models() {
			for _, n := range figure2Scales {
				cfg := wrht.DefaultConfig(n)
				get := func(a wrht.Algorithm) float64 {
					r, err := wrht.CommunicationTime(cfg, a, m.Bytes)
					if err != nil {
						b.Fatal(err)
					}
					return r.Seconds
				}
				w, e, rd, o := get(wrht.AlgWrht), get(wrht.AlgERing), get(wrht.AlgRD), get(wrht.AlgORing)
				vsERing += 1 - w/e
				vsElec += 1 - w/((e+rd)/2)
				vsORing += 1 - w/o
				count++
			}
		}
		vsERing /= float64(count)
		vsElec /= float64(count)
		vsORing /= float64(count)
	}
	b.ReportMetric(100*vsERing, "vsERing_pct")
	b.ReportMetric(100*vsElec, "vsElectrical_pct") // paper: 75.76
	b.ReportMetric(100*vsORing, "vsORing_pct")     // paper: 91.86
}

// BenchmarkStepCounts verifies/reports the paper's step-count law
// 2⌈log_m N⌉ (−1) across the Figure-2 scales for representative group sizes.
func BenchmarkStepCounts(b *testing.B) {
	for _, n := range figure2Scales {
		for _, m := range []int{3, 9, 129} {
			b.Run(fmt.Sprintf("N%d/m%d", n, m), func(b *testing.B) {
				var steps int
				for i := 0; i < b.N; i++ {
					p, err := core.BuildPlan(n, 64, core.Options{M: m, Policy: core.A2AFormula, Striping: true})
					if err != nil {
						b.Fatal(err)
					}
					steps = p.NumSteps()
					if steps > p.StepsUpperBound() {
						b.Fatalf("steps %d exceed paper bound %d", steps, p.StepsUpperBound())
					}
				}
				b.ReportMetric(float64(steps), "steps")
				b.ReportMetric(float64(2*core.CeilLogM(m, n)), "paper_bound")
			})
		}
	}
}

// BenchmarkWavelengthDemand reports the paper's wavelength requirements:
// ⌊m/2⌋ per tree step and ⌈r²/8⌉ (Liang–Shen) for the final all-to-all,
// against the colors an actual First-Fit assignment uses.
func BenchmarkWavelengthDemand(b *testing.B) {
	for _, r := range []int{2, 4, 8, 13, 16} {
		b.Run(fmt.Sprintf("alltoall/r%d", r), func(b *testing.B) {
			topo := ring.MustNew(r * 8)
			nodes := make([]int, r)
			for i := range nodes {
				nodes[i] = i * 8
			}
			var colors int
			for i := 0; i < b.N; i++ {
				demands := wdm.AllToAllDemandsBalanced(topo, nodes, 1)
				asg, err := wdm.Assign(topo, demands, wdm.FirstFit, wdm.LongestFirst)
				if err != nil {
					b.Fatal(err)
				}
				colors = asg.NumColors
			}
			b.ReportMetric(float64(colors), "firstfit_colors")
			b.ReportMetric(float64(wdm.LiangShenBound(r)), "liang_shen_bound")
		})
	}
	for _, m := range []int{3, 9, 17, 129} {
		b.Run(fmt.Sprintf("tree/m%d", m), func(b *testing.B) {
			var demand int
			for i := 0; i < b.N; i++ {
				p, err := core.BuildPlan(1024, 64, core.Options{M: m, Policy: core.A2AFormula, Striping: false})
				if err != nil {
					b.Fatal(err)
				}
				demand = 0
				for _, lvl := range p.ReduceLevels {
					if lvl.Demand > demand {
						demand = lvl.Demand
					}
				}
			}
			b.ReportMetric(float64(demand), "tree_demand")
			b.ReportMetric(float64(m/2), "paper_half_m")
		})
	}
}

// BenchmarkAblationStriping (A1): what wavelength striping buys Wrht, and
// how a striped ring baseline would compare (the paper's O-Ring is
// unstriped by definition).
func BenchmarkAblationStriping(b *testing.B) {
	skipInShort(b)
	m := wrht.MustModel("VGG16")
	for _, n := range []int{128, 1024} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			cfg := wrht.DefaultConfig(n)
			var striped, unstriped, ringStriped float64
			for i := 0; i < b.N; i++ {
				for _, c := range []struct {
					alg wrht.Algorithm
					dst *float64
				}{
					{wrht.AlgWrht, &striped},
					{wrht.AlgWrhtUnstriped, &unstriped},
					{wrht.AlgORingStriped, &ringStriped},
				} {
					r, err := wrht.CommunicationTime(cfg, c.alg, m.Bytes)
					if err != nil {
						b.Fatal(err)
					}
					*c.dst = r.Seconds
				}
			}
			b.ReportMetric(striped*1e3, "wrht_ms")
			b.ReportMetric(unstriped*1e3, "wrht_unstriped_ms")
			b.ReportMetric(ringStriped*1e3, "oRingStriped_ms")
		})
	}
}

// BenchmarkAblationFitPolicy (A2): First Fit vs Best Fit wavelength
// assignment (paper §2 cites both) on all-to-all demand sets.
func BenchmarkAblationFitPolicy(b *testing.B) {
	for _, r := range []int{8, 13, 16} {
		b.Run(fmt.Sprintf("r%d", r), func(b *testing.B) {
			topo := ring.MustNew(r * 8)
			nodes := make([]int, r)
			for i := range nodes {
				nodes[i] = i * 8
			}
			demands := wdm.AllToAllDemandsBalanced(topo, nodes, 1)
			var ff, bf int
			for i := 0; i < b.N; i++ {
				a1, err := wdm.Assign(topo, demands, wdm.FirstFit, wdm.LongestFirst)
				if err != nil {
					b.Fatal(err)
				}
				a2, err := wdm.Assign(topo, demands, wdm.BestFit, wdm.LongestFirst)
				if err != nil {
					b.Fatal(err)
				}
				ff, bf = a1.NumColors, a2.NumColors
			}
			b.ReportMetric(float64(ff), "firstfit_colors")
			b.ReportMetric(float64(bf), "bestfit_colors")
		})
	}
}

// BenchmarkAblationGroupSize (A3): Wrht's time as a function of the group
// size m at N=1024, showing the optimizer's choice is the sweet spot.
func BenchmarkAblationGroupSize(b *testing.B) {
	m := wrht.MustModel("VGG16")
	for _, gs := range []int{0, 2, 3, 9, 33, 129} {
		name := fmt.Sprintf("m%d", gs)
		if gs == 0 {
			name = "optimizer"
		}
		b.Run(name, func(b *testing.B) {
			cfg := wrht.DefaultConfig(1024)
			cfg.WrhtGroupSize = gs
			var sec float64
			for i := 0; i < b.N; i++ {
				r, err := wrht.CommunicationTime(cfg, wrht.AlgWrht, m.Bytes)
				if err != nil {
					b.Fatal(err)
				}
				sec = r.Seconds
			}
			b.ReportMetric(sec*1e3, "wrht_ms")
		})
	}
}

// BenchmarkTrainingIteration (A4): one bucketed-overlap DDP iteration per
// interconnect — the paper's motivating 50–90% communication share.
func BenchmarkTrainingIteration(b *testing.B) {
	for _, alg := range []wrht.Algorithm{wrht.AlgERing, wrht.AlgWrht} {
		b.Run(string(alg), func(b *testing.B) {
			cfg := wrht.DefaultConfig(1024)
			var rep wrht.IterationReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = wrht.TrainingIteration(cfg, alg, "VGG16", 25<<20)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.IterationSec*1e3, "iteration_ms")
			b.ReportMetric(100*rep.CommShare, "comm_share_pct")
			b.ReportMetric(100*rep.ScalingEfficiency, "scaling_eff_pct")
		})
	}
}

// BenchmarkSimulatorThroughput measures the simulators themselves (ns/op
// and allocs/op are the honest metrics here): a full Figure-2 cell at the
// paper's largest scale plus the classed-pricing scale N=16384 — routine
// since symmetry-aware pricing dropped the hot path from O(N²) to ~O(N) —
// or, in short mode so CI's regression gates can run it on every push, at
// N=128. Sub-benchmark names carry the scale so cmd/bench's committed
// ceilings and time baselines compare like with like.
func BenchmarkSimulatorThroughput(b *testing.B) {
	scales := []int{1024, 16384}
	if testing.Short() {
		scales = []int{128}
	}
	m := wrht.MustModel("GoogLeNet")
	for _, n := range scales {
		cfg := wrht.DefaultConfig(n)
		for _, alg := range wrht.PaperAlgorithms() {
			b.Run(fmt.Sprintf("%s/N%d", alg, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := wrht.CommunicationTime(cfg, alg, m.Bytes); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOpticalsimThroughput measures the message-level discrete-event
// simulator (the typed 4-ary heap engine) in both modes on a Wrht schedule.
func BenchmarkOpticalsimThroughput(b *testing.B) {
	n := 256
	if testing.Short() {
		n = 64
	}
	m := wrht.MustModel("ResNet50")
	cfg := wrht.DefaultConfig(n)
	for _, async := range []bool{false, true} {
		name := fmt.Sprintf("barrier/N%d", n)
		if async {
			name = fmt.Sprintf("async/N%d", n)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wrht.EventLevelTime(cfg, wrht.AlgWrht, m.Bytes, async); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFabricCoSim measures the multi-tenant fabric co-simulation: a
// three-policy comparison over a mixed job set on a shared SweepSession, the
// path that exercises the plan, schedule, and simulation caches together —
// per-job pricing runs through the session's simulation cache, so steady-state
// iterations re-simulate nothing and allocs/op measures the co-sim itself.
func BenchmarkFabricCoSim(b *testing.B) {
	n := 64
	if testing.Short() {
		n = 16
	}
	cfg := wrht.DefaultConfig(n)
	jobs := []wrht.JobSpec{
		{Name: "serve", Model: "AlexNet", Priority: 2, MaxWavelengths: 16},
		{Name: "train", Model: "VGG16", ArrivalSec: 1e-3},
		{Name: "batch", Bytes: 8 << 20, Algorithm: wrht.AlgORing},
	}
	// The historical three grant-once policies, pinned explicitly so the
	// benchmark keeps measuring the same work as committed baselines
	// (FabricPolicies() also returns elastic, which BenchmarkFabricElastic
	// covers separately).
	policies := []wrht.FabricPolicy{
		{Kind: wrht.FabricStatic},
		{Kind: wrht.FabricFirstFit},
		{Kind: wrht.FabricPriority},
	}
	sess := wrht.NewSweepSession()
	b.Run(fmt.Sprintf("3policies/N%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sess.CompareFabricPolicies(cfg, jobs, policies); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFabricElastic measures the elastic re-allocation co-simulation
// on the canonical departure-heavy mix (EXPERIMENTS.md F2): every departure
// re-solves the stripe assignment and reconfigures running tenants, so this
// is the heaviest dispatch path in internal/fabric. Runtime curves come
// warm from the shared SweepSession after the first iteration; steady-state
// allocs/op measures the elastic scheduler itself.
func BenchmarkFabricElastic(b *testing.B) {
	n := 64
	if testing.Short() {
		n = 16
	}
	cfg := wrht.DefaultConfig(n)
	mix := report.ChurnMix()
	pol := wrht.FabricPolicy{Kind: wrht.FabricElastic, ReconfigDelaySec: 2e-6}
	sess := wrht.NewSweepSession()
	b.Run(fmt.Sprintf("churn/N%d", n), func(b *testing.B) {
		b.ReportAllocs()
		var last wrht.FabricResult
		for i := 0; i < b.N; i++ {
			res, err := sess.SimulateFabric(cfg, mix.Jobs, pol)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		reconfigs := 0
		for _, j := range last.Jobs {
			reconfigs += j.Reconfigs
		}
		b.ReportMetric(float64(reconfigs), "reconfigs/op")
		b.ReportMetric(last.MakespanSec*1e3, "makespan-ms")
	})
}

// fleetBenchFabrics builds the benchmark fleet by cycling three pod
// classes (the same heterogeneity pattern as cmd/fabricsim -scenario
// trace): big 16 λ pods, mid 8 λ pods, and small 4 λ edge fabrics.
func fleetBenchFabrics(n int) []wrht.FleetFabricSpec {
	classes := []wrht.FleetFabricSpec{
		{Nodes: 32, Wavelengths: 16, ReconfigDelaySec: 2e-6, MigrationCostSec: 20e-3},
		{Nodes: 16, Wavelengths: 8, ReconfigDelaySec: 5e-6, MigrationCostSec: 10e-3},
		{Nodes: 16, Wavelengths: 4, ReconfigDelaySec: 10e-6, MigrationCostSec: 5e-3},
	}
	out := make([]wrht.FleetFabricSpec, n)
	for i := range out {
		out[i] = classes[i%len(classes)]
		out[i].Name = fmt.Sprintf("pod%02d", i)
	}
	return out
}

// BenchmarkFabricTrace is the headline fleet benchmark (EXPERIMENTS.md F4):
// a seeded million-event Poisson arrival trace (250k jobs, ~1.5M executed
// events) placed across a 16-fabric heterogeneous fleet in aggregate-only
// lite mode, every fabric running the incremental elastic solver at ~79%
// utilization. Runtime curves come warm from the shared SweepSession after
// the first iteration, so steady-state ns/op measures trace placement plus
// the incremental re-solve path itself. cmd/bench holds this benchmark to
// a committed wall-time gate (cmd/bench/timegates.json: the trace must
// price in ≤ 10 s/op); the short CI variant runs 20k jobs on 8 fabrics.
func BenchmarkFabricTrace(b *testing.B) {
	nFab, nJobs, gap := 16, 250000, 0.01
	if testing.Short() {
		nFab, nJobs, gap = 8, 20000, 0.02
	}
	cfg := wrht.DefaultConfig(32)
	fabrics := fleetBenchFabrics(nFab)
	shapes := report.FleetChurnShapes()
	jobs, err := wrht.GenerateFleetTrace(wrht.FleetTraceSpec{
		Kind: "poisson", Jobs: nJobs, Seed: 1, MeanGapSec: gap,
		NumShapes: len(shapes), NumFabrics: nFab, MaxWidth: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	sess := wrht.NewSweepSession()
	b.Run(fmt.Sprintf("poisson/%dfabrics/%dkjobs", nFab, nJobs/1000), func(b *testing.B) {
		b.ReportAllocs()
		var last wrht.FleetResult
		for i := 0; i < b.N; i++ {
			res, err := sess.SimulateFleet(cfg, fabrics, shapes, jobs,
				wrht.FleetOptions{Placement: wrht.FleetLeastLoaded, Lite: true})
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(float64(last.EngineEvents), "events/op")
		b.ReportMetric(float64(last.SolverSolves), "solves/op")
		if total := last.SolverTiersTouched + last.SolverTiersSkipped; total > 0 {
			b.ReportMetric(100*float64(last.SolverTiersSkipped)/float64(total), "tiersSkipped%")
		}
		b.ReportMetric(100*last.Utilization, "util%")
	})
}

// BenchmarkFabricFaults measures the fault-injection path (EXPERIMENTS.md
// F5): the fleet trace of BenchmarkFabricTrace's short scale replayed
// under a seeded failure model spanning all three fault classes, with
// migration recovery. Steady-state ns/op measures fault expansion,
// checkpoint rollback/replay, eviction and parked-retry machinery on top
// of the trace-placement path; allocs/op is gated by
// cmd/bench/ceilings.json like every other headline benchmark. The
// heavytail-bestfit case is shaped like perfbench's fleet-churn workload
// (a heavy-tail trace at about its per-wavelength arrival rate, best-fit
// placement): its wait queues run tens to hundreds of jobs deep, so the
// elastic solver's deep-queue admission path is gated too. It runs once
// untimed first, so its allocs/op is the warm steady state whether or not
// another case warmed the session's runtime curves before it.
func BenchmarkFabricFaults(b *testing.B) {
	nFab, nJobs := 8, 20000
	if testing.Short() {
		nFab, nJobs = 4, 4000
	}
	cfg := wrht.DefaultConfig(32)
	fabrics := fleetBenchFabrics(nFab)
	shapes := report.FleetChurnShapes()
	sess := wrht.NewSweepSession()
	for _, c := range []struct {
		name, kind, placement string
		gap                   float64
		warm                  bool
	}{
		{"migrate", "poisson", wrht.FleetLeastLoaded, 0.02, false},
		{"heavytail-bestfit", "heavy-tail", wrht.FleetBestFit, 0.16 / float64(nFab), true},
	} {
		jobs, err := wrht.GenerateFleetTrace(wrht.FleetTraceSpec{
			Kind: c.kind, Jobs: nJobs, Seed: 1, MeanGapSec: c.gap,
			NumShapes: len(shapes), NumFabrics: nFab, MaxWidth: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		span := 0.0
		for i := range jobs {
			jobs[i].CheckpointEverySec = 50e-3
			if jobs[i].ArrivalSec > span {
				span = jobs[i].ArrivalSec
			}
		}
		plan := wrht.FaultPlan{
			Seed:              1,
			HorizonSec:        0.75 * span,
			WavelengthMTBFSec: span / 60,
			WavelengthMTTRSec: span / 600,
			JobFaultMTBFSec:   span / 30,
			FabricMTBFSec:     span / 6,
			FabricMTTRSec:     span / 300,
		}
		opt := wrht.FleetOptions{
			Placement: c.placement, Lite: true,
			Faults: plan, Recovery: wrht.RecoveryMigrateOnFailure,
		}
		b.Run(fmt.Sprintf("%s/%dfabrics/%dkjobs", c.name, nFab, nJobs/1000), func(b *testing.B) {
			b.ReportAllocs()
			if c.warm {
				if _, err := sess.SimulateFleet(cfg, fabrics, shapes, jobs, opt); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
			}
			var last wrht.FleetResult
			for i := 0; i < b.N; i++ {
				res, err := sess.SimulateFleet(cfg, fabrics, shapes, jobs, opt)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			if last.Retries == 0 || last.Outages == 0 {
				b.Fatalf("fault plan injected nothing: %+v", last)
			}
			b.ReportMetric(float64(last.EngineEvents), "events/op")
			b.ReportMetric(float64(last.Retries), "retries/op")
			b.ReportMetric(float64(last.Evictions), "evictions/op")
			b.ReportMetric(100*last.Availability, "avail%")
		})
	}
}

// BenchmarkExtensionFigure (beyond the paper): the Figure-2 grid on
// transformer workloads — BERT-Large (1.34 GB gradients) and GPT-2 XL
// (6.23 GB) — showing the paper's ordering survives at modern model sizes.
func BenchmarkExtensionFigure(b *testing.B) {
	skipInShort(b)
	for _, name := range []string{"BERT-Large", "GPT-2-XL"} {
		m := wrht.MustModel(name)
		for _, n := range []int{128, 1024} {
			b.Run(fmt.Sprintf("%s/N%d", name, n), func(b *testing.B) {
				cfg := wrht.DefaultConfig(n)
				var last map[wrht.Algorithm]float64
				for i := 0; i < b.N; i++ {
					last = map[wrht.Algorithm]float64{}
					for _, alg := range wrht.PaperAlgorithms() {
						r, err := wrht.CommunicationTime(cfg, alg, m.Bytes)
						if err != nil {
							b.Fatal(err)
						}
						last[alg] = r.Seconds
					}
				}
				b.ReportMetric(last[wrht.AlgERing]*1e3, "eRing_ms")
				b.ReportMetric(last[wrht.AlgRD]*1e3, "rd_ms")
				b.ReportMetric(last[wrht.AlgORing]*1e3, "oRing_ms")
				b.ReportMetric(last[wrht.AlgWrht]*1e3, "wrht_ms")
			})
		}
	}
}

// BenchmarkAblationPipelining (A5, beyond the paper): the chunked-pipeline
// extension versus plain Wrht, in both striping regimes, VGG16 at N=1024.
func BenchmarkAblationPipelining(b *testing.B) {
	skipInShort(b)
	m := wrht.MustModel("VGG16")
	cases := []struct {
		name   string
		alg    wrht.Algorithm
		chunks int
	}{
		{"unstriped/plain", wrht.AlgWrhtUnstriped, 0},
		{"unstriped/pipelined64", wrht.AlgWrhtPipelined, 64},
		{"unstriped/pipelined256", wrht.AlgWrhtPipelined, 256},
		{"striped/plain", wrht.AlgWrht, 0},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := wrht.DefaultConfig(1024)
			cfg.PipelineChunks = c.chunks
			// Fix m=3 across variants: pipelining rewards deep trees, and the
			// unstriped optimizer would otherwise pick a shallow plan.
			cfg.WrhtGroupSize = 3
			var sec float64
			for i := 0; i < b.N; i++ {
				r, err := wrht.CommunicationTime(cfg, c.alg, m.Bytes)
				if err != nil {
					b.Fatal(err)
				}
				sec = r.Seconds
			}
			b.ReportMetric(sec*1e3, "time_ms")
		})
	}
}

// BenchmarkEnergy (extension): joules per all-reduce — the paper's "low
// power cost" motivation, quantified with silicon-photonics vs 100GbE
// energy constants.
func BenchmarkEnergy(b *testing.B) {
	skipInShort(b)
	m := wrht.MustModel("VGG16")
	for _, alg := range []wrht.Algorithm{wrht.AlgERing, wrht.AlgORing, wrht.AlgWrht} {
		b.Run(string(alg), func(b *testing.B) {
			cfg := wrht.DefaultConfig(1024)
			var rep wrht.EnergyReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = wrht.EnergyEstimate(cfg, alg, m.Bytes)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.TotalJ, "total_J")
			b.ReportMetric(rep.DynamicJ, "dynamic_J")
			b.ReportMetric(rep.StaticJ, "static_J")
		})
	}
}

// BenchmarkAsyncVsBarrier (extension): what dropping global step barriers
// would buy a runtime, via the message-level event simulator.
func BenchmarkAsyncVsBarrier(b *testing.B) {
	skipInShort(b)
	m := wrht.MustModel("ResNet50")
	cfg := wrht.DefaultConfig(256)
	var barrier, async float64
	for i := 0; i < b.N; i++ {
		rb, err := wrht.EventLevelTime(cfg, wrht.AlgWrht, m.Bytes, false)
		if err != nil {
			b.Fatal(err)
		}
		ra, err := wrht.EventLevelTime(cfg, wrht.AlgWrht, m.Bytes, true)
		if err != nil {
			b.Fatal(err)
		}
		barrier, async = rb.Seconds, ra.Seconds
	}
	b.ReportMetric(barrier*1e3, "barrier_ms")
	b.ReportMetric(async*1e3, "async_ms")
}

// BenchmarkMultiRack (E12, beyond the paper): hierarchical all-reduce over
// 8 racks × 128 nodes vs the flat electrical ring.
func BenchmarkMultiRack(b *testing.B) {
	skipInShort(b)
	m := wrht.MustModel("VGG16")
	cfg := wrht.DefaultConfig(1)
	var res wrht.MultiRackResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = wrht.MultiRackTime(cfg, 8, 128, m.Bytes)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TotalSec*1e3, "hierarchy_ms")
	b.ReportMetric(res.InterSec*1e3, "inter_ms")
	b.ReportMetric(res.FlatERingSec*1e3, "flatERing_ms")
}
