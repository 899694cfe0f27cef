package wrht

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sweepTestSpec exercises every communication axis at test-friendly scales,
// including a group size that is infeasible at both wavelength budgets so
// error capture is part of what determinism is asserted over.
func sweepTestSpec() SweepSpec {
	return SweepSpec{
		Nodes:       []int{16, 24},
		Wavelengths: []int{8, 16},
		Models:      []string{"AlexNet", "ResNet50"},
		Algorithms:  []Algorithm{AlgWrht, AlgORing, AlgERing},
		GroupSizes:  []int{0, 3, 129},
	}
}

// TestRunSweepDeterministicAcrossParallelism is the engine's golden test:
// the cells (values, order, and captured errors) and the plan-cache counters
// of a parallel run must be identical to the serial run's.
func TestRunSweepDeterministicAcrossParallelism(t *testing.T) {
	serial := sweepTestSpec()
	serial.Parallelism = 1
	parallel := sweepTestSpec()
	parallel.Parallelism = 8

	r1, err := RunSweep(serial)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSweep(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Cells) != 2*2*2*3*3 {
		t.Fatalf("%d cells", len(r1.Cells))
	}
	if !reflect.DeepEqual(r1.Cells, r2.Cells) {
		for i := range r1.Cells {
			if !reflect.DeepEqual(r1.Cells[i], r2.Cells[i]) {
				t.Fatalf("cell %d differs:\nserial:   %+v\nparallel: %+v",
					i, r1.Cells[i], r2.Cells[i])
			}
		}
		t.Fatal("cells differ")
	}
	if r1.PlanBuilds != r2.PlanBuilds || r1.PlanHits != r2.PlanHits {
		t.Fatalf("cache counters differ: serial (%d builds, %d hits), parallel (%d builds, %d hits)",
			r1.PlanBuilds, r1.PlanHits, r2.PlanBuilds, r2.PlanHits)
	}
	if r1.Failed == 0 {
		t.Fatal("expected the infeasible group size to fail some points")
	}
	failed := 0
	for i, c := range r1.Cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
		if c.Err != nil {
			failed++
			continue
		}
		if c.Seconds <= 0 || c.Comm == nil {
			t.Fatalf("cell %d: %+v", i, c)
		}
	}
	if failed != r1.Failed {
		t.Fatalf("Failed = %d, cells with Err = %d", r1.Failed, failed)
	}
	// The infeasible m=129 must fail exactly the Wrht points (⌊m/2⌋ = 64
	// exceeds both budgets) and leave the electrical/ring points alone.
	for _, c := range r1.Cells {
		wantErr := c.GroupSize == 129 && c.Algorithm == AlgWrht
		if (c.Err != nil) != wantErr {
			t.Fatalf("cell %d (%s m=%d): err = %v", c.Index, c.Algorithm, c.GroupSize, c.Err)
		}
	}
}

// TestRunSweepMatchesCommunicationTime pins the engine to the serial public
// path: same config, same algorithm, bit-identical seconds.
func TestRunSweepMatchesCommunicationTime(t *testing.T) {
	res, err := RunSweep(SweepSpec{
		Base:         DefaultConfig(16),
		Wavelengths:  []int{8, 16},
		MessageBytes: []int64{1 << 20},
		Algorithms:   []Algorithm{AlgWrht, AlgHD},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		cfg := DefaultConfig(16)
		cfg.Optical.Wavelengths = c.Wavelengths
		direct, err := CommunicationTime(cfg, c.Algorithm, c.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Seconds != c.Seconds {
			t.Fatalf("cell %d (%s w=%d): engine %.9g, direct %.9g",
				c.Index, c.Algorithm, c.Wavelengths, c.Seconds, direct.Seconds)
		}
		if !reflect.DeepEqual(*c.Comm, direct) {
			t.Fatalf("cell %d: result detail differs", c.Index)
		}
	}
}

func TestRunSweepPlanCacheIsShared(t *testing.T) {
	// 4 models × 1 node count × 1 budget through AlgWrht share one plan key:
	// exactly one build, three hits.
	res, err := RunSweep(SweepSpec{
		Nodes:  []int{24},
		Models: []string{"AlexNet", "VGG16", "ResNet50", "GoogLeNet"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.PlanBuilds != 1 || res.PlanHits != 3 {
		t.Fatalf("cache counters (%d builds, %d hits), want (1, 3)", res.PlanBuilds, res.PlanHits)
	}
}

func TestRunSweepFabricMode(t *testing.T) {
	cfg := fabricTestConfig()
	mix := FabricMix{Jobs: []JobSpec{
		{Name: "a", Bytes: 1 << 20},
		{Name: "b", Bytes: 4 << 20, ArrivalSec: 1e-4, Priority: 1},
		{Name: "c", Bytes: 2 << 20, ArrivalSec: 2e-4, MaxWavelengths: 4},
	}}
	res, err := RunSweep(SweepSpec{Base: cfg, FabricMixes: []FabricMix{mix}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(FabricPolicies()) {
		t.Fatalf("%d cells, want one per default policy", len(res.Cells))
	}
	direct, err := CompareFabricPolicies(cfg, mix.Jobs, FabricPolicies())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Cells {
		if c.Fabric == nil || c.FabricMix != "mix0" {
			t.Fatalf("cell %d: %+v", i, c)
		}
		if c.Seconds != direct[i].MakespanSec {
			t.Fatalf("policy %s: engine makespan %.9g, direct %.9g",
				c.FabricPolicy, c.Seconds, direct[i].MakespanSec)
		}
	}
}

func TestRunSweepMultiRackMode(t *testing.T) {
	res, err := RunSweep(SweepSpec{
		Racks:        []int{2, 4},
		NodesPerRack: []int{8},
		MessageBytes: []int64{1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	for _, c := range res.Cells {
		direct, err := MultiRackTime(DefaultConfig(2), c.Racks, c.NodesPerRack, c.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		if c.MultiRack == nil || c.Seconds != direct.TotalSec {
			t.Fatalf("racks %d: engine %.9g, direct %.9g", c.Racks, c.Seconds, direct.TotalSec)
		}
		if c.Nodes != c.Racks*c.NodesPerRack {
			t.Fatalf("cell worker count %d", c.Nodes)
		}
	}
	// The intra-rack plan goes through the shared cache: both rack counts
	// share one (nodesPerRack, wavelengths, options) key.
	if res.PlanBuilds != 1 || res.PlanHits != 1 {
		t.Fatalf("cache counters (%d builds, %d hits), want (1, 1)", res.PlanBuilds, res.PlanHits)
	}
}

func TestRunSweepSpecValidation(t *testing.T) {
	cases := map[string]SweepSpec{
		"no workload":       {Nodes: []int{16}},
		"two workload axes": {Nodes: []int{16}, Models: []string{"VGG16"}, MessageBytes: []int64{1}},
		"no nodes":          {Models: []string{"VGG16"}},
		"fabric plus multirack": {
			FabricMixes: []FabricMix{{}},
			Racks:       []int{2}, NodesPerRack: []int{8},
		},
		"fabric with comm axes": {
			Nodes:       []int{16},
			FabricMixes: []FabricMix{{}},
			Models:      []string{"VGG16"},
		},
		"fabric without mixes": {Nodes: []int{16}, FabricPolicies: FabricPolicies()},
		"multirack with nodes axis": {
			Nodes: []int{16}, Racks: []int{2}, NodesPerRack: []int{8},
			MessageBytes: []int64{1 << 20},
		},
		"multirack without workload": {Racks: []int{2}, NodesPerRack: []int{8}},
		"multirack without racks":    {NodesPerRack: []int{8}, MessageBytes: []int64{1 << 20}},
	}
	for name, spec := range cases {
		_, err := RunSweep(spec)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		// Points reports the same spec error without pricing anything.
		if n, perr := spec.Points(); n != 0 || perr == nil || perr.Error() != err.Error() {
			t.Errorf("%s: Points() = (%d, %v), RunSweep error %v", name, n, perr, err)
		}
	}
}

// sweepCoords is a cell's grid coordinates, without its priced detail.
type sweepCoords struct {
	Nodes, Racks, NodesPerRack, Wavelengths int
	Model                                   string
	Bytes                                   int64
	Algorithm                               Algorithm
	FabricMix                               string
	FabricPolicy                            string
}

func coordsOf(c SweepCell) sweepCoords {
	return sweepCoords{c.Nodes, c.Racks, c.NodesPerRack, c.Wavelengths,
		c.Model, c.Bytes, c.Algorithm, c.FabricMix, c.FabricPolicy.Kind}
}

// TestSweepGridOrder pins the cell order of each mode (a nested cartesian
// product, nodes outermost and fabric policy innermost) and that Points
// counts exactly the cells RunSweep returns, defaulted axes included.
func TestSweepGridOrder(t *testing.T) {
	mixes := []FabricMix{
		{Name: "solo", Jobs: []JobSpec{{Name: "a", Bytes: 1 << 16}}},
		{Jobs: []JobSpec{{Name: "a", Bytes: 1 << 16}, {Name: "b", Bytes: 1 << 17}}},
	}
	cases := []struct {
		name string
		spec SweepSpec
		want map[int]sweepCoords // spot checks by cell index
	}{
		{"comm: nodes, then bytes, then algorithms", SweepSpec{
			Nodes:        []int{16, 32},
			MessageBytes: []int64{1 << 10, 1 << 12, 1 << 14},
			Algorithms:   []Algorithm{AlgWrht, AlgORing},
		}, map[int]sweepCoords{
			0:  {Nodes: 16, Wavelengths: 64, Bytes: 1 << 10, Algorithm: AlgWrht},
			1:  {Nodes: 16, Wavelengths: 64, Bytes: 1 << 10, Algorithm: AlgORing},
			8:  {Nodes: 32, Wavelengths: 64, Bytes: 1 << 12, Algorithm: AlgWrht},
			11: {Nodes: 32, Wavelengths: 64, Bytes: 1 << 14, Algorithm: AlgORing},
		}},
		{"comm: empty axes pin to Base", SweepSpec{
			Base:         DefaultConfig(16),
			MessageBytes: []int64{1 << 16},
		}, map[int]sweepCoords{
			0: {Nodes: 16, Wavelengths: 64, Bytes: 1 << 16, Algorithm: AlgWrht},
		}},
		{"comm: defaulted algorithms", SweepSpec{
			Nodes:  []int{16},
			Models: []string{"AlexNet", "ResNet50"},
		}, map[int]sweepCoords{
			1: {Nodes: 16, Wavelengths: 64, Model: "ResNet50", Bytes: 102228128, Algorithm: AlgWrht},
		}},
		{"fabric: mix outside policy, policies defaulted", SweepSpec{
			Nodes:       []int{16, 32},
			FabricMixes: mixes,
		}, map[int]sweepCoords{
			1:  {Nodes: 16, Wavelengths: 64, FabricMix: "solo", FabricPolicy: FabricFirstFit},
			4:  {Nodes: 16, Wavelengths: 64, FabricMix: "mix1", FabricPolicy: FabricStatic},
			15: {Nodes: 32, Wavelengths: 64, FabricMix: "mix1", FabricPolicy: FabricElastic},
		}},
		{"multi-rack: racks, then nodes per rack, then wavelengths", SweepSpec{
			Racks:        []int{2, 4},
			NodesPerRack: []int{4, 8},
			Wavelengths:  []int{4, 8},
			MessageBytes: []int64{1 << 16},
		}, map[int]sweepCoords{
			1: {Nodes: 8, Racks: 2, NodesPerRack: 4, Wavelengths: 8, Bytes: 1 << 16},
			2: {Nodes: 16, Racks: 2, NodesPerRack: 8, Wavelengths: 4, Bytes: 1 << 16},
			4: {Nodes: 16, Racks: 4, NodesPerRack: 4, Wavelengths: 4, Bytes: 1 << 16},
		}},
	}
	for _, tc := range cases {
		res, err := RunSweep(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n, err := tc.spec.Points(); err != nil || n != len(res.Cells) {
			t.Fatalf("%s: Points() = (%d, %v), RunSweep returned %d cells", tc.name, n, err, len(res.Cells))
		}
		for i, c := range res.Cells {
			if c.Index != i || c.Err != nil {
				t.Fatalf("%s: cell %d: Index %d, err %v", tc.name, i, c.Index, c.Err)
			}
		}
		for i, want := range tc.want {
			if got := coordsOf(res.Cells[i]); got != want {
				t.Errorf("%s: cell %d = %+v, want %+v", tc.name, i, got, want)
			}
		}
	}
}

// TestSweepPointsSaturates: a grid too large to count reads math.MaxInt,
// not a wrapped product, and RunSweep (on both spellings) rejects a grid
// whose cells the runtime cannot allocate with an error naming the count,
// not a makeslice panic inside the worker pool.
func TestSweepPointsSaturates(t *testing.T) {
	ints := func(n int) []int { return make([]int, n) }
	full := SweepSpec{
		Nodes: ints(100), Racks: ints(100), NodesPerRack: ints(100),
		Wavelengths: ints(100), Models: make([]string, 100),
		MessageBytes: make([]int64, 100), Algorithms: make([]Algorithm, 100),
		GroupSizes: ints(100), GreedyA2A: make([]bool, 100),
		PipelineChunks: ints(100), FabricMixes: make([]FabricMix, 100),
		FabricPolicies: make([]FabricPolicy, 100),
	}
	if n := gridSize(full.axes()); n != math.MaxInt {
		t.Fatalf("twelve 100-entry axes: %d points, want math.MaxInt", n)
	}
	// The widest well-formed grid: the seven communication axes. 512^7 is
	// 2^63, one past math.MaxInt; 512^6 still counts exactly.
	comm := SweepSpec{
		Nodes: ints(512), Wavelengths: ints(512), MessageBytes: make([]int64, 512),
		Algorithms: make([]Algorithm, 512), GroupSizes: ints(512),
		GreedyA2A: make([]bool, 512),
	}
	rejected := func(name string, cells int) {
		want := fmt.Sprintf("sweep grid of %d cells", cells)
		for _, run := range []func(SweepSpec) (*SweepResult, error){
			RunSweep,
			func(s SweepSpec) (*SweepResult, error) {
				return NewSweepSession().RunSweepContext(context.Background(), s)
			},
		} {
			if res, err := run(comm); err == nil || !strings.Contains(err.Error(), want) || res != nil {
				t.Fatalf("%s: RunSweep = (%v, %v), want an error naming %q", name, res, err, want)
			}
		}
	}
	if n, err := comm.Points(); err != nil || n != 1<<54 {
		t.Fatalf("six 512-entry axes: Points() = (%d, %v), want 2^54", n, err)
	}
	rejected("six 512-entry axes", 1<<54)
	comm.PipelineChunks = ints(512)
	if n, err := comm.Points(); err != nil || n != math.MaxInt {
		t.Fatalf("seven 512-entry axes: Points() = (%d, %v), want math.MaxInt", n, err)
	}
	rejected("seven 512-entry axes", math.MaxInt)
}

func TestRunSweepCapturesBadModel(t *testing.T) {
	res, err := RunSweep(SweepSpec{Nodes: []int{16}, Models: []string{"nope"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Cells[0].Err == nil {
		t.Fatalf("unknown model not captured per point: %+v", res.Cells[0])
	}
	if res.Err() == nil {
		t.Fatal("Err() nil with a failed cell")
	}
}

// TestRunSweepScheduleAndSimCaches: the schedule layer dedupes across
// algorithms that lower identically (E-Ring and O-Ring share the ring
// schedule), and the simulation layer runs each distinct configuration
// exactly once however often the grid revisits it.
func TestRunSweepScheduleAndSimCaches(t *testing.T) {
	res, err := RunSweep(SweepSpec{
		Nodes:      []int{16},
		Models:     []string{"AlexNet"},
		Algorithms: []Algorithm{AlgERing, AlgORing, AlgORingStriped},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	// Three points, one underlying ring schedule: 1 build, 2 hits.
	if res.SchedBuilds != 1 || res.SchedHits != 2 {
		t.Fatalf("schedule cache counters (%d builds, %d hits), want (1, 2)",
			res.SchedBuilds, res.SchedHits)
	}
	// Three distinct substrate configurations: all simulate, none repeat.
	if res.SimRuns != 3 || res.SimHits != 0 {
		t.Fatalf("sim cache counters (%d runs, %d hits), want (3, 0)", res.SimRuns, res.SimHits)
	}
}

// TestRunSweepContextCanceled: a sweep whose context is already done keeps
// its grid shape and fills every cell with the context's error, serially
// and on the worker pool.
func TestRunSweepContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		spec := sweepTestSpec()
		spec.Parallelism = par
		res, err := NewSweepSession().RunSweepContext(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := spec.Points(); len(res.Cells) != n || res.Failed != n {
			t.Fatalf("par=%d: %d cells, %d failed, want %d of each", par, len(res.Cells), res.Failed, n)
		}
		for i, c := range res.Cells {
			if c.Index != i || !errors.Is(c.Err, context.Canceled) {
				t.Fatalf("par=%d: cell %d = (Index %d, err %v)", par, i, c.Index, c.Err)
			}
		}
	}
}
