package exp_test

import (
	"testing"

	"wrht"
)

// The index space Run evaluates for a sweep is wrht.SweepSpec's grid. These
// tests pin it through wrht.RunSweep: Points() indices in a fixed nesting
// order that no worker count changes, and no dimension for an empty axis.
// sweep_test.go at the module root pins the order of every sweep mode.

func TestGridSizeAndDeterministicOrder(t *testing.T) {
	spec := wrht.SweepSpec{
		Nodes:        []int{16, 32},
		MessageBytes: []int64{1 << 10, 1 << 20, 1 << 30},
		Algorithms:   []wrht.Algorithm{wrht.AlgWrht, wrht.AlgORing},
	}
	if n, err := spec.Points(); err != nil || n != 12 {
		t.Fatalf("Points() = (%d, %v), want 12", n, err)
	}
	var first []wrht.SweepCell
	for _, par := range []int{1, 4} {
		spec.Parallelism = par
		res, err := wrht.RunSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != 12 {
			t.Fatalf("parallelism %d: %d cells, want 12", par, len(res.Cells))
		}
		// Fixed nesting: nodes outermost, then message sizes, then algorithms.
		i := 0
		for _, nodes := range spec.Nodes {
			for _, bytes := range spec.MessageBytes {
				for _, alg := range spec.Algorithms {
					c := res.Cells[i]
					if c.Err != nil || c.Index != i || c.Nodes != nodes || c.Bytes != bytes || c.Algorithm != alg {
						t.Fatalf("parallelism %d: cell %d = {Index %d, Nodes %d, Bytes %d, Algorithm %s, Err %v}, want {%d, %d, %d, %s}",
							par, i, c.Index, c.Nodes, c.Bytes, c.Algorithm, c.Err, i, nodes, bytes, alg)
					}
					i++
				}
			}
		}
		if first == nil {
			first = res.Cells
			continue
		}
		for i, c := range res.Cells {
			if c.Seconds != first[i].Seconds {
				t.Fatalf("cell %d: %g s at parallelism %d, %g s at parallelism 1", i, c.Seconds, par, first[i].Seconds)
			}
		}
	}
}

func TestGridEmptyAxesCollapse(t *testing.T) {
	base := wrht.DefaultConfig(16)
	for _, spec := range []wrht.SweepSpec{
		{Base: base, MessageBytes: []int64{1 << 16}},
		{Base: base, MessageBytes: []int64{1 << 16}, Nodes: []int{}, Wavelengths: []int{}, GroupSizes: []int{}, PipelineChunks: []int{}},
	} {
		if n, err := spec.Points(); err != nil || n != 1 {
			t.Fatalf("Points() = (%d, %v), want 1", n, err)
		}
		res, err := wrht.RunSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != 1 {
			t.Fatalf("%d cells, want 1", len(res.Cells))
		}
		c := res.Cells[0]
		if c.Err != nil || c.Index != 0 || c.Nodes != base.Nodes || c.Wavelengths != base.Optical.Wavelengths ||
			c.Algorithm != wrht.AlgWrht || c.GroupSize != base.WrhtGroupSize || c.PipelineChunks != base.PipelineChunks {
			t.Fatalf("cell = %+v, want Base's coordinates", c)
		}
	}
}
