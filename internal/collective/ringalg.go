package collective

import (
	"fmt"

	"wrht/internal/ring"
	"wrht/internal/tensor"
)

// RingAllReduce builds the bandwidth-optimal ring all-reduce of Patarasuk &
// Yuan: N-1 reduce-scatter steps followed by N-1 all-gather steps, each node
// exchanging 1/N of the buffer with its clockwise neighbor per step. This is
// the paper's E-Ring baseline (on the electrical substrate) and, restricted
// to a single wavelength, its O-Ring baseline.
func RingAllReduce(n, elems int) (*Schedule, error) {
	if n < 2 {
		return nil, fmt.Errorf("collective: ring all-reduce needs n >= 2, got %d", n)
	}
	if elems < 0 {
		return nil, fmt.Errorf("collective: negative elems %d", elems)
	}
	chunks := tensor.Chunks(elems, n)
	s := &Schedule{Algorithm: "ring", N: n, Elems: elems}

	// Reduce-scatter: in step t, node i sends chunk (i-t) mod n to node i+1,
	// which accumulates it. After n-1 steps node i fully owns chunk (i+1) mod n.
	for t := 0; t < n-1; t++ {
		st := Step{Label: fmt.Sprintf("reduce-scatter %d/%d", t+1, n-1)}
		for i := 0; i < n; i++ {
			c := ((i-t)%n + n) % n
			st.Transfers = append(st.Transfers, Transfer{
				Src: i, Dst: (i + 1) % n,
				Region: chunks[c],
				Op:     OpReduce,
				Routed: true, Dir: ring.CW,
			})
		}
		s.Steps = append(s.Steps, st)
	}

	// All-gather: in step t, node i sends chunk (i+1-t) mod n to node i+1,
	// which overwrites it.
	for t := 0; t < n-1; t++ {
		st := Step{Label: fmt.Sprintf("all-gather %d/%d", t+1, n-1)}
		for i := 0; i < n; i++ {
			c := ((i+1-t)%n + n) % n
			st.Transfers = append(st.Transfers, Transfer{
				Src: i, Dst: (i + 1) % n,
				Region: chunks[c],
				Op:     OpCopy,
				Routed: true, Dir: ring.CW,
			})
		}
		s.Steps = append(s.Steps, st)
	}
	return s, nil
}

// RingAllReduceClassed is RingAllReduce emitted directly in the
// symmetry-aware classed form, without materializing per-node transfers:
// every step is one orbit transfer (node 0 → node 1, CW) replicated N times
// at stride 1, with the chunk regions supplied as a rotation of the shared
// chunk ring. Build cost is O(N) for the whole schedule instead of O(N²);
// equality with RingAllReduce is enforced by property tests.
func RingAllReduceClassed(n, elems int) (*ClassSchedule, error) {
	if n < 2 {
		return nil, fmt.Errorf("collective: ring all-reduce needs n >= 2, got %d", n)
	}
	if elems < 0 {
		return nil, fmt.Errorf("collective: negative elems %d", elems)
	}
	b := NewClassScheduleBuilder("ring", n, elems)
	b.SetLenRing(tensor.Chunks(elems, n))
	orbit := Transfer{Src: 0, Dst: 1, Op: OpReduce, Routed: true, Dir: ring.CW}

	// Reduce-scatter: transfer i of step t moves chunk (i-t) mod n, i.e. the
	// chunk ring rotated by -t.
	for t := 0; t < n-1; t++ {
		b.StartSymRotated(fmt.Sprintf("reduce-scatter %d/%d", t+1, n-1), 1, n, ((-t)%n+n)%n)
		b.AddOrbit(orbit)
	}

	// All-gather: transfer i of step t moves chunk (i+1-t) mod n.
	orbit.Op = OpCopy
	for t := 0; t < n-1; t++ {
		b.StartSymRotated(fmt.Sprintf("all-gather %d/%d", t+1, n-1), 1, n, ((1-t)%n+n)%n)
		b.AddOrbit(orbit)
	}
	return b.Finish(), nil
}
