// Package collective defines the schedule intermediate representation shared
// by every all-reduce algorithm in this repository, the baseline algorithms
// the paper compares against (Ring, Recursive Doubling), further classical
// baselines (Halving-Doubling, Binomial Tree, Hierarchical Ring, one-step
// All-to-All), and a synchronous data-level executor used to prove that every
// schedule actually computes an all-reduce.
//
// A Schedule is a sequence of synchronous steps; each step is a set of
// point-to-point transfers that happen simultaneously. Each transfer moves a
// contiguous region of the sender's buffer and either overwrites (OpCopy) or
// accumulates into (OpReduce) the same region at the receiver. Substrates
// (internal/optical, internal/electrical) cost the same schedules the
// executor verifies, so timing always refers to a schedule that provably
// reduces correctly.
package collective

import (
	"fmt"

	"wrht/internal/ring"
	"wrht/internal/tensor"
)

// Op is what the receiver does with an arriving region.
type Op int8

const (
	// OpReduce accumulates the arriving data into the receiver's region.
	OpReduce Op = iota
	// OpCopy overwrites the receiver's region with the arriving data.
	OpCopy
)

func (o Op) String() string {
	switch o {
	case OpReduce:
		return "reduce"
	case OpCopy:
		return "copy"
	default:
		return fmt.Sprintf("Op(%d)", int8(o))
	}
}

// Transfer is one point-to-point message inside a step.
type Transfer struct {
	Src, Dst int
	Region   tensor.Region
	Op       Op

	// Routed, when true, pins the transfer to travel Dir around the ring
	// (used by Wrht so intra-group traffic stays inside the group's arc).
	// When false the optical substrate routes along the shortest direction.
	Routed bool
	Dir    ring.Direction

	// Width is a stripe hint: the number of wavelengths the transfer should
	// use on the optical substrate. Zero lets the substrate decide.
	Width int
}

// Arc returns the ring path the optical substrate lights for the transfer:
// Dir when Routed, the shortest direction (CW on ties) otherwise.
func (tr Transfer) Arc(t ring.Topology) ring.Arc {
	if tr.Routed {
		return ring.Arc{Src: tr.Src, Dst: tr.Dst, Dir: tr.Dir}
	}
	return t.ShortestArc(tr.Src, tr.Dst)
}

func (tr Transfer) String() string {
	return fmt.Sprintf("%d->%d %v %v", tr.Src, tr.Dst, tr.Region, tr.Op)
}

// Step is a synchronous communication round.
type Step struct {
	Label     string
	Transfers []Transfer
}

// Schedule is a complete collective operation on N nodes over a flat buffer
// of Elems elements.
type Schedule struct {
	Algorithm string
	N         int
	Elems     int
	Steps     []Step
}

// NumSteps returns the number of synchronous steps.
func (s *Schedule) NumSteps() int { return len(s.Steps) }

// Nodes returns N (as a method, so code generic over boxed and classed
// schedules — e.g. energy accounting — can accept either).
func (s *Schedule) Nodes() int { return s.N }

// TotalTransfers returns the number of point-to-point transfers.
func (s *Schedule) TotalTransfers() int {
	n := 0
	for _, st := range s.Steps {
		n += len(st.Transfers)
	}
	return n
}

// TotalTrafficElems returns the total number of elements moved (sum over all
// transfers of region length), a substrate-independent traffic measure.
func (s *Schedule) TotalTrafficElems() int64 {
	var n int64
	for _, st := range s.Steps {
		for _, tr := range st.Transfers {
			n += int64(tr.Region.Len)
		}
	}
	return n
}

// Validate checks structural invariants: node indices in range, valid
// regions, no self-transfers, no node both sending and receiving conflicting
// writes in a way the synchronous semantics cannot order. Within a step a
// destination region written by OpCopy must not overlap any other write to
// the same destination; OpReduce writes may overlap each other (addition
// commutes).
func (s *Schedule) Validate() error {
	if s.N < 1 {
		return fmt.Errorf("collective: schedule has N=%d", s.N)
	}
	if s.Elems < 0 {
		return fmt.Errorf("collective: schedule has Elems=%d", s.Elems)
	}
	for si, st := range s.Steps {
		type write struct {
			region tensor.Region
			op     Op
		}
		writes := make(map[int][]write)
		for ti, tr := range st.Transfers {
			if tr.Src < 0 || tr.Src >= s.N || tr.Dst < 0 || tr.Dst >= s.N {
				return fmt.Errorf("collective: step %d transfer %d (%v) node out of range [0,%d)",
					si, ti, tr, s.N)
			}
			if tr.Src == tr.Dst {
				return fmt.Errorf("collective: step %d transfer %d is a self-transfer (%v)", si, ti, tr)
			}
			if !tr.Region.Valid(s.Elems) {
				return fmt.Errorf("collective: step %d transfer %d region %v outside buffer of %d",
					si, ti, tr.Region, s.Elems)
			}
			if tr.Width < 0 {
				return fmt.Errorf("collective: step %d transfer %d negative width", si, ti)
			}
			for _, w := range writes[tr.Dst] {
				if !w.region.Overlaps(tr.Region) {
					continue
				}
				if w.op == OpCopy || tr.Op == OpCopy {
					return fmt.Errorf("collective: step %d: conflicting writes to node %d region %v",
						si, tr.Dst, tr.Region)
				}
			}
			writes[tr.Dst] = append(writes[tr.Dst], write{tr.Region, tr.Op})
		}
	}
	return nil
}

// Execute runs the schedule against per-node buffers with synchronous-step
// semantics: within a step, every transfer reads the sender's buffer as it
// was when the step began. bufs must have length N, each buffer Elems long.
func (s *Schedule) Execute(bufs [][]float64) error {
	if len(bufs) != s.N {
		return fmt.Errorf("collective: %d buffers for N=%d", len(bufs), s.N)
	}
	for i, b := range bufs {
		if len(b) != s.Elems {
			return fmt.Errorf("collective: buffer %d has %d elems, want %d", i, len(b), s.Elems)
		}
	}
	for si, st := range s.Steps {
		// Stage: snapshot each transfer's payload before any mutation.
		payloads := make([][]float64, len(st.Transfers))
		for ti, tr := range st.Transfers {
			src := bufs[tr.Src][tr.Region.Offset:tr.Region.End()]
			payloads[ti] = append([]float64(nil), src...)
		}
		// Apply copies first, then reductions (validated non-conflicting).
		for pass := 0; pass < 2; pass++ {
			for ti, tr := range st.Transfers {
				if (pass == 0) != (tr.Op == OpCopy) {
					continue
				}
				dst := bufs[tr.Dst][tr.Region.Offset:tr.Region.End()]
				if tr.Op == OpCopy {
					copy(dst, payloads[ti])
				} else {
					for i := range dst {
						dst[i] += payloads[ti][i]
					}
				}
			}
		}
		_ = si
	}
	return nil
}

// VerifyAllReduce executes the schedule on deterministic per-node patterns
// and checks that every node ends with the exact elementwise sum of all
// inputs. It is the canonical correctness oracle for every algorithm in this
// repository, Wrht included.
func VerifyAllReduce(s *Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	bufs := make([][]float64, s.N)
	for node := range bufs {
		bufs[node] = make([]float64, s.Elems)
		tensor.Fill(bufs[node], node)
	}
	if err := s.Execute(bufs); err != nil {
		return err
	}
	for node := 0; node < s.N; node++ {
		for i := 0; i < s.Elems; i++ {
			want := tensor.ExpectedSum(s.N, i)
			if bufs[node][i] != want {
				return fmt.Errorf("collective: %s N=%d elems=%d: node %d element %d = %v, want %v",
					s.Algorithm, s.N, s.Elems, node, i, bufs[node][i], want)
			}
		}
	}
	return nil
}
