package fabric

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wrht/internal/sim"
)

// boolPool is the free pool's reference: one flag per wavelength, first
// fit from the lowest index, dark wavelengths settled from the highest free
// index and restored in LIFO order.
type boolPool struct {
	free       []bool
	dark       []int
	darkTarget int
}

func newBoolPool(budget int) *boolPool {
	p := &boolPool{free: make([]bool, budget)}
	for c := range p.free {
		p.free[c] = true
	}
	return p
}

func (p *boolPool) nfree() int {
	n := 0
	for _, f := range p.free {
		if f {
			n++
		}
	}
	return n
}

func (p *boolPool) allocate(width int) []int {
	var waves []int
	for c := 0; c < len(p.free) && len(waves) < width; c++ {
		if p.free[c] {
			p.free[c] = false
			waves = append(waves, c)
		}
	}
	return waves
}

func (p *boolPool) release(waves []int) {
	for _, c := range waves {
		p.free[c] = true
	}
}

func (p *boolPool) settleDark() {
	for len(p.dark) < p.darkTarget {
		c := -1
		for i := len(p.free) - 1; i >= 0; i-- {
			if p.free[i] {
				c = i
				break
			}
		}
		if c < 0 {
			return
		}
		p.free[c] = false
		p.dark = append(p.dark, c)
	}
}

func (p *boolPool) up(k int) {
	p.darkTarget -= min(k, p.darkTarget)
	for len(p.dark) > p.darkTarget {
		n := len(p.dark) - 1
		p.free[p.dark[n]] = true
		p.dark = p.dark[:n]
	}
}

// TestFreePoolMatchesBoolReference drives the word-bitmap free pool
// through seeded allocate, release, darken and restore sequences at
// budgets on both sides of the 64-bit word boundaries, and holds every
// grant, the dark indices in restore order, the free count and the pool
// itself to the one-flag-per-wavelength reference.
func TestFreePoolMatchesBoolReference(t *testing.T) {
	for _, budget := range []int{1, 4, 63, 64, 65, 130} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(budget)))
			sch, err := NewScheduler(&sim.Engine{}, budget, Policy{Kind: FirstFitShare}, SchedOpts{})
			if err != nil {
				t.Fatal(err)
			}
			s := sch.s
			ref := newBoolPool(budget)
			var held []*jobRec
			var refHeld [][]int
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(8); {
				case op < 3 && s.load.Free > 0:
					w := 1 + rng.Intn(s.load.Free)
					r := new(jobRec)
					s.allocate(r, w)
					held = append(held, r)
					refHeld = append(refHeld, ref.allocate(w))
				case op < 6 && len(held) > 0:
					i := rng.Intn(len(held))
					s.release(held[i].waves)
					ref.release(refHeld[i])
					held = slices.Delete(held, i, i+1)
					refHeld = slices.Delete(refHeld, i, i+1)
				case op == 6 && s.darkTarget < budget:
					k := 1 + rng.Intn(budget-s.darkTarget)
					s.darkTarget += k
					s.settleDark()
					ref.darkTarget += k
					ref.settleDark()
				case op == 7:
					k := 1 + rng.Intn(budget)
					s.wavelengthsUp(k)
					ref.up(k)
					// Restored capacity settles any dark backlog the
					// way the dispatch paths do.
					s.settleDark()
					ref.settleDark()
				}
				for i, r := range held {
					if !slices.Equal(r.waves, refHeld[i]) {
						t.Fatalf("budget %d seed %d step %d: grant %d is %v, reference %v",
							budget, seed, step, i, r.waves, refHeld[i])
					}
				}
				if !slices.Equal(s.darkIdx, ref.dark) {
					t.Fatalf("budget %d seed %d step %d: dark %v, reference %v",
						budget, seed, step, s.darkIdx, ref.dark)
				}
				if s.load.Free != ref.nfree() || s.darkCount != len(ref.dark) {
					t.Fatalf("budget %d seed %d step %d: nfree %d dark %d, reference %d and %d",
						budget, seed, step, s.load.Free, s.darkCount, ref.nfree(), len(ref.dark))
				}
				for c := 0; c < 64*len(s.free); c++ {
					bit := s.free[c>>6]&(1<<(c&63)) != 0
					if want := c < budget && ref.free[c]; bit != want {
						t.Fatalf("budget %d seed %d step %d: wavelength %d free %v, reference %v",
							budget, seed, step, c, bit, want)
					}
				}
			}
		}
	}
}

// TestFreePoolDoubleFreePanics checks release still refuses a wavelength
// that is already free, past the first word too.
func TestFreePoolDoubleFreePanics(t *testing.T) {
	sch, err := NewScheduler(&sim.Engine{}, 130, Policy{Kind: FirstFitShare}, SchedOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s := sch.s
	r := new(jobRec)
	s.allocate(r, 100)
	s.release(r.waves[90:])
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "double free of wavelength 90") {
			t.Fatalf("second release panicked with %q, want a double free of wavelength 90", msg)
		}
	}()
	s.release(r.waves[90:91])
}
