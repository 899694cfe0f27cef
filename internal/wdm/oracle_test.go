package wdm

import (
	"fmt"
	"slices"

	"wrht/internal/ring"
)

// Test references: a naive all-to-all routing, the link-load lower bound
// and an exhaustive optimal coloring, which the package's routings and
// wavelength heuristics are checked against.

// AllToAllDemands builds the demand set for a single-step all-to-all among
// the given nodes: one transfer per ordered pair, routed along the shortest
// ring direction, each of the given stripe width. Antipodal ties alternate
// CW/CCW by source index so the two waveguides carry equal load.
func AllToAllDemands(t ring.Topology, nodes []int, width int) []Demand {
	var out []Demand
	for si, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			cw, ccw := t.Dist(src, dst, ring.CW), t.Dist(src, dst, ring.CCW)
			dir := ring.CW
			switch {
			case ccw < cw:
				dir = ring.CCW
			case ccw == cw && si%2 == 1:
				dir = ring.CCW
			}
			out = append(out, Demand{Arc: ring.Arc{Src: src, Dst: dst, Dir: dir}, Width: width})
		}
	}
	return out
}

// MaxLinkLoad returns the maximum, over directed links, of the total demand
// width crossing the link. It is a lower bound on the number of wavelengths
// any assignment needs.
func MaxLinkLoad(t ring.Topology, demands []Demand) (int, error) {
	load := make([]int, t.NumLinks())
	for _, d := range demands {
		links, err := arcLinks(t, d.Arc)
		if err != nil {
			return 0, err
		}
		for _, l := range links {
			load[l] += d.Width
		}
	}
	max := 0
	for _, v := range load {
		if v > max {
			max = v
		}
	}
	return max, nil
}

// OptimalColors finds the minimum number of wavelengths for width-1 demands
// by exhaustive search. It is exponential and intended only for validating
// heuristics on small instances (len(demands) <= ~12).
func OptimalColors(t ring.Topology, demands []Demand) (int, error) {
	links := make([][]int, len(demands))
	for i, d := range demands {
		if d.Width != 1 {
			return 0, fmt.Errorf("wdm: OptimalColors supports width-1 demands only")
		}
		ls, err := arcLinks(t, d.Arc)
		if err != nil {
			return 0, err
		}
		links[i] = ls
	}
	lb, err := MaxLinkLoad(t, demands)
	if err != nil {
		return 0, err
	}
	// Two demands conflict when their arcs share a directed link.
	conflict := make([][]bool, len(demands))
	for i := range conflict {
		conflict[i] = make([]bool, len(demands))
		for j := range conflict[i] {
			if i != j {
				conflict[i][j] = slices.ContainsFunc(links[i], func(l int) bool {
					return slices.Contains(links[j], l)
				})
			}
		}
	}
	colors := make([]int, len(demands))
	var try func(i, k int) bool
	try = func(i, k int) bool {
		if i == len(demands) {
			return true
		}
		for c := 0; c < k; c++ {
			ok := true
			for j := 0; j < i; j++ {
				if conflict[i][j] && colors[j] == c {
					ok = false
					break
				}
			}
			if ok {
				colors[i] = c
				if try(i+1, k) {
					return true
				}
			}
		}
		return false
	}
	for k := lb; ; k++ {
		if try(0, k) {
			return k, nil
		}
		if k > len(demands) {
			return 0, fmt.Errorf("wdm: OptimalColors failed to converge")
		}
	}
}
