package core

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/tensor"
)

// MaxPipelineChunks bounds the pipeline chunk count. Schedule construction
// and simulation are O(chunks), so an unbounded count turns a bad input
// into a multi-minute hang instead of an error; no realistic pipeline needs
// more stages in flight than this.
const MaxPipelineChunks = 1 << 16

// PipelinedSchedule is the chunked-pipeline extension of Wrht (beyond the
// paper; its natural "future work"): the buffer is split into `chunks`
// contiguous chunks, and chunk c enters reduce level 1 at global step c, so
// stage s processes chunk c during global step s+c. Total steps grow to
// NumSteps()+chunks-1, but each step serializes only 1/chunks of the buffer.
//
// Pipelining pays off when transfers cannot stripe across the full
// wavelength budget (e.g. the paper's literal one-wavelength-per-transfer
// accounting): concurrent stages then ride distinct wavelengths. Under full
// striping the fabric is already bandwidth-saturated and pipelining only
// adds steps — the ablation BenchmarkAblationPipelining quantifies both
// regimes. Wavelength demand grows with the number of concurrently active
// stages; the substrate splits any over-budget step into rounds, so the
// timing stays honest either way.
func (p *Plan) PipelinedSchedule(elems, chunks int) (*collective.Schedule, error) {
	if chunks < 1 {
		return nil, fmt.Errorf("core: pipeline chunks %d", chunks)
	}
	if chunks > MaxPipelineChunks {
		return nil, fmt.Errorf("core: pipeline chunks %d (max %d)", chunks, MaxPipelineChunks)
	}
	if elems < 0 {
		return nil, fmt.Errorf("core: negative elems %d", elems)
	}
	if chunks == 1 {
		return p.Schedule(elems)
	}
	regions := tensor.Chunks(elems, chunks)
	// The stage templates: the unpipelined steps, whose placeholder regions
	// each chunk replaces. Zero elems cannot fail.
	template, _ := p.Schedule(0)
	stages := template.Steps

	s := &collective.Schedule{
		Algorithm: fmt.Sprintf("wrht-pipelined(m=%d,c=%d)", p.M, chunks),
		N:         p.N,
		Elems:     elems,
	}
	totalSteps := len(stages) + chunks - 1
	for t := 0; t < totalSteps; t++ {
		st := collective.Step{Label: fmt.Sprintf("pipeline step %d", t+1)}
		for si, step := range stages {
			c := t - si
			if c < 0 || c >= chunks {
				continue
			}
			if regions[c].Len == 0 {
				continue
			}
			for _, tr := range step.Transfers {
				tr.Region = regions[c]
				st.Transfers = append(st.Transfers, tr)
			}
		}
		s.Steps = append(s.Steps, st)
	}
	return s, nil
}
