package opticalsim

import (
	"strings"
	"testing"

	"wrht/internal/ring"
)

func TestRenderTimelineBasics(t *testing.T) {
	events := []TransferEvent{
		{Step: 0, Arc: ring.Arc{Src: 0, Dst: 1, Dir: ring.CW}, Wavelengths: []int{0}, Start: 0, End: 1},
		{Step: 0, Arc: ring.Arc{Src: 4, Dst: 5, Dir: ring.CW}, Wavelengths: []int{0}, Start: 0, End: 1},
		{Step: 1, Arc: ring.Arc{Src: 1, Dst: 2, Dir: ring.CW}, Wavelengths: []int{1}, Start: 1, End: 2},
	}
	out := RenderTimeline(events, 40, 0)
	if !strings.Contains(out, "λ0") || !strings.Contains(out, "λ1") {
		t.Fatalf("missing wavelength rows:\n%s", out)
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Fatalf("missing step marks:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("expected 3 lines, got %d:\n%s", len(lines), out)
	}
}

func TestRenderTimelineEdgeCases(t *testing.T) {
	if out := RenderTimeline(nil, 40, 0); !strings.Contains(out, "empty") {
		t.Fatalf("empty timeline: %q", out)
	}
	ev := []TransferEvent{{Wavelengths: []int{0}, Start: 0, End: 0}}
	if out := RenderTimeline(ev, 40, 0); !strings.Contains(out, "degenerate") {
		t.Fatalf("degenerate timeline: %q", out)
	}
}

func TestRenderTimelineRowCap(t *testing.T) {
	events := []TransferEvent{
		{Step: 0, Arc: ring.Arc{Src: 0, Dst: 1, Dir: ring.CW}, Wavelengths: []int{0, 1, 2, 3}, Start: 0, End: 1},
	}
	out := RenderTimeline(events, 40, 2)
	if strings.Contains(out, "λ3") {
		t.Fatalf("row cap ignored:\n%s", out)
	}
}

func TestRenderFromRealSimulation(t *testing.T) {
	s := wrhtSchedule(t, 16, 4, 3, 4096)
	res, err := runBoxed(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTimeline(res.Events, 80, 8)
	if len(out) == 0 || !strings.Contains(out, "λ0") {
		t.Fatalf("render failed:\n%s", out)
	}
}
