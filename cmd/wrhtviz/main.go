// Command wrhtviz renders an ASCII wavelength-by-time Gantt chart of an
// all-reduce on the optical ring, using the message-level event simulator.
// It makes the paper's two key mechanisms visible: spatial wavelength reuse
// (several transfers sharing one λ row at the same time) and the barrier vs
// async execution difference.
//
// Usage:
//
//	wrhtviz -nodes 16 -m 3 -bytes 4194304
//	wrhtviz -nodes 16 -alg o-ring -mode async -width 100
package main

import (
	"flag"
	"fmt"
	"os"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/model"
	"wrht/internal/optical"
	"wrht/internal/opticalsim"
	"wrht/internal/ring"
)

func main() {
	var (
		nodes  = flag.Int("nodes", 16, "ring size")
		m      = flag.Int("m", 3, "Wrht group size (for -alg wrht)")
		alg    = flag.String("alg", "wrht", "wrht | o-ring")
		mode   = flag.String("mode", "barrier", "barrier | async")
		bytes  = flag.Int64("bytes", 4<<20, "buffer size in bytes")
		width  = flag.Int("width", 100, "chart width in columns")
		rows   = flag.Int("rows", 16, "max wavelength rows (0 = all)")
		stripe = flag.Bool("stripe", false, "enable wavelength striping for wrht")
	)
	flag.Parse()

	simOpts := opticalsim.DefaultOptions()
	switch *mode {
	case "barrier":
	case "async":
		simOpts.Mode = opticalsim.Async
	default:
		fmt.Fprintf(os.Stderr, "wrhtviz: unknown -mode %q (barrier | async)\n", *mode)
		os.Exit(1)
	}

	elems := int(*bytes / 4)
	var cls *collective.ClassSchedule
	var err error
	switch *alg {
	case "wrht":
		opts := core.Options{M: *m, Policy: core.A2AFormula, Striping: *stripe,
			Cost: model.CostParamsOf(optical.DefaultParams())}
		var plan *core.Plan
		plan, err = core.BuildPlan(*nodes, optical.DefaultParams().Wavelengths, opts)
		if err == nil {
			fmt.Printf("plan: %s\n", plan)
			cls, err = plan.ClassSchedule(elems)
		}
	case "o-ring":
		cls, err = collective.RingAllReduceClassed(*nodes, elems)
	default:
		err = fmt.Errorf("unknown -alg %q", *alg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wrhtviz:", err)
		os.Exit(1)
	}

	res, err := opticalsim.Run(cls, simOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wrhtviz:", err)
		os.Exit(1)
	}
	topo, err := ring.New(*nodes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wrhtviz:", err)
		os.Exit(1)
	}
	if err := opticalsim.ValidateTimeline(topo, res.Events); err != nil {
		fmt.Fprintln(os.Stderr, "wrhtviz: TIMELINE INVALID:", err)
		os.Exit(1)
	}
	fmt.Printf("%s, %s mode: total %.4g ms\n", cls.Algorithm, res.Mode, res.TotalSec*1e3)
	fmt.Print(opticalsim.RenderTimeline(res.Events, *width, *rows))
}
