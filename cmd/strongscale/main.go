// Command strongscale runs the parallel experiment behind Theorem 6.2
// on the simulated distributed-memory machine: Algorithms 3 and 4 and
// the 1D matmul baseline across a sweep of processor counts, printing
// the measured per-processor words (sends+receives) next to the
// memory-independent lower bounds (Theorems 4.2 and 4.3). It is the
// small-scale, fully-measured companion of the model-scale Figure 4.
//
// Usage:
//
//	strongscale [-side 16] [-n 3] [-r 8] [-mode 0] [-pexps 0,1,2,3,4,5,6]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bounds"
	"repro/internal/costmodel"
	"repro/internal/dist"
	"repro/internal/par"
	"repro/internal/workload"
)

func main() {
	side := flag.Int("side", 16, "tensor dimension per mode")
	nModes := flag.Int("n", 3, "tensor order N")
	r := flag.Int("r", 8, "rank R")
	mode := flag.Int("mode", 0, "MTTKRP mode")
	pexps := flag.String("pexps", "0,1,2,3,4,5,6", "processor counts as powers of two")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()

	inst, err := workload.Generate(workload.Cubical(*nModes, *side, *r, *seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "strongscale:", err)
		os.Exit(2)
	}
	dims := inst.Spec.Dims
	prob := bounds.Problem{Dims: dims, R: *r}

	fmt.Printf("Strong scaling (measured on the simulator): N=%d, dims=%v, R=%d, mode=%d (E5: Theorem 6.2)\n",
		*nModes, dims, *r, *mode)
	fmt.Println("words = max over processors of sends+receives; model = 2x Eq.(14)/(18) sends")
	fmt.Printf("\n%-6s %-14s %-10s %-14s %-10s %-14s %-12s %-12s %-16s %s\n",
		"P", "W(alg3)", "model3", "W(alg4)", "model4", "W(matmul1d)", "lb(4.2)", "lb(4.3)", "alg3 grid", "alg4 grid")

	for _, part := range strings.Split(*pexps, ",") {
		e, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || e < 0 || e > 20 {
			fmt.Fprintf(os.Stderr, "strongscale: bad processor exponent %q\n", part)
			os.Exit(2)
		}
		P := 1 << e

		shape3, err := costmodel.BestStationaryExact(dims, *r, P)
		w3, m3, grid3 := "-", "-", "-"
		if err == nil {
			res, err := par.Stationary(inst.X, inst.Factors, *mode, shape3)
			if err != nil {
				fmt.Fprintln(os.Stderr, "strongscale: alg3:", err)
				os.Exit(1)
			}
			w3 = fmt.Sprintf("%d", res.MaxWords())
			m3 = modelWords(dist.NewStationary(dims, *r, shape3))
			grid3 = fmt.Sprintf("%v", shape3)
		}

		shape4, err := costmodel.BestGeneralExact(dims, *r, P)
		w4, m4, grid4 := "-", "-", "-"
		if err == nil {
			res, err := par.General(inst.X, inst.Factors, *mode, shape4)
			if err != nil {
				fmt.Fprintln(os.Stderr, "strongscale: alg4:", err)
				os.Exit(1)
			}
			w4 = fmt.Sprintf("%d", res.MaxWords())
			m4 = modelWords(dist.NewGeneral(dims, *r, shape4))
			grid4 = fmt.Sprintf("%v", shape4)
		}

		wm := "-"
		if resM, err := par.ViaMatmul1D(inst.X, inst.Factors, *mode, P); err == nil {
			wm = fmt.Sprintf("%d", resM.MaxWords())
		}

		lb1 := bounds.ParMemIndependent1(prob, float64(P), 1, 1)
		lb2 := bounds.ParMemIndependent2(prob, float64(P), 1, 1)
		fmt.Printf("%-6d %-14s %-10s %-14s %-10s %-14s %-12.4g %-12.4g %-16s %s\n",
			P, w3, m3, w4, m4, wm, lb1, lb2, grid3, grid4)
	}
	fmt.Println("\n(- means no feasible grid/partition at that P for these dimensions)")
}

// modelWords prints twice the layout's ceiling-aware Eq. (14)/(18)
// sends per rank: the words the model gives each rank, sent plus
// received.
func modelWords(lay dist.Layout, err error) string {
	if err != nil {
		panic(err) // the shape is the search's, so only a bug gets here
	}
	return fmt.Sprintf("%d", 2*lay.MaxSends())
}
