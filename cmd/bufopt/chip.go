package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"bufferkit"
)

// chipOpts bundles the -chip mode flags.
type chipOpts struct {
	rounds   int
	step     float64
	decay    float64
	capacity int
	workers  int
	verify   bool
}

// runChip solves a multi-net chip instance by price-and-resolve, streaming
// one line per pricing round and reporting the final allocation. With
// -verify the per-net placements are re-checked against the Elmore oracle
// and the site usage against every capacity.
func runChip(ctx context.Context, w io.Writer, chipPath, libPath string, genLib int, algo string, reduce int, o chipOpts) error {
	f, err := os.Open(chipPath)
	if err != nil {
		return err
	}
	inst, err := bufferkit.ParseChipInstance(f)
	f.Close()
	if err != nil {
		return err
	}
	lib, err := loadLibrary(libPath, genLib)
	if err != nil {
		return err
	}

	extra := []bufferkit.Option{
		bufferkit.WithWorkers(o.workers),
		bufferkit.WithChipProgress(func(r bufferkit.ChipRound) {
			kind := "price"
			if r.Repair {
				kind = "repair"
			}
			fmt.Fprintf(w, "round %3d %-6s resolved %5d  overflow %6d on %4d sites (max %3d)  buffers %6d  worst %10.2f ps\n",
				r.Round, kind, r.Resolved, r.Overflow, r.OverflowSites, r.MaxOverflow, r.Buffers, r.WorstSlack)
		}),
	}
	if o.rounds > 0 {
		extra = append(extra, bufferkit.WithChipRounds(o.rounds))
	}
	if o.step > 0 {
		extra = append(extra, bufferkit.WithChipStep(o.step))
	}
	if o.decay > 0 {
		extra = append(extra, bufferkit.WithChipStepDecay(o.decay))
	}
	if o.capacity > 0 {
		extra = append(extra, bufferkit.WithChipCapacity(o.capacity))
	}
	solver, err := newSolver(lib, algo, reduce, extra...)
	if err != nil {
		return err
	}
	defer solver.Close()

	caps := inst.Capacities(o.capacity)
	totalCap := 0
	for _, c := range caps {
		totalCap += c
	}
	fmt.Fprintf(w, "chip: %d nets on a %dx%d site grid (%d blockages, total capacity %d, %d buffer types, algo %s)\n",
		len(inst.Nets), inst.Grid.W, inst.Grid.H, len(inst.Blockages), totalCap, len(lib), solver.Algorithm())

	start := time.Now()
	res, err := solver.SolveChip(ctx, inst)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(w, "feasible: %v in %d rounds   buffers: %d   total slack: %.2f ps   worst: %.2f ps (net %d %q)\n",
		res.Feasible, len(res.Rounds), res.Buffers, res.TotalSlack, res.WorstSlack, res.WorstNet, inst.Nets[res.WorstNet].Name)
	fmt.Fprintf(w, "runtime: %s (%.1f nets/s per round)\n",
		elapsed, float64(len(inst.Nets)*len(res.Rounds))/elapsed.Seconds())

	if o.verify {
		usage := make([]int, len(caps))
		for i := range inst.Nets {
			net := &inst.Nets[i]
			if _, err := verifyPlacement(net.Tree, lib, res.Placements[i], res.Slacks[i], net.Driver); err != nil {
				return fmt.Errorf("net %d (%q): %w", i, net.Name, err)
			}
			for v, s := range net.Site {
				if s != bufferkit.NoSite && res.Placements[i][v] != bufferkit.NoBuffer {
					usage[s]++
				}
			}
		}
		for s, u := range usage {
			if u > caps[s] {
				return fmt.Errorf("verification failed: site %d holds %d buffers over capacity %d", s, u, caps[s])
			}
		}
		fmt.Fprintf(w, "verified: every placement reproduces its slack and every site respects its capacity\n")
	}
	return nil
}
