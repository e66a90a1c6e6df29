package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"time"

	"bufferkit"
	"bufferkit/internal/api"
	"bufferkit/internal/netlist"
)

// handleChip solves a multi-net chip instance by Lagrangian
// price-and-resolve, streaming one NDJSON convergence record per round.
// Admission happens before the response header — one guaranteed engine
// slot plus whatever extra capacity is idle becomes the round's parallel
// re-solve pool — so an overloaded server sheds the whole request with
// 429 + Retry-After while that is still expressible. Failures before the
// first round (validation, an infeasible net, a deadline that fires
// before any round completes) map to clean HTTP statuses; once round
// records are flowing, an abort is reported as a terminal NDJSON error
// record carrying the partial-progress counters instead of a silent
// truncation.
func (s *Server) handleChip(w http.ResponseWriter, r *http.Request) {
	s.chipReqs.Add(1)
	var req chipRequest
	if err := s.decodeRequest(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Instance) == 0 || string(req.Instance) == "null" {
		s.writeError(w, badRequestf("instance", "chip request has no instance"))
		return
	}
	inst, err := bufferkit.ParseChipInstance(bytes.NewReader(req.Instance))
	if err != nil {
		s.writeError(w, wrapParseError("instance", err))
		return
	}
	if len(inst.Nets) > s.cfg.MaxChipNets {
		s.writeError(w, badRequestf("instance", "instance has %d nets; limit is %d",
			len(inst.Nets), s.cfg.MaxChipNets))
		return
	}
	lib, err := netlist.ParseLibraryText(textBytes(req.Library))
	if err != nil {
		s.writeError(w, wrapParseError("library", err))
		return
	}
	s.chipNets.Add(int64(len(inst.Nets)))

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.SolveOptions))
	defer cancel()

	// The admitted slots become each round's parallel re-solve pool; the
	// first round record starts the stream.
	slots, err := s.admit(ctx, len(inst.Nets))
	if err != nil {
		s.writeError(w, s.asCanceled(err))
		return
	}
	defer s.release(slots)
	out := &ndjsonWriter[*api.ChipLine]{w: w, cancel: cancel}

	opts := []bufferkit.Option{
		bufferkit.WithWorkers(slots),
		bufferkit.WithChipProgress(func(rd bufferkit.ChipRound) {
			s.chipRounds.Add(1)
			round := rd
			out.write(&api.ChipLine{Round: &round})
		}),
	}
	// Zero means "engine default" on every knob; nonzero values — including
	// invalid ones — pass through so the option validation produces the
	// 400s.
	if req.Rounds != 0 {
		opts = append(opts, bufferkit.WithChipRounds(req.Rounds))
	}
	if req.Step != 0 {
		opts = append(opts, bufferkit.WithChipStep(req.Step))
	}
	if req.StepDecay != 0 {
		opts = append(opts, bufferkit.WithChipStepDecay(req.StepDecay))
	}
	if req.HistoryStep != 0 {
		opts = append(opts, bufferkit.WithChipHistoryStep(req.HistoryStep))
	}
	if req.Capacity != 0 {
		opts = append(opts, bufferkit.WithChipCapacity(req.Capacity))
	}
	solver, err := newSolver(req.SolveOptions, lib, opts...)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer solver.Close()

	run := startRun(ctx)
	res, err := solver.SolveChip(ctx, inst)
	elapsed := s.endRun(run, 1, nil, false)
	if err != nil {
		var pe *bufferkit.PartialChipError
		if errors.As(err, &pe) {
			s.chipDeadlineAborts.Add(1)
			s.chipAbortedRounds.Add(int64(pe.CompletedRounds))
		}
		err = s.asCanceled(err)
		if out.enc == nil { // no round record yet: a real status
			s.writeError(w, err)
			return
		}
		s.httpErrors.Add(1)
		line := &api.ChipLine{Error: errorMessage(err)}
		if pe != nil {
			line.CompletedRounds = pe.CompletedRounds
			line.SolvedNets = pe.SolvedNets
		}
		out.write(line)
		return
	}
	placements := make([]api.Placement, len(inst.Nets))
	for i := range inst.Nets {
		placements[i] = placementNames(inst.Nets[i].Tree, lib, res.Placements[i], false)
	}
	out.write(&api.ChipLine{Done: &api.ChipSummary{
		Algorithm:  solver.Algorithm(),
		Feasible:   res.Feasible,
		Nets:       len(inst.Nets),
		Rounds:     len(res.Rounds),
		Buffers:    res.Buffers,
		TotalSlack: res.TotalSlack,
		WorstSlack: res.WorstSlack,
		WorstNet:   res.WorstNet,
		Slacks:     res.Slacks,
		Placements: placements,
		ElapsedMs:  float64(elapsed) / float64(time.Millisecond),
	}})
}
