package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"bufferkit"
)

// chipRequest is the POST /v1/chip payload.
type chipRequest struct {
	// Instance is the multi-net chip instance in the JSON format
	// cmd/netgen -chip emits: a site grid with blockages plus nets carrying
	// embedded .net text and vertex→site maps.
	Instance json.RawMessage `json:"instance"`
	// Library is the .buf text shared by every net of the instance.
	Library string `json:"library"`
	// Rounds caps the pricing rounds (0 = engine default; the repair pass
	// still runs after the budget when needed).
	Rounds int `json:"rounds,omitempty"`
	// Step is the initial subgradient price step in ps per unit of site
	// overflow (0 = engine default).
	Step float64 `json:"step,omitempty"`
	// StepDecay is the per-round multiplicative step decay in (0, 1]
	// (0 = engine default).
	StepDecay float64 `json:"step_decay,omitempty"`
	// HistoryStep is the PathFinder-style permanent price increment per
	// unit of overflow per round (0 = engine default, negative disables).
	HistoryStep float64 `json:"history_step,omitempty"`
	// Capacity overrides the instance's default per-site capacity
	// (0 keeps the instance's own).
	Capacity int `json:"capacity,omitempty"`
	solveOptions
}

// chipLine is one NDJSON line of the chip response. Exactly one of Round,
// Done and Error is set: every pricing (and repair) round streams as a
// Round record the moment it completes, and the stream ends with either a
// Done summary or an Error record. An Error record after Round records
// means the solve aborted mid-run; CompletedRounds/SolvedNets then carry
// the partial progress made before the abort.
type chipLine struct {
	Round *bufferkit.ChipRound `json:"round,omitempty"`
	Done  *chipSummary         `json:"done,omitempty"`
	Error string               `json:"error,omitempty"`
	// CompletedRounds counts fully finished pricing rounds and SolvedNets
	// the oracle solves completed inside the aborted round (Error records
	// from a deadline or disconnect abort only).
	CompletedRounds int `json:"completed_rounds,omitempty"`
	SolvedNets      int `json:"solved_nets,omitempty"`
}

// chipSummary is the terminal record of a successful chip stream.
type chipSummary struct {
	Algorithm string `json:"algorithm"`
	Feasible  bool   `json:"feasible"`
	Nets      int    `json:"nets"`
	Rounds    int    `json:"rounds"`
	Buffers   int    `json:"buffers"`
	// TotalSlack sums the true (unpriced) per-net slacks; WorstSlack and
	// WorstNet identify the minimum.
	TotalSlack float64 `json:"total_slack"`
	WorstSlack float64 `json:"worst_slack"`
	WorstNet   int     `json:"worst_net"`
	// Slacks and Placements are indexed like the instance's nets.
	Slacks     []float64           `json:"slacks"`
	Placements []map[string]string `json:"placements"`
	ElapsedMs  float64             `json:"elapsed_ms"`
}

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
	if err := s.decodeBody(w, r, &req); err != nil {
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
	lib, err := bufferkit.ParseLibrary(strings.NewReader(req.Library))
	if err != nil {
		s.writeError(w, wrapParseError("library", err))
		return
	}
	s.chipNets.Add(int64(len(inst.Nets)))

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.solveOptions))
	defer cancel()

	// The admitted slots become each round's parallel re-solve pool; the
	// first round record starts the stream.
	slots, err := s.admit(ctx, len(inst.Nets))
	if err != nil {
		s.writeError(w, s.asCanceled(err))
		return
	}
	defer s.release(slots)
	out := &ndjsonWriter[*chipLine]{w: w, cancel: cancel}

	opts := []bufferkit.Option{
		bufferkit.WithWorkers(slots),
		bufferkit.WithChipProgress(func(rd bufferkit.ChipRound) {
			s.chipRounds.Add(1)
			round := rd
			out.write(&chipLine{Round: &round})
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
	solver, err := req.newSolver(lib, opts...)
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
		line := &chipLine{Error: errorMessage(err)}
		if pe != nil {
			line.CompletedRounds = pe.CompletedRounds
			line.SolvedNets = pe.SolvedNets
		}
		out.write(line)
		return
	}
	placements := make([]map[string]string, len(inst.Nets))
	for i := range inst.Nets {
		placements[i] = placementNames(inst.Nets[i].Tree, lib, res.Placements[i])
	}
	out.write(&chipLine{Done: &chipSummary{
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
