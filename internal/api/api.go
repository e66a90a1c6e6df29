// Package api declares bufferkitd's JSON wire schema: every request and
// reply body that both the server (internal/server) and the Go client
// (bufferkit/client) encode or decode, declared once so the two cannot
// drift apart. The client re-exports each type under the same name as an
// alias; the server decodes requests into thin wrappers around them and
// encodes these types directly. Field names, tags and order are the wire
// format, the same shapes any non-Go client codes against, and the
// server's golden test (internal/server/wire_test.go) pins their bytes.
//
// The package is a leaf: besides the standard library it imports only the
// engine types a body carries verbatim (core.Stats, chip.Round,
// fleet.PeerStatus), never the server or the client, whose tests import
// the server.
package api

import (
	"encoding/json"

	"bufferkit/internal/chip"
	"bufferkit/internal/core"
	"bufferkit/internal/fleet"
)

// SolveOptions are the request fields that select and configure an
// algorithm, shared by the solve, batch, yield, chip and session payloads.
type SolveOptions struct {
	// Algorithm is a registry name ("" = the paper's O(bn²) algorithm).
	Algorithm string `json:"algorithm,omitempty"`
	// MaxCost caps total buffer cost (costslack only; 0 = no cap).
	MaxCost int `json:"max_cost,omitempty"`
	// NoStats skips Stats on the reply.
	NoStats bool `json:"no_stats,omitempty"`
	// TimeoutMs overrides the server's default solve budget, capped at the
	// server's maximum.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// SolveRequest is the POST /v1/solve payload.
type SolveRequest struct {
	// Net is the net in bufferkit's .net text format.
	Net string `json:"net"`
	// Library is the buffer library in the .buf text format.
	Library string `json:"library"`
	SolveOptions
}

// SolveResult is the POST /v1/solve reply and the per-net result of a
// batch line.
type SolveResult struct {
	Net        string    `json:"net,omitempty"`
	Algorithm  string    `json:"algorithm"`
	Slack      float64   `json:"slack"`
	Buffers    int       `json:"buffers"`
	Cost       int       `json:"cost"`
	Candidates int       `json:"candidates,omitempty"`
	Placement  Placement `json:"placement"`
	// Stats are the engine's instrumentation counters for the run (absent
	// with no_stats, and on algorithms that report none).
	Stats    *core.Stats     `json:"stats,omitempty"`
	Frontier []FrontierPoint `json:"frontier,omitempty"`
	// Cached: served from the LRU cache; Coalesced: shared from another
	// caller's in-flight engine run. Either way no engine ran for this
	// request.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
	// ElapsedMs is the engine runtime of the (original) solve. Batch lines
	// omit it: batch workers overlap, so per-net wall time is not
	// measurable there.
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	// Trace is the server's trace id for this solve, from the
	// X-Bufferkit-Trace response header (not the JSON body); the client
	// fills it. Quote it against the server's /debug/traces and
	// request-summary logs.
	Trace string `json:"-"`
}

// FrontierPoint is one cost–slack Pareto point (costslack).
type FrontierPoint struct {
	Cost    int     `json:"cost"`
	Slack   float64 `json:"slack"`
	Buffers int     `json:"buffers"`
}

// BatchRequest is the POST /v1/batch payload.
type BatchRequest struct {
	// Library is shared by every net of the batch.
	Library string `json:"library"`
	// Nets are the .net texts to solve.
	Nets []string `json:"nets"`
	// Ordered asks for input-order lines instead of completion order.
	Ordered bool `json:"ordered,omitempty"`
	SolveOptions
}

// BatchLine is one NDJSON line of the batch stream. Exactly one of Result
// and Error is set per net; a trailing line with Index -1 and Error set is
// the server's terminal truncation record (deadline, client disconnect),
// which the client's BatchStream.Next surfaces as ErrTruncated rather
// than as a line.
type BatchLine struct {
	Index  int          `json:"index"`
	Result *SolveResult `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// ChipRequest is the POST /v1/chip payload.
type ChipRequest struct {
	// Instance is the multi-net chip instance JSON (the format netgen
	// -chip emits: a site grid with blockages plus nets carrying .net text
	// and vertex→site maps).
	Instance json.RawMessage `json:"instance"`
	// Library is the .buf text shared by every net of the instance.
	Library string `json:"library"`
	// Rounds caps pricing rounds (0 = server default; the repair pass
	// still runs after the budget when needed).
	Rounds int `json:"rounds,omitempty"`
	// Step is the initial price step in ps per unit of site overflow
	// (0 = server default).
	Step float64 `json:"step,omitempty"`
	// StepDecay is the per-round multiplicative step decay in (0, 1]
	// (0 = server default).
	StepDecay float64 `json:"step_decay,omitempty"`
	// HistoryStep is the permanent price increment per unit of overflow
	// per round (0 = server default, negative disables).
	HistoryStep float64 `json:"history_step,omitempty"`
	// Capacity overrides the instance's default per-site capacity.
	Capacity int `json:"capacity,omitempty"`
	SolveOptions
}

// ChipRound is one price-and-resolve round's convergence record, streamed
// as an NDJSON line the moment the round completes.
type ChipRound = chip.Round

// ChipSummary is the terminal record of a successful chip stream.
type ChipSummary struct {
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
	Slacks     []float64   `json:"slacks"`
	Placements []Placement `json:"placements"`
	ElapsedMs  float64     `json:"elapsed_ms"`
}

// ChipLine is one NDJSON line of the chip stream: a round record while
// the allocator converges, then exactly one terminal record — Done on
// success, or Error on an abort. An Error record after round records
// means the solve aborted mid-run; CompletedRounds (fully finished
// pricing rounds) and SolvedNets (oracle solves completed inside the
// aborted round) then carry the partial progress. The client's
// ChipStream.Next surfaces the Error record as ErrTruncated.
type ChipLine struct {
	Round           *ChipRound   `json:"round,omitempty"`
	Done            *ChipSummary `json:"done,omitempty"`
	Error           string       `json:"error,omitempty"`
	CompletedRounds int          `json:"completed_rounds,omitempty"`
	SolvedNets      int          `json:"solved_nets,omitempty"`
}

// YieldRequest is the POST /v1/yield payload. Yield analysis accepts the
// core-engine algorithm only ("" or "new").
type YieldRequest struct {
	Net     string `json:"net"`
	Library string `json:"library"`
	// Samples is the number of Monte Carlo corners to draw (0 = none;
	// capped by the server).
	Samples int `json:"samples,omitempty"`
	// Sigma is the sampler's relative sigma (uniform across library R/K/Cin
	// and wire r/c).
	Sigma float64 `json:"sigma,omitempty"`
	// Seed seeds the sampler (absent = the solver default, 1); results are
	// deterministic per seed, and an explicit 0 is a valid seed distinct
	// from the default.
	Seed *int64 `json:"seed,omitempty"`
	// Target is the slack threshold (ps) a corner must meet to yield.
	Target float64 `json:"target,omitempty"`
	// Robust selects the placement maximizing fixed-placement yield across
	// corners instead of the nominal optimum.
	Robust bool `json:"robust,omitempty"`
	// ProcessCorners additionally evaluates the deterministic named corner
	// set (fast/slow and the cross corners).
	ProcessCorners bool `json:"process_corners,omitempty"`
	SolveOptions
}

// YieldResult is the POST /v1/yield reply.
type YieldResult struct {
	Net       string  `json:"net,omitempty"`
	Algorithm string  `json:"algorithm"`
	Samples   int     `json:"samples"`
	Target    float64 `json:"target"`
	Robust    bool    `json:"robust"`
	// Yield is the chosen placement's fixed-placement yield; OptimalYield
	// re-optimizes per corner and upper-bounds it.
	Yield        float64 `json:"yield"`
	OptimalYield float64 `json:"optimal_yield"`
	// Slack summarizes the per-corner optimal slack distribution.
	Slack struct {
		Mean float64 `json:"mean"`
		Std  float64 `json:"std"`
		Min  float64 `json:"min"`
		Max  float64 `json:"max"`
		P5   float64 `json:"p5"`
		P50  float64 `json:"p50"`
		P95  float64 `json:"p95"`
	} `json:"slack"`
	// WorstCorner names the corner with the smallest optimal slack.
	WorstCorner string  `json:"worst_corner"`
	WorstSlack  float64 `json:"worst_slack"`
	// Placements summarizes every distinct optimal placement observed.
	Placements []YieldPlacement `json:"placements"`
	// Chosen indexes Placements; Placement/Buffers/Cost describe it.
	Chosen    int       `json:"chosen"`
	Placement Placement `json:"placement"`
	Buffers   int       `json:"buffers"`
	Cost      int       `json:"cost"`
	Cached    bool      `json:"cached"`
	// ElapsedMs is the sweep runtime of the (original) solve.
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
}

// YieldPlacement summarizes one distinct optimal placement of a yield
// sweep: how many corners chose it, its fixed-placement yield and slack
// statistics across all corners, and its size.
type YieldPlacement struct {
	Count      int     `json:"count"`
	Yield      float64 `json:"yield"`
	WorstSlack float64 `json:"worst_slack"`
	MeanSlack  float64 `json:"mean_slack"`
	Buffers    int     `json:"buffers"`
	Cost       int     `json:"cost"`
}

// SessionPatch is one typed delta of a session PUT. Kind is "sink" (rat +
// cap), "edge" (res + cap of the wire into the vertex) or "buffer" (ok +
// optional allowed library type indices, as in the .net text format).
// Values are absolute, not increments, so retransmitting a patch is
// idempotent. Vertices are named as in net files and placements: the file
// name when set, otherwise "v<i>" ("src" for the source).
type SessionPatch struct {
	Kind    string   `json:"kind"`
	Vertex  string   `json:"vertex"`
	RAT     *float64 `json:"rat,omitempty"`
	Cap     *float64 `json:"cap,omitempty"`
	Res     *float64 `json:"res,omitempty"`
	OK      *bool    `json:"ok,omitempty"`
	Allowed []int    `json:"allowed,omitempty"`
}

// SessionRequest is the PUT /v1/sessions/{id} payload. Net and Library
// are required on the PUT that creates the session and optional
// afterwards; resending them must match byte for byte (409 otherwise),
// which makes retried PUTs safe.
type SessionRequest struct {
	Net     string         `json:"net,omitempty"`
	Library string         `json:"library,omitempty"`
	Patches []SessionPatch `json:"patches,omitempty"`
	SolveOptions
}

// SessionInfo is the session block of a PUT reply.
type SessionInfo struct {
	ID string `json:"id"`
	// Created marks the PUT that opened the session.
	Created bool `json:"created,omitempty"`
	// Resolves, FullRebuilds and Recomputed expose the incremental-work
	// story: Recomputed is the number of vertices the last resolve actually
	// recomputed (0 when the reply came from the server's result cache).
	Resolves     int `json:"resolves"`
	FullRebuilds int `json:"full_rebuilds"`
	Recomputed   int `json:"recomputed"`
}

// SessionResult is the PUT /v1/sessions/{id} reply: a solve result plus
// the session block.
type SessionResult struct {
	SolveResult
	Session SessionInfo `json:"session"`
}

// PeerStatus is one fleet member's health as reported by GET /v1/fleet.
type PeerStatus = fleet.PeerStatus

// FleetInfo is the GET /v1/fleet reply: the contacted node's fleet
// topology and its view of every member's health. A single node reports
// only Enabled false.
type FleetInfo struct {
	Enabled  bool         `json:"enabled"`
	Self     string       `json:"self,omitempty"`
	Replicas int          `json:"replicas,omitempty"`
	Peers    []PeerStatus `json:"peers,omitempty"`
}

// ErrorBody is the JSON body of every non-2xx reply.
type ErrorBody struct {
	Error string `json:"error"`
	// Field, Vertex and Type carry validation detail when present.
	Field  string `json:"field,omitempty"`
	Vertex *int   `json:"vertex,omitempty"`
	Type   *int   `json:"type,omitempty"`
	// Peer names the fleet member whose verdict this is when the error was
	// relayed from a forwarded request, so a peer's 504 is
	// distinguishable from the receiving node's own deadline.
	Peer string `json:"peer,omitempty"`
	// Trace is the request's trace id, the same value as the
	// X-Bufferkit-Trace response header, so a failed request is
	// correlatable with /debug/traces and the server logs.
	Trace string `json:"trace,omitempty"`
}
