package client

import "encoding/json"

// Wire types mirroring bufferkitd's JSON API. They are declared here
// rather than imported so the client stays a pure HTTP consumer — the
// same shapes any non-Go client would code against.

// SolveOptions are the algorithm-selection fields shared by solve, batch
// and yield requests.
type SolveOptions struct {
	// Algorithm is a registry name ("" = the paper's O(bn²) algorithm).
	Algorithm string `json:"algorithm,omitempty"`
	// Prune is "transient" (default) or "destructive".
	Prune string `json:"prune,omitempty"`
	// MaxCost caps total buffer cost (costslack only; 0 = no cap).
	MaxCost int `json:"max_cost,omitempty"`
	// NoStats skips Stats on the reply.
	NoStats bool `json:"no_stats,omitempty"`
	// TimeoutMs overrides the server's default solve budget.
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
	Net        string            `json:"net,omitempty"`
	Algorithm  string            `json:"algorithm"`
	Slack      float64           `json:"slack"`
	Buffers    int               `json:"buffers"`
	Cost       int               `json:"cost"`
	Candidates int               `json:"candidates,omitempty"`
	Placement  map[string]string `json:"placement"`
	// Stats carries the algorithm's instrumentation verbatim; its fields
	// depend on the algorithm, so it stays raw JSON here.
	Stats    json.RawMessage `json:"stats,omitempty"`
	Frontier []FrontierPoint `json:"frontier,omitempty"`
	// Cached: served from the LRU cache; Coalesced: shared from another
	// caller's in-flight engine run. Either way no engine ran for this
	// request.
	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	// Trace is the server's trace id for this solve, from the
	// X-Bufferkit-Trace response header (not the JSON body) — quote it
	// against the server's /debug/traces and request-summary logs.
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

// BatchLine is one NDJSON line of the batch stream. Exactly one of
// Result and Error is set; Index -1 with Error set is the server's
// terminal truncation record, surfaced by BatchStream.Next as
// ErrTruncated rather than as a line.
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
	// Rounds caps pricing rounds (0 = server default).
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
type ChipRound struct {
	// Round numbers rounds from 1; Repair marks the final sequential
	// repair pass.
	Round  int  `json:"round"`
	Repair bool `json:"repair,omitempty"`
	// Resolved counts the nets re-solved this round.
	Resolved int `json:"resolved"`
	// Overflow is the total buffer count over capacity (0 = feasible);
	// OverflowSites counts sites over capacity, MaxOverflow the worst one.
	Overflow      int `json:"overflow"`
	OverflowSites int `json:"overflow_sites"`
	MaxOverflow   int `json:"max_overflow"`
	// Buffers is the total number of buffers placed across all nets.
	Buffers int `json:"buffers"`
	// MaxPrice is the largest site price after this round's update.
	MaxPrice float64 `json:"max_price"`
	// TotalSlack and WorstSlack summarize the true (unpriced) slacks.
	TotalSlack float64 `json:"total_slack"`
	WorstSlack float64 `json:"worst_slack"`
}

// ChipSummary is the terminal record of a successful chip stream.
type ChipSummary struct {
	Algorithm  string              `json:"algorithm"`
	Feasible   bool                `json:"feasible"`
	Nets       int                 `json:"nets"`
	Rounds     int                 `json:"rounds"`
	Buffers    int                 `json:"buffers"`
	TotalSlack float64             `json:"total_slack"`
	WorstSlack float64             `json:"worst_slack"`
	WorstNet   int                 `json:"worst_net"`
	Slacks     []float64           `json:"slacks"`
	Placements []map[string]string `json:"placements"`
	ElapsedMs  float64             `json:"elapsed_ms"`
}

// ChipLine is one NDJSON line of the chip stream: a round record while
// the allocator converges, then exactly one terminal record — Done on
// success, or Error (with the partial-progress counters) on a mid-run
// abort. ChipStream.Next surfaces the Error record as ErrTruncated.
type ChipLine struct {
	Round           *ChipRound   `json:"round,omitempty"`
	Done            *ChipSummary `json:"done,omitempty"`
	Error           string       `json:"error,omitempty"`
	CompletedRounds int          `json:"completed_rounds,omitempty"`
	SolvedNets      int          `json:"solved_nets,omitempty"`
}

// YieldRequest is the POST /v1/yield payload.
type YieldRequest struct {
	Net            string  `json:"net"`
	Library        string  `json:"library"`
	Samples        int     `json:"samples,omitempty"`
	Sigma          float64 `json:"sigma,omitempty"`
	Seed           *int64  `json:"seed,omitempty"`
	Target         float64 `json:"target,omitempty"`
	Robust         bool    `json:"robust,omitempty"`
	ProcessCorners bool    `json:"process_corners,omitempty"`
	SolveOptions
}

// YieldResult is the POST /v1/yield reply.
type YieldResult struct {
	Net          string  `json:"net,omitempty"`
	Algorithm    string  `json:"algorithm"`
	Samples      int     `json:"samples"`
	Target       float64 `json:"target"`
	Robust       bool    `json:"robust"`
	Yield        float64 `json:"yield"`
	OptimalYield float64 `json:"optimal_yield"`
	Slack        struct {
		Mean float64 `json:"mean"`
		Std  float64 `json:"std"`
		Min  float64 `json:"min"`
		Max  float64 `json:"max"`
		P5   float64 `json:"p5"`
		P50  float64 `json:"p50"`
		P95  float64 `json:"p95"`
	} `json:"slack"`
	WorstCorner string            `json:"worst_corner"`
	WorstSlack  float64           `json:"worst_slack"`
	Chosen      int               `json:"chosen"`
	Placement   map[string]string `json:"placement"`
	Buffers     int               `json:"buffers"`
	Cost        int               `json:"cost"`
	Cached      bool              `json:"cached"`
	ElapsedMs   float64           `json:"elapsed_ms,omitempty"`
}
