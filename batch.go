package bufferkit

import (
	"fmt"

	"bufferkit/internal/core"
)

// BatchError reports every net that failed in a RunBatch call.
type BatchError struct {
	// Errs maps net index to its error; only failed nets appear.
	Errs map[int]error
}

// Error implements error, naming the first failed net and the failure
// count.
func (e *BatchError) Error() string {
	first := -1
	for i := range e.Errs {
		if first < 0 || i < first {
			first = i
		}
	}
	return fmt.Sprintf("bufferkit: batch: %d nets failed; first failure at net %d: %v",
		len(e.Errs), first, e.Errs[first])
}

// NewEngine returns a reusable insertion engine for workloads that manage
// their own concurrency: Reset it at a net, Run it (repeatedly, if
// useful), and keep it warm — a warm engine allocates nothing on the
// steady-state path. Engines are not safe for concurrent use.
//
// Most callers are better served by a Solver, which pools warm engines
// behind the same zero-allocation path; NewEngine remains for callers that
// need direct control of Reset/Run scheduling.
func NewEngine() *Engine { return core.NewEngine() }

// Engine is a reusable insertion engine (see internal/core.Engine).
type Engine = core.Engine
