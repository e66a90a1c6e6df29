package resilience

import "sync"

// TokenBudget is an earned-token bucket bounding a secondary action — a
// client retry, a fleet hedge — by the volume of primary successes: each
// success earns ratio tokens, capped at burst, and each secondary action
// spends one. Under sustained failure the secondary volume settles at
// ratio× the success rate instead of multiplying load. The bucket starts
// full. Callers keep their own "disabled" rule outside the type.
//
// A TokenBudget is safe for concurrent use.
type TokenBudget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64
}

// NewTokenBudget returns a full bucket of burst tokens earning ratio per
// success.
func NewTokenBudget(ratio float64, burst int) *TokenBudget {
	return &TokenBudget{ratio: ratio, burst: float64(burst), tokens: float64(burst)}
}

// Spend takes one token; false means the budget is dry.
func (b *TokenBudget) Spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Earn credits one success: ratio tokens, capped at burst.
func (b *TokenBudget) Earn() {
	b.mu.Lock()
	b.tokens = min(b.tokens+b.ratio, b.burst)
	b.mu.Unlock()
}
