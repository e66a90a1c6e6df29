package resilience

import (
	"math"
	"sync"
)

// TokenBudget is an earned-token bucket bounding a secondary action — a
// client retry, a fleet hedge — by the volume of primary successes: each
// success earns ratio tokens, capped at burst, and each secondary action
// spends one. Under sustained failure the secondary volume settles at
// ratio× the success rate instead of multiplying load. The bucket starts
// full. Callers keep their own "disabled" rule outside the type.
//
// A TokenBudget is safe for concurrent use.
type TokenBudget struct {
	mu sync.Mutex
	// Tokens are counted in millionths, so that 1/ratio earns make exactly
	// one token for any ratio with at most six decimals: summing 0.1 ten
	// times in float64 falls short of 1.
	earn   int64
	burst  int64
	tokens int64
}

// tokenUnit is one whole token in a TokenBudget's fixed-point count.
const tokenUnit = 1_000_000

// NewTokenBudget returns a full bucket of burst tokens earning ratio per
// success, ratio rounded to millionths (and capped at burst, which one earn
// cannot exceed anyway).
func NewTokenBudget(ratio float64, burst int) *TokenBudget {
	b := int64(burst) * tokenUnit
	return &TokenBudget{earn: int64(math.Round(min(ratio, float64(burst)) * tokenUnit)), burst: b, tokens: b}
}

// Spend takes one token; false means the budget is dry.
func (b *TokenBudget) Spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < tokenUnit {
		return false
	}
	b.tokens -= tokenUnit
	return true
}

// Earn credits one success: ratio tokens, capped at burst.
func (b *TokenBudget) Earn() {
	b.mu.Lock()
	b.tokens = min(b.tokens+b.earn, b.burst)
	b.mu.Unlock()
}
