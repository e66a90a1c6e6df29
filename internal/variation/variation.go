// Package variation models process and interconnect variation for buffer
// insertion: corners, samplers, a parallel corner-sweep runner over the
// repository's warm zero-allocation engines, slack/yield statistics, and a
// robust placement-selection mode.
//
// A Corner is a multiplicative perturbation of the electrical parameters of
// one fabricated instance of the design: buffer driving resistance R,
// intrinsic delay K and input capacitance Cin are scaled by one factor each
// (uniformly across the library — a process corner shifts every device the
// same way), and wire resistance r and capacitance c are scaled likewise.
// Deterministic named corners (Nominal, Fast, Slow, the cross corners)
// model sign-off style multi-corner analysis; a seeded Sampler draws Monte
// Carlo corners with configurable per-parameter sigma for yield estimation.
//
// A SweepEngine rewrites one scratch library and one scratch tree in place
// per corner and re-runs a warm core engine on them (its Reset re-derives
// the library orderings without allocating): after the first corner, each
// additional sample performs zero steady-state heap allocations (asserted
// by the package tests).
//
// Determinism: a Sampler with a fixed seed always yields the same corner
// sequence, and a sweep's result is independent of the worker count —
// samples are written by index and placements are deduplicated in sample
// order. A corner with all factors exactly 1 reproduces the nominal
// solver's result bit for bit (x·1.0 ≡ x in IEEE 754), which the root
// differential suite asserts.
package variation

import (
	"math"
	"math/rand"
	"strconv"

	"bufferkit/internal/solvererr"
)

// Corner is one set of multiplicative perturbation factors. The zero value
// is invalid (it would zero every parameter); start from Nominal() or a
// Sampler. Factors apply uniformly: every library type's R is scaled by
// LibR, and so on.
type Corner struct {
	// Name labels the corner in reports ("nominal", "fast", "mc17", …).
	Name string
	// LibR, LibK and LibCin scale buffer driving resistance, intrinsic
	// delay and input capacitance.
	LibR, LibK, LibCin float64
	// WireR and WireC scale per-edge wire resistance and capacitance.
	WireR, WireC float64
}

// Nominal returns the identity corner: every factor exactly 1, so applying
// it is a bit-exact no-op.
func Nominal() Corner {
	return Corner{Name: "nominal", LibR: 1, LibK: 1, LibCin: 1, WireR: 1, WireC: 1}
}

// Validate checks that every factor is positive and finite. Failures are
// *solvererr.ValidationError values naming the offending factor.
func (c Corner) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LibR", c.LibR}, {"LibK", c.LibK}, {"LibCin", c.LibCin},
		{"WireR", c.WireR}, {"WireC", c.WireC},
	} {
		if !(f.v > 0) || math.IsInf(f.v, 0) || math.IsNaN(f.v) {
			return solvererr.Validation("variation", f.name,
				"corner %q: factor %g must be positive and finite", c.Name, f.v)
		}
	}
	return nil
}

// ProcessCorners returns the classic deterministic corner set: nominal,
// fast (strong devices, light wires) and slow (weak devices, heavy wires),
// plus the two cross corners (fast devices with heavy wires and vice
// versa). The ±10 % device and ±8 % wire excursions sit inside the range
// the paper's TSMC 180 nm constants span between process splits.
func ProcessCorners() []Corner {
	return []Corner{
		Nominal(),
		{Name: "fast", LibR: 0.90, LibK: 0.90, LibCin: 0.95, WireR: 0.92, WireC: 0.92},
		{Name: "slow", LibR: 1.10, LibK: 1.10, LibCin: 1.05, WireR: 1.08, WireC: 1.08},
		{Name: "fastdev-slowwire", LibR: 0.90, LibK: 0.90, LibCin: 0.95, WireR: 1.08, WireC: 1.08},
		{Name: "slowdev-fastwire", LibR: 1.10, LibK: 1.10, LibCin: 1.05, WireR: 0.92, WireC: 0.92},
	}
}

// Params are per-parameter relative sigmas for a Sampler: 0.05 means one
// standard deviation moves the parameter 5 % off nominal.
type Params struct {
	LibR, LibK, LibCin, WireR, WireC float64
}

// Uniform returns Params with every sigma set to the same value.
func Uniform(sigma float64) Params {
	return Params{LibR: sigma, LibK: sigma, LibCin: sigma, WireR: sigma, WireC: sigma}
}

// Validate checks every sigma is finite, nonnegative and at most MaxSigma.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LibR", p.LibR}, {"LibK", p.LibK}, {"LibCin", p.LibCin},
		{"WireR", p.WireR}, {"WireC", p.WireC},
	} {
		if f.v < 0 || f.v > MaxSigma || math.IsInf(f.v, 0) || math.IsNaN(f.v) {
			return solvererr.Validation("variation", f.name,
				"sigma %g must be in [0, %g]", f.v, MaxSigma)
		}
	}
	return nil
}

// MaxSigma bounds sampler sigmas; beyond ~50 % relative variation the
// truncated-Gaussian factor model stops being meaningful.
const MaxSigma = 0.5

// minFactor floors sampled factors so a deep negative tail cannot produce
// a non-physical (zero or negative) parameter.
const minFactor = 0.05

// Sampler draws Monte Carlo corners: each corner's five factors are
// independent Gaussians 1 + sigma·N(0,1), floored at a small positive
// value. A Sampler is deterministic: the same Seed and Params always
// produce the same corner sequence, regardless of how many corners are
// drawn per call.
type Sampler struct {
	// Params are the per-parameter sigmas (zero sigma pins a factor to
	// exactly 1, so Params{} samples only nominal corners).
	Params Params
	// Seed seeds the generator.
	Seed int64
}

// CornersInto fills dst with the first len(dst) corners of the sequence.
func (s Sampler) CornersInto(dst []Corner) {
	rng := rand.New(rand.NewSource(s.Seed ^ 0x76617279)) // "vary"
	for i := range dst {
		dst[i] = Corner{
			Name:   "mc" + strconv.Itoa(i),
			LibR:   factor(rng, s.Params.LibR),
			LibK:   factor(rng, s.Params.LibK),
			LibCin: factor(rng, s.Params.LibCin),
			WireR:  factor(rng, s.Params.WireR),
			WireC:  factor(rng, s.Params.WireC),
		}
	}
}

// factor draws 1 + sigma·N(0,1) floored at minFactor. A zero sigma returns
// exactly 1 while still consuming one variate, so the sequence structure is
// independent of which sigmas are enabled.
func factor(rng *rand.Rand, sigma float64) float64 {
	g := rng.NormFloat64()
	f := 1 + sigma*g
	if f < minFactor {
		f = minFactor
	}
	return f
}
