// Package library models buffer libraries: the set of b buffer types the
// insertion algorithms may place at legal positions.
//
// Each type has a driving resistance R (kΩ), an input capacitance Cin (fF),
// an intrinsic delay K (ps), an optional integer cost (area/power proxy used
// by the cost extension), and an Inverting flag. The linear buffer delay
// model of the paper is d = K + R·Cdown, and an inserted buffer presents Cin
// to the upstream wire.
package library

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"bufferkit/internal/solvererr"
)

// Buffer is one buffer (or inverter) type.
type Buffer struct {
	Name string
	// R is the driving resistance in kΩ.
	R float64
	// Cin is the input capacitance in fF.
	Cin float64
	// K is the intrinsic delay in ps.
	K float64
	// Cost is an optional nonnegative integer cost (0 is legal) consumed by
	// the cost-optimization extension; the slack-only algorithms ignore it.
	Cost int
	// Inverting marks inverter types, which flip signal polarity.
	Inverting bool
}

// Delay returns the buffer delay K + R·cdown for a downstream load in fF.
func (b Buffer) Delay(cdown float64) float64 { return b.K + b.R*cdown }

// Library is an ordered collection of buffer types. Algorithms refer to
// types by index into this slice, so order is significant and must not be
// changed after a library has been handed to an algorithm.
type Library []Buffer

// Validate checks that every type has positive R and Cin, nonnegative K and
// Cost, and a nonempty library. Failures are *solvererr.ValidationError
// values carrying the offending type index and field.
func (l Library) Validate() error {
	if len(l) == 0 {
		return solvererr.Validation("library", "size", "empty library")
	}
	for i, b := range l {
		if !(b.R > 0) || math.IsInf(b.R, 0) || math.IsNaN(b.R) {
			return solvererr.Validation("library", "R", "(%s) driving resistance %g must be positive and finite", b.Name, b.R).AtType(i)
		}
		if !(b.Cin > 0) || math.IsInf(b.Cin, 0) || math.IsNaN(b.Cin) {
			return solvererr.Validation("library", "Cin", "(%s) input capacitance %g must be positive and finite", b.Name, b.Cin).AtType(i)
		}
		if b.K < 0 || math.IsInf(b.K, 0) || math.IsNaN(b.K) {
			return solvererr.Validation("library", "K", "(%s) intrinsic delay %g must be nonnegative and finite", b.Name, b.K).AtType(i)
		}
		if b.Cost < 0 {
			return solvererr.Validation("library", "Cost", "(%s) negative cost %d", b.Name, b.Cost).AtType(i)
		}
	}
	return nil
}

// HasInverters reports whether the library contains at least one inverting
// type.
func (l Library) HasInverters() bool {
	for _, b := range l {
		if b.Inverting {
			return true
		}
	}
	return false
}

// ByRDesc writes into idx the type indices sorted by non-increasing
// driving resistance, the order required by the paper's AddBuffer hull walk
// (R_{B1} ≥ R_{B2} ≥ … ≥ R_{Bb}), and returns it; idx (nil is fine) grows
// only when it is too short. Ties are broken by index for determinism.
func (l Library) ByRDesc(idx []int) []int {
	return l.order(idx, func(a, b Buffer) int { return cmp.Compare(b.R, a.R) })
}

// ByCinAsc writes into idx, like ByRDesc, the type indices sorted by
// non-decreasing input capacitance, the order in which new buffered
// candidates merge back into a candidate list in O(k + b). Ties are broken
// by index for determinism.
func (l Library) ByCinAsc(idx []int) []int {
	return l.order(idx, func(a, b Buffer) int { return cmp.Compare(a.Cin, b.Cin) })
}

func (l Library) order(idx []int, compare func(a, b Buffer) int) []int {
	idx = slices.Grow(idx[:0], len(l))[:len(l)]
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(i, j int) int { return compare(l[i], l[j]) })
	return idx
}

// MaxCost returns the largest type cost in the library.
func (l Library) MaxCost() int {
	m := 0
	for _, b := range l {
		if b.Cost > m {
			m = b.Cost
		}
	}
	return m
}

// Paper technology constants (TSMC 180 nm, Section 4 of the paper), in the
// repository units (kΩ, fF, ps, µm).
const (
	// PaperRMin and PaperRMax bound buffer driving resistance: 180 Ω – 7 kΩ.
	PaperRMin = 0.180
	PaperRMax = 7.0
	// PaperCinMin and PaperCinMax bound buffer input capacitance in fF.
	PaperCinMin = 0.7
	PaperCinMax = 23.0
	// PaperKMin and PaperKMax bound buffer intrinsic delay in ps.
	PaperKMin = 29.0
	PaperKMax = 36.4
	// PaperWireR is wire resistance per µm (0.076 Ω/µm) in kΩ/µm.
	PaperWireR = 0.076e-3
	// PaperWireC is wire capacitance per µm in fF/µm.
	PaperWireC = 0.118
	// PaperSinkCapMin and PaperSinkCapMax bound sink load in fF.
	PaperSinkCapMin = 2.0
	PaperSinkCapMax = 41.0
)

// Generate builds a library of the given size spanning the paper's parameter
// ranges. Types are graded from the weakest (highest R, smallest Cin — a
// small, cheap buffer) to the strongest (lowest R, largest Cin): R decreases
// geometrically while Cin increases geometrically, matching how real
// libraries grade drive strength, so no generated type dominates another.
// Intrinsic delay grows mildly with strength and cost grows linearly
// (1 … size), giving the cost extension meaningful trade-offs.
func Generate(size int) Library {
	if size < 1 {
		panic(fmt.Sprintf("library: Generate size %d < 1", size))
	}
	lib := make(Library, size)
	for i := 0; i < size; i++ {
		f := 0.0
		if size > 1 {
			f = float64(i) / float64(size-1)
		}
		lib[i] = Buffer{
			Name: fmt.Sprintf("buf%d", i+1),
			R:    geom(PaperRMax, PaperRMin, f),
			Cin:  geom(PaperCinMin, PaperCinMax, f),
			K:    PaperKMin + f*(PaperKMax-PaperKMin),
			Cost: 1 + i,
		}
	}
	return lib
}

// GenerateWithInverters is Generate, but every second type is an inverter
// (same electrical parameters, Inverting set, name prefixed "inv"). The
// result exercises the polarity-aware algorithm paths.
func GenerateWithInverters(size int) Library {
	lib := Generate(size)
	for i := 1; i < len(lib); i += 2 {
		lib[i].Inverting = true
		lib[i].Name = fmt.Sprintf("inv%d", i+1)
	}
	return lib
}

// geom interpolates geometrically from a (f=0) to b (f=1).
func geom(a, b, f float64) float64 {
	return a * math.Pow(b/a, f)
}
