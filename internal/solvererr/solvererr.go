// Package solvererr defines the typed error taxonomy shared by every
// insertion algorithm in the repository. The bufferkit facade re-exports
// the sentinels and the ValidationError type, so callers can branch with
// errors.Is / errors.As instead of matching message strings:
//
//   - ErrInfeasible: the instance admits no polarity-feasible solution.
//   - ErrCanceled: the run was stopped by context cancellation.
//   - ValidationError: the instance itself is malformed (bad library
//     field, polarity requirement the library cannot serve, …), with
//     vertex / library-type / field detail.
//
// The package sits below internal/core, internal/vanginneken and
// internal/costopt so that all three wrap the same sentinel values the
// facade exports.
package solvererr

import (
	"context"
	"errors"
	"fmt"
)

// ErrInfeasible is wrapped by algorithm errors that mean "this instance has
// no polarity-feasible solution" — as opposed to a malformed instance
// (ValidationError) or an interrupted run (ErrCanceled).
var ErrInfeasible = errors.New("infeasible instance")

// ErrCanceled is wrapped by algorithm errors caused by context
// cancellation. errors.Is(err, context.Canceled) style checks do not apply
// here because engines surface the cancellation cause separately; test with
// errors.Is(err, ErrCanceled).
var ErrCanceled = errors.New("run canceled")

// PollMask throttles the cancellation poll in every solver's per-vertex
// loop: the context is consulted on vertices where vi&PollMask == 0 (a
// power-of-two stride), so the warm path stays allocation-free and the
// check cost is amortized away while cancellation latency stays bounded by
// a few dozen list operations. Shared here so all three algorithm packages
// poll at the same stride.
const PollMask = 63

// Canceled builds the error an engine returns when ctx fires mid-run,
// wrapping ErrCanceled around the context's cause. Only the cancellation
// path pays the allocation.
func Canceled(ctx context.Context) error {
	cause := context.Cause(ctx)
	if cause == nil {
		cause = ctx.Err()
	}
	if cause == nil {
		return ErrCanceled
	}
	return fmt.Errorf("%w: %v", ErrCanceled, cause)
}

// Infeasible builds an ErrInfeasible-wrapping error with a formatted
// detail message.
func Infeasible(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrInfeasible)
}

// ValidationError reports a malformed instance: a library type with an
// illegal field, a sink whose polarity requirement the library cannot
// serve, a vertex restriction that excludes every type, and so on.
type ValidationError struct {
	// Op names the component that rejected the instance ("core",
	// "library", "vanginneken", …).
	Op string
	// Vertex is the offending vertex index, or -1 when the problem is not
	// tied to a vertex.
	Vertex int
	// Type is the offending buffer-library type index, or -1.
	Type int
	// Field names the offending field or property ("polarity", "R",
	// "Cin", "allowed", …).
	Field string
	// Msg describes the violation in plain words.
	Msg string
}

// Error implements error.
func (e *ValidationError) Error() string {
	switch {
	case e.Vertex >= 0:
		return fmt.Sprintf("%s: vertex %d: invalid %s: %s", e.Op, e.Vertex, e.Field, e.Msg)
	case e.Type >= 0:
		return fmt.Sprintf("%s: library type %d: invalid %s: %s", e.Op, e.Type, e.Field, e.Msg)
	}
	return fmt.Sprintf("%s: invalid %s: %s", e.Op, e.Field, e.Msg)
}

// Validation builds a *ValidationError not tied to a vertex or library
// type; callers fill Vertex/Type through the At helpers.
func Validation(op, field, format string, args ...any) *ValidationError {
	return &ValidationError{Op: op, Vertex: -1, Type: -1, Field: field, Msg: fmt.Sprintf(format, args...)}
}

// AtVertex returns a copy of e pinned to vertex v.
func (e *ValidationError) AtVertex(v int) *ValidationError {
	out := *e
	out.Vertex = v
	return &out
}

// AtType returns a copy of e pinned to library type t.
func (e *ValidationError) AtType(t int) *ValidationError {
	out := *e
	out.Type = t
	return &out
}
