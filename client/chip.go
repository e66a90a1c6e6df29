package client

import (
	"context"
	"fmt"
	"io"
)

// ChipStream iterates a /v1/chip NDJSON response: one ChipRound line per
// pricing round, then a terminal summary. Not safe for concurrent use.
// Close it when done (early Close aborts the server-side allocator via the
// request context).
type ChipStream struct {
	lines lineStream[ChipLine]
}

// Chip starts a multi-net chip solve and returns the convergence stream.
// Like Batch, retries apply only up to obtaining the response: a chip
// solve is far too expensive to silently re-run, so a cut stream surfaces
// from Next (ErrTruncated for the server's in-band abort record) and
// resuming is the caller's decision.
func (c *Client) Chip(ctx context.Context, req ChipRequest) (*ChipStream, error) {
	lines, err := openStream(c, ctx, "/v1/chip", &req, func(line *ChipLine) error {
		if line.Error != "" {
			return fmt.Errorf("%w: %s (after %d rounds, %d net solves)",
				ErrTruncated, line.Error, line.CompletedRounds, line.SolvedNets)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ChipStream{lines: lines}, nil
}

// Next returns the next stream line — a round record or the terminal
// summary — or io.EOF after the summary. A terminal error record (deadline
// or server-side abort mid-run) returns an error wrapping ErrTruncated
// that carries the server's partial-progress message.
func (s *ChipStream) Next() (*ChipLine, error) { return s.lines.next() }

// Collect drains the stream, returning every round record and the final
// summary. On truncation it returns the rounds received so far alongside
// the ErrTruncated-wrapping error (summary nil).
func (s *ChipStream) Collect() ([]ChipRound, *ChipSummary, error) {
	var rounds []ChipRound
	var done *ChipSummary
	for {
		line, err := s.Next()
		if err == io.EOF {
			if done == nil {
				return rounds, nil, fmt.Errorf("%w: stream ended without a summary", ErrTruncated)
			}
			return rounds, done, nil
		}
		if err != nil {
			return rounds, nil, err
		}
		if line.Round != nil {
			rounds = append(rounds, *line.Round)
		}
		if line.Done != nil {
			done = line.Done
		}
	}
}

// Close releases the stream; abandoning it mid-solve cancels the
// server-side allocator through the request context.
func (s *ChipStream) Close() error { return s.lines.close() }
