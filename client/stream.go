package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// maxScanBuf caps one NDJSON line on the batch and chip streams. A var,
// not a const, so tests can exercise the limit without allocating
// multi-gigabyte lines.
var maxScanBuf = 16 * 1024 * 1024

// ErrLineTooLong reports an NDJSON line larger than the stream's scanner
// buffer. Distinct from ErrTruncated: the server did not abort — the reply
// is simply bigger than the client is willing to hold, which usually means
// a placement so large the caller should solve that net individually.
var ErrLineTooLong = errors.New("bufferkitd: NDJSON line exceeds the scanner buffer")

// newScanner builds a line scanner bounded at maxScanBuf.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(64*1024, maxScanBuf)), maxScanBuf)
	return sc
}

// scanErr maps a scanner failure to its stream error: a bare
// bufio.ErrTooLong names neither the endpoint nor the limit, so wrap it in
// ErrLineTooLong with both.
func scanErr(endpoint string, err error) error {
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("%w (%s, limit %d bytes): %w", ErrLineTooLong, endpoint, maxScanBuf, err)
	}
	return err
}

// lineStream reads an NDJSON response one record of type T at a time.
// terminal maps a decoded record to the error that ends the stream early
// (nil for an ordinary record). Not safe for concurrent use.
type lineStream[T any] struct {
	endpoint string
	resp     *http.Response
	sc       *bufio.Scanner
	cancel   context.CancelFunc
	terminal func(*T) error
	err      error
}

// openStream posts req to endpoint and returns its record stream. The
// retry loop applies only up to obtaining the response: once any line has
// been consumed the stream is never retried.
func openStream[T any](c *Client, ctx context.Context, endpoint string, req any, terminal func(*T) error) (lineStream[T], error) {
	body, err := json.Marshal(req)
	if err != nil {
		return lineStream[T]{}, err
	}
	// A child context detaches the stream's lifetime from the retry
	// loop's: close cancels it to abort the server-side work.
	ctx, cancel := context.WithCancel(ctx)
	resp, err := c.do(ctx, http.MethodPost, endpoint, body)
	if err != nil {
		cancel()
		return lineStream[T]{}, err
	}
	return lineStream[T]{endpoint: endpoint, resp: resp, sc: newScanner(resp.Body), cancel: cancel, terminal: terminal}, nil
}

// next returns the next record, or io.EOF after the last one. A terminal
// record, a malformed line and a transport error each end the stream with
// an error that every later call repeats.
func (s *lineStream[T]) next() (*T, error) {
	if s.err != nil {
		return nil, s.err
	}
	for s.sc.Scan() {
		if len(s.sc.Bytes()) == 0 {
			continue
		}
		var rec T
		if err := json.Unmarshal(s.sc.Bytes(), &rec); err != nil {
			s.err = fmt.Errorf("bufferkitd: bad NDJSON line: %w", err)
			return nil, s.err
		}
		if err := s.terminal(&rec); err != nil {
			s.err = err
			return nil, s.err
		}
		return &rec, nil
	}
	if err := s.sc.Err(); err != nil {
		s.err = scanErr(s.endpoint, err)
		return nil, s.err
	}
	s.err = io.EOF
	return nil, io.EOF
}

// close releases the stream; abandoning it early cancels the server-side
// work through the request context.
func (s *lineStream[T]) close() error {
	s.cancel()
	io.Copy(io.Discard, io.LimitReader(s.resp.Body, 1<<20))
	return s.resp.Body.Close()
}

// BatchStream iterates a /v1/batch NDJSON response. Not safe for
// concurrent use. Close it when done (early Close aborts the server-side
// batch via the request context).
type BatchStream struct {
	lines lineStream[BatchLine]
}

// Batch starts a batch solve and returns the result stream. The retry
// loop applies only up to obtaining the response — once any line has
// been consumed the stream is never retried; a cut or truncated stream
// surfaces from Next as an error (ErrTruncated for the server's in-band
// abort record) and resuming is the caller's decision.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (*BatchStream, error) {
	lines, err := openStream(c, ctx, "/v1/batch", &req, func(line *BatchLine) error {
		if line.Index < 0 {
			// The server's in-band abort record: the batch ended early.
			return fmt.Errorf("%w: %s", ErrTruncated, line.Error)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &BatchStream{lines: lines}, nil
}

// Next returns the next batch line, or io.EOF after the last one. A
// truncated stream returns an error wrapping ErrTruncated; a dead
// connection returns the transport error. Neither is retried here.
func (s *BatchStream) Next() (*BatchLine, error) { return s.lines.next() }

// Collect drains the stream into a slice indexed by input position.
// Lines carrying per-net errors are returned in place (Result nil,
// Error set). On truncation it returns the lines received so far
// alongside the ErrTruncated-wrapping error.
func (s *BatchStream) Collect(n int) ([]*BatchLine, error) {
	lines := make([]*BatchLine, n)
	for {
		line, err := s.Next()
		if err == io.EOF {
			return lines, nil
		}
		if err != nil {
			return lines, err
		}
		if line.Index >= 0 && line.Index < n {
			lines[line.Index] = line
		}
	}
}

// Close releases the stream; abandoning it mid-batch cancels the
// server-side workers through the request context.
func (s *BatchStream) Close() error { return s.lines.close() }
