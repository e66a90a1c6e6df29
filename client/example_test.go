package client_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"bufferkit/client"
	"bufferkit/internal/server"
)

// exampleSession opens an ECO session on testdata's 5 mm line against an
// in-process bufferkitd and prints its first resolve.
func exampleSession(ctx context.Context) (*client.Session, func()) {
	srv := httptest.NewServer(server.New(server.Config{}).Handler())
	net, err := os.ReadFile("../testdata/line.net")
	if err != nil {
		log.Fatal(err)
	}
	lib, err := os.ReadFile("../testdata/lib8.buf")
	if err != nil {
		log.Fatal(err)
	}
	c, err := client.New(srv.URL)
	if err != nil {
		log.Fatal(err)
	}
	s := c.Session("line", string(net), string(lib), client.SolveOptions{})
	res, err := s.Resolve(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slack %.4f ps, buffers %v\n", res.Slack, res.Placement)
	return s, srv.Close
}

// Widen the wire into v1: a lower resistance raises the slack.
func ExampleEdgePatch() {
	ctx := context.Background()
	s, stop := exampleSession(ctx)
	defer stop()
	res, err := s.Patch(ctx, client.EdgePatch("v1", 0.01, 47.2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slack %.4f ps, buffers %v\n", res.Slack, res.Placement)
	// Output:
	// slack 517.8398 ps, buffers map[v16:buf8 v8:buf8]
	// slack 525.5306 ps, buffers map[v16:buf8 v8:buf8]
}

// Take v8 off the legal buffer positions: its buffer moves to v7.
// The source is the driver, not a buffer position, so a buffer patch on it
// is rejected.
func ExampleBufferPatch() {
	ctx := context.Background()
	s, stop := exampleSession(ctx)
	defer stop()
	res, err := s.Patch(ctx, client.BufferPatch("v8", false))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slack %.4f ps, buffers %v\n", res.Slack, res.Placement)
	_, err = s.Patch(ctx, client.BufferPatch("src", true))
	fmt.Println(err)
	// Output:
	// slack 517.8398 ps, buffers map[v16:buf8 v8:buf8]
	// slack 517.3490 ps, buffers map[v16:buf8 v7:buf8]
	// bufferkitd: 400 core: vertex 0: invalid delta: buffer delta targets the source, which is the driver, not a buffer position (field delta)
}
