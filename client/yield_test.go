package client

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"bufferkit"
	"bufferkit/internal/server"
)

// TestYieldRoundTrip: a Monte Carlo sweep wide enough for several optima
// reaches the client whole, in nominal and robust mode. Placements lists
// the distinct optima, Chosen indexes it, the reply's Buffers and Cost
// describe that entry, and every placement key is a vertex of the net.
func TestYieldRoundTrip(t *testing.T) {
	c, _, _ := newTestClient(t, server.Config{})
	netText, libText := readTestdata(t, "random12.net"), readTestdata(t, "lib8.buf")
	net, err := bufferkit.ParseNet(strings.NewReader(netText))
	if err != nil {
		t.Fatal(err)
	}
	vertices := map[string]bool{"src": true}
	for v := 1; v < net.Tree.Len(); v++ {
		name := net.Tree.Verts[v].Name
		if name == "" {
			name = fmt.Sprintf("v%d", v)
		}
		vertices[name] = true
	}
	seed := int64(7)
	for _, robust := range []bool{false, true} {
		t.Run(fmt.Sprintf("robust=%t", robust), func(t *testing.T) {
			res, err := c.Yield(context.Background(), YieldRequest{
				Net: netText, Library: libText,
				Samples: 16, Sigma: 0.15, Seed: &seed, Robust: robust,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Robust != robust || res.Samples != 17 {
				t.Fatalf("robust=%t samples=%d, want robust=%t samples=17", res.Robust, res.Samples, robust)
			}
			if len(res.Placements) < 2 {
				t.Fatalf("reply lists %d distinct optima, want several: %+v", len(res.Placements), res.Placements)
			}
			if res.Chosen < 0 || res.Chosen >= len(res.Placements) {
				t.Fatalf("chosen %d does not index %d placements", res.Chosen, len(res.Placements))
			}
			chosen := res.Placements[res.Chosen]
			if chosen.Buffers != res.Buffers || chosen.Cost != res.Cost {
				t.Fatalf("placements[%d] = %+v, reply has buffers %d cost %d", res.Chosen, chosen, res.Buffers, res.Cost)
			}
			if len(res.Placement) != res.Buffers {
				t.Fatalf("placement has %d entries, reply says %d buffers", len(res.Placement), res.Buffers)
			}
			for name := range res.Placement {
				if !vertices[name] {
					t.Fatalf("placement names %q, not a vertex of the net", name)
				}
			}
		})
	}
}
