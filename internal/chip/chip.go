// Package chip models chip-scale buffered routing: many nets competing for
// a shared pool of legal buffer locations ("sites"), solved by Lagrangian
// price-and-resolve rounds over the repository's warm O(bn²) engines.
//
// The model is a W×H site grid with a per-site buffer capacity and optional
// rectangular blockages (capacity 0). Each net is an ordinary routing tree
// whose buffer positions are mapped to site IDs; positions without a site
// (NoSite) are unconstrained. The Allocator (see alloc.go) iterates:
//
//  1. Solve every net whose site prices changed, in parallel, with the
//     per-vertex price folded into the dynamic program through
//     core.Options.SitePenalty.
//  2. Recompute per-site usage and update prices by a projected
//     subgradient step on the overflow.
//
// until the allocation is capacity-feasible or the round budget is spent,
// then guarantees feasibility with a deterministic sequential repair pass
// that re-solves offending nets with saturated sites masked out. See
// DESIGN.md §14.
package chip

import (
	"bufferkit/internal/delay"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/tree"
)

// NoSite marks a vertex with no site constraint in Net.Site.
const NoSite = -1

// maxSites bounds a grid's site count. The allocator keeps several
// per-site vectors, so the bound caps what one instance can make it
// allocate; it is a thousand times the largest grid the repository
// generates (32×32).
const maxSites = 1 << 20

// Grid is a rectangular array of buffer sites. Site IDs are y*W + x.
type Grid struct {
	// W and H are the grid dimensions in sites.
	W, H int
	// Capacity is the default per-site buffer capacity.
	Capacity int
}

// NumSites returns the number of sites in the grid.
func (g Grid) NumSites() int { return g.W * g.H }

// Site returns the site ID of cell (x, y).
func (g Grid) Site(x, y int) int { return y*g.W + x }

// Blockage is an inclusive cell rectangle whose sites have capacity 0 —
// a macro, a memory, anything buffers cannot be placed under.
type Blockage struct {
	X0, Y0, X1, Y1 int
}

// contains reports whether the blockage covers cell (x, y).
func (b Blockage) contains(x, y int) bool {
	return x >= b.X0 && x <= b.X1 && y >= b.Y0 && y <= b.Y1
}

// Net is one routing tree competing for sites.
type Net struct {
	// Name labels the net in reports and errors.
	Name string
	// Tree is the routing tree; it is never mutated by the allocator
	// (scratch clones carry per-net masking).
	Tree *tree.Tree
	// Driver is the net's source driver (zero value = ideal driver).
	Driver delay.Driver
	// Site maps vertex index to the site ID its buffer position occupies,
	// or NoSite for unconstrained vertices. Its length must equal
	// Tree.Len(), only legal buffer positions may carry a site, and a net
	// may visit each site at most once.
	Site []int
}

// Instance is a multi-net buffered-routing problem over one site grid.
type Instance struct {
	// Grid is the site grid.
	Grid Grid
	// Blockages are capacity-0 rectangles on the grid.
	Blockages []Blockage
	// Nets are the competing nets.
	Nets []Net
}

// Capacities materializes the per-site capacity vector: Grid.Capacity
// everywhere, 0 under blockages. capacity, when positive, overrides the
// grid default (blockages stay 0).
func (inst *Instance) Capacities(capacity int) []int {
	if capacity <= 0 {
		capacity = inst.Grid.Capacity
	}
	caps := make([]int, inst.Grid.NumSites())
	for i := range caps {
		caps[i] = capacity
	}
	for _, b := range inst.Blockages {
		for y := b.Y0; y <= b.Y1; y++ {
			for x := b.X0; x <= b.X1; x++ {
				caps[inst.Grid.Site(x, y)] = 0
			}
		}
	}
	return caps
}

// Validate checks the instance shape: positive grid dimensions with at
// most maxSites sites, nonnegative capacity, blockages inside the grid, and
// per-net site vectors that match the tree, stay in range, sit only on
// legal buffer positions, and never visit a site twice. Failures are
// *solvererr.ValidationError values.
func (inst *Instance) Validate() error {
	g := inst.Grid
	if g.W <= 0 || g.H <= 0 {
		return solvererr.Validation("chip", "grid", "grid %dx%d must have positive dimensions", g.W, g.H)
	}
	if g.W > maxSites/g.H { // W*H > maxSites, without overflowing
		return solvererr.Validation("chip", "grid", "grid %dx%d exceeds %d sites", g.W, g.H, maxSites)
	}
	if g.Capacity < 0 {
		return solvererr.Validation("chip", "capacity", "site capacity %d must be nonnegative", g.Capacity)
	}
	for i, b := range inst.Blockages {
		if b.X0 < 0 || b.Y0 < 0 || b.X1 >= g.W || b.Y1 >= g.H || b.X0 > b.X1 || b.Y0 > b.Y1 {
			return solvererr.Validation("chip", "blockage",
				"blockage %d (%d,%d)-(%d,%d) outside %dx%d grid or inverted", i, b.X0, b.Y0, b.X1, b.Y1, g.W, g.H)
		}
	}
	if len(inst.Nets) == 0 {
		return solvererr.Validation("chip", "nets", "instance has no nets")
	}
	n := g.NumSites()
	seen := make(map[int]int) // site -> net index of last visit (per net via stamp)
	for i := range inst.Nets {
		net := &inst.Nets[i]
		if net.Tree == nil {
			return solvererr.Validation("chip", "net", "net %d (%q) has no tree", i, net.Name)
		}
		if len(net.Site) != net.Tree.Len() {
			return solvererr.Validation("chip", "sites",
				"net %d (%q): site vector length %d != tree size %d", i, net.Name, len(net.Site), net.Tree.Len())
		}
		for v, s := range net.Site {
			if s == NoSite {
				continue
			}
			if s < 0 || s >= n {
				return solvererr.Validation("chip", "sites",
					"net %d (%q): vertex %d site %d out of range [0,%d)", i, net.Name, v, s, n)
			}
			if !net.Tree.Verts[v].BufferOK {
				return solvererr.Validation("chip", "sites",
					"net %d (%q): vertex %d carries site %d but is not a buffer position", i, net.Name, v, s)
			}
			if last, ok := seen[s]; ok && last == i {
				return solvererr.Validation("chip", "sites",
					"net %d (%q): site %d visited twice", i, net.Name, s)
			}
			seen[s] = i
		}
	}
	return nil
}
