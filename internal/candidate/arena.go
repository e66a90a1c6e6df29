package candidate

import "unsafe"

// DecRef is an index-linked reference to a decision record inside an Arena.
// The zero value is the nil reference: it refers to no decision and fills
// nothing. References are only meaningful against the arena that issued them
// and only until that arena's next Reset.
type DecRef uint32

// decRecord is the packed arena representation of one Decision. Compared to
// the original heap-allocated pointer DAG (two 8-byte child pointers plus
// per-node GC bookkeeping), records are 20 bytes, pointer-free, and live in
// large slabs the collector scans in O(#slabs), not O(#decisions).
type decRecord struct {
	kind   DecisionKind
	buffer int32
	vertex int32
	a, b   DecRef
}

// Slab geometry. Decisions are by far the highest-churn allocation (every
// merge output and every surviving beta creates one), so their slabs are the
// largest. All sizes are powers of two so index decomposition is shift/mask.
const (
	decSlabBits  = 13 // 8192 decisions (160 KiB) per slab
	decSlabSize  = 1 << decSlabBits
	decSlabMask  = decSlabSize - 1
	nodeSlabBits = 10 // 1024 nodes per slab
	nodeSlabSize = 1 << nodeSlabBits
	listSlabBits = 7 // 128 list headers per slab
	listSlabSize = 1 << listSlabBits
)

// Arena owns all per-run allocation of the candidate machinery: decision
// records, candidate list nodes, and list headers, each in chunked slabs.
// Reset releases everything in O(1) (cursors rewind, slabs are retained), so
// a warm arena re-runs the whole dynamic program with zero allocations.
//
// The package-level sync.Pool keeps recycling nodes for arena-less lists
// (FromPairs, tests); arena-backed lists recycle through the
// arena's own free lists instead, so their nodes never leak into the global
// pool and never outlive a Reset.
//
// An Arena is not safe for concurrent use; batch workloads use one arena per
// worker (see bufferkit.Solver.Stream).
type Arena struct {
	dec    [][]decRecord
	nDec   int
	curDec []decRecord // tail slab; alloc's fast path is one masked store

	nodes    [][]Node
	nNode    int
	freeNode []*Node

	lists    [][]List
	nList    int
	freeList []*List

	soa     [][]SoAList
	nSoA    int
	freeSoA []*SoAList

	fill []DecRef // reusable Fill work stack
}

// NewArena returns an empty arena. Slabs are allocated lazily on first use.
func NewArena() *Arena { return &Arena{} }

// Resize returns s with length n, reusing its backing array when possible —
// the scratch-buffer discipline shared by every engine built on this
// package. Retained elements keep their previous values; callers that need
// zeroing clear the result themselves.
func Resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Reset releases every decision, node and list handed out since the last
// Reset, in O(1): slab memory is kept and the allocation cursors rewind.
// All DecRefs, *Nodes and *Lists obtained from the arena become invalid.
func (ar *Arena) Reset() {
	ar.nDec = 0
	ar.curDec = nil
	ar.nNode = 0
	ar.freeNode = ar.freeNode[:0]
	ar.nList = 0
	ar.freeList = ar.freeList[:0]
	ar.nSoA = 0
	ar.freeSoA = ar.freeSoA[:0]
}

// NumDecisions returns the number of live decision records.
func (ar *Arena) NumDecisions() int { return ar.nDec }

// Bytes reports the slab memory the arena currently retains — decision,
// node and list slabs plus the SoA headers' retained column capacity.
// Slabs survive Reset by design, so this is the engine's steady-state
// working-set footprint, not the live-object count of one run.
func (ar *Arena) Bytes() int {
	b := len(ar.dec) * decSlabSize * int(unsafe.Sizeof(decRecord{}))
	b += len(ar.nodes) * nodeSlabSize * int(unsafe.Sizeof(Node{}))
	b += len(ar.lists) * listSlabSize * int(unsafe.Sizeof(List{}))
	b += len(ar.soa) * listSlabSize * int(unsafe.Sizeof(SoAList{}))
	for _, slab := range ar.soa {
		for i := range slab {
			l := &slab[i]
			b += (cap(l.q) + cap(l.c) + cap(l.q2) + cap(l.c2)) * 8
			b += (cap(l.dec) + cap(l.dec2)) * int(unsafe.Sizeof(DecRef(0)))
		}
	}
	return b
}

// alloc appends one record and returns its reference. Index i lives at
// slab i>>decSlabBits, offset i&decSlabMask; the returned ref is i+1 so that
// the zero DecRef stays nil. The tail slab is cached, so the steady-state
// path — decisions are the highest-frequency allocation in every engine —
// is a masked store plus a cursor bump.
func (ar *Arena) alloc(rec decRecord) DecRef {
	i := ar.nDec
	off := i & decSlabMask
	if off == 0 || ar.curDec == nil {
		s := i >> decSlabBits
		if s == len(ar.dec) {
			ar.dec = append(ar.dec, make([]decRecord, decSlabSize))
		}
		ar.curDec = ar.dec[s]
	}
	ar.curDec[off] = rec
	ar.nDec++
	return DecRef(i + 1)
}

func (ar *Arena) rec(r DecRef) *decRecord {
	i := int(r) - 1
	return &ar.dec[i>>decSlabBits][i&decSlabMask]
}

// SinkDec records the base-case decision of a bare sink at the given vertex.
func (ar *Arena) SinkDec(vertex int) DecRef {
	return ar.alloc(decRecord{kind: DecSink, vertex: int32(vertex)})
}

// BufferDec records the insertion of library type buffer at vertex, applied
// to the candidate whose decision is src.
func (ar *Arena) BufferDec(vertex, buffer int, src DecRef) DecRef {
	return ar.alloc(decRecord{kind: DecBuffer, vertex: int32(vertex), buffer: int32(buffer), a: src})
}

// MergeDec records the joining of two sibling-branch candidates.
func (ar *Arena) MergeDec(a, b DecRef) DecRef {
	return ar.alloc(decRecord{kind: DecMerge, a: a, b: b})
}

// Decision returns the read-only view of record r. The nil reference yields
// the zero Decision.
func (ar *Arena) Decision(r DecRef) Decision {
	if r == 0 {
		return Decision{}
	}
	rec := ar.rec(r)
	return Decision{
		Kind:   rec.kind,
		Vertex: int(rec.vertex),
		Buffer: int(rec.buffer),
		A:      rec.a,
		B:      rec.b,
	}
}

// Fill walks the decision lineage rooted at r and records every inserted
// buffer into p, where p[v] is a library type index or -1. The walk is
// iterative over an arena-owned stack, so lineages tens of thousands of
// decisions deep (long 2-pin chains) are safe and a warm arena fills with
// zero allocations.
func (ar *Arena) Fill(r DecRef, p []int) {
	if r == 0 {
		return
	}
	stack := ar.fill[:0]
	stack = append(stack, r)
	for len(stack) > 0 {
		cur := ar.rec(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		switch cur.kind {
		case DecSink:
			// nothing to record
		case DecBuffer:
			p[cur.vertex] = int(cur.buffer)
			if cur.a != 0 {
				stack = append(stack, cur.a)
			}
		case DecMerge:
			if cur.a != 0 {
				stack = append(stack, cur.a)
			}
			if cur.b != 0 {
				stack = append(stack, cur.b)
			}
		}
	}
	ar.fill = stack[:0]
}

// newNode hands out a node from the arena: the free list first (nodes
// recycled by list pruning), then the slab cursor.
func (ar *Arena) newNode(q, c float64, dec DecRef) *Node {
	var nd *Node
	if n := len(ar.freeNode); n > 0 {
		nd = ar.freeNode[n-1]
		ar.freeNode = ar.freeNode[:n-1]
	} else {
		i := ar.nNode
		s := i >> nodeSlabBits
		if s == len(ar.nodes) {
			ar.nodes = append(ar.nodes, make([]Node, nodeSlabSize))
		}
		nd = &ar.nodes[s][i&(nodeSlabSize-1)]
		ar.nNode++
	}
	nd.Q, nd.C, nd.Dec = q, c, dec
	nd.prev, nd.next = nil, nil
	return nd
}

func (ar *Arena) putNode(nd *Node) {
	ar.freeNode = append(ar.freeNode, nd)
}

// NewList returns an empty list whose nodes and decisions allocate from the
// arena. The header itself comes from arena slabs too, so warm runs create
// lists without touching the heap.
func (ar *Arena) NewList() *List {
	var l *List
	if n := len(ar.freeList); n > 0 {
		l = ar.freeList[n-1]
		ar.freeList = ar.freeList[:n-1]
	} else {
		i := ar.nList
		s := i >> listSlabBits
		if s == len(ar.lists) {
			ar.lists = append(ar.lists, make([]List, listSlabSize))
		}
		l = &ar.lists[s][i&(listSlabSize-1)]
		ar.nList++
	}
	l.front, l.back, l.n, l.ar = nil, nil, 0, ar
	return l
}

// NewSoAList returns an empty structure-of-arrays list whose decisions
// allocate from the arena. Headers come from arena slabs and keep their
// q/c/dec slab capacity across Reset (only the cursors rewind), so warm
// runs create and grow SoA lists without touching the heap.
func (ar *Arena) NewSoAList() *SoAList {
	var l *SoAList
	if n := len(ar.freeSoA); n > 0 {
		l = ar.freeSoA[n-1]
		ar.freeSoA = ar.freeSoA[:n-1]
	} else {
		i := ar.nSoA
		s := i >> listSlabBits
		if s == len(ar.soa) {
			ar.soa = append(ar.soa, make([]SoAList, listSlabSize))
		}
		l = &ar.soa[s][i&(listSlabSize-1)]
		ar.nSoA++
	}
	l.q, l.c, l.dec = l.q[:0], l.c[:0], l.dec[:0]
	l.q2, l.c2, l.dec2 = l.q2[:0], l.c2[:0], l.dec2[:0]
	l.ar = ar
	return l
}

// NewSink returns a single-candidate list for a sink with RAT q and load c,
// recording its base-case decision in the arena.
func (ar *Arena) NewSink(q, c float64, vertex int) *List {
	l := ar.NewList()
	l.pushBack(ar.newNode(q, c, ar.SinkDec(vertex)))
	return l
}
