package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"bufferkit"
	"bufferkit/client"
)

// driver is the source driver of every generated net (the repository's
// experiment driver).
var driver = bufferkit.Driver{R: 0.2, K: 15}

// workload is one traffic mix. Requests are numbered; request i's inputs
// are a pure function of the seed and i, so a seed always produces the
// same request sequence however many requests a run gets through.
// Warm-up requests use negative numbers.
type workload interface {
	// warmup sends the fixed warm-up requests to a freshly started server.
	warmup(ctx context.Context, c *client.Client) error
	// do sends timed request i and holds its answers for keep.
	do(ctx context.Context, c *client.Client, i int) (nets int, err error)
	// keep decodes the last request's answers for verification. It runs
	// off the clock, between requests.
	keep()
	// verify checks every kept answer off the clock. It returns how many
	// nets were answered correctly and the first failure.
	verify() (ok int, err error)
	// sample returns the workload's representative inputs for the
	// per-layer measurements.
	sample() *layerInputs
}

// layerInputs are a workload's own inputs in the shapes the per-layer
// measurements call: one net for the single-net layers, the nets of one
// request for the batch layers, and one ECO patch.
type layerInputs struct {
	single    *refNet
	batch     []*refNet
	patchSink string
	patchRAT  float64
	patchCap  float64
}

// rngFor returns the random source of request i.
func rngFor(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(i)))
}

func newWorkload(name string, seed int64, o *oracle) (workload, error) {
	switch name {
	case "industrial":
		return newIndustrial(seed, o)
	case "smallnets":
		return newSmallnets(seed, o)
	case "eco":
		return newEco(seed, o)
	}
	return nil, fmt.Errorf("unknown workload %q (industrial, smallnets or eco)", name)
}

// --- industrial -----------------------------------------------------------

// industrialPool is how many distinct m=337/n=5729 nets the industrial
// workload draws from.
const industrialPool = 4

// industrialWarmup is the number of warm-up solves.
const industrialWarmup = 6

// industrial sends uncached POST /v1/solve requests of the paper's
// m=337, n=5729 net against a b=16 library. Every request carries a unique
// net name, so it misses the result cache and does the same DP work.
type industrial struct {
	seed    int64
	o       *oracle
	pool    []*refNet
	answers []solveAnswer
	pending solveResult
}

// solveResult is a reply as received, for the pool net it answers.
type solveResult struct {
	pool int
	res  *client.SolveResult
}

// solveAnswer is one net's decoded answer and the pool net it was for.
type solveAnswer struct {
	pool int
	r    reply
}

func newIndustrial(seed int64, o *oracle) (*industrial, error) {
	w := &industrial{seed: seed, o: o}
	for k := range industrialPool {
		t, err := bufferkit.IndustrialNet(337, 5729, seed*industrialPool+int64(k))
		if err != nil {
			return nil, err
		}
		r, err := newRefNet(t, driver)
		if err != nil {
			return nil, err
		}
		w.pool = append(w.pool, r)
	}
	return w, nil
}

func (w *industrial) request(i int) (int, client.SolveRequest) {
	k := rngFor(w.seed, i).IntN(len(w.pool))
	name := fmt.Sprintf("ind%d_%d", w.seed, i)
	if i < 0 {
		name = fmt.Sprintf("ind%d_w%d", w.seed, -i)
	}
	return k, client.SolveRequest{Net: w.pool[k].text(name), Library: w.o.libText}
}

func (w *industrial) warmup(ctx context.Context, c *client.Client) error {
	for i := -industrialWarmup; i < 0; i++ {
		_, req := w.request(i)
		if _, err := c.Solve(ctx, req); err != nil {
			return err
		}
	}
	return nil
}

func (w *industrial) do(ctx context.Context, c *client.Client, i int) (int, error) {
	k, req := w.request(i)
	res, err := c.Solve(ctx, req)
	w.pending = solveResult{k, res}
	return 1, err
}

func (w *industrial) keep() {
	p := w.pending
	w.answers = append(w.answers, solveAnswer{pool: p.pool, r: w.o.decode(w.pool[p.pool].names, p.res)})
}

func (w *industrial) verify() (int, error) {
	return verifySolves(w.o, w.pool, w.answers)
}

func (w *industrial) sample() *layerInputs {
	return &layerInputs{single: w.pool[0], batch: w.pool[:1], patchSink: firstSink(w.pool[0]), patchRAT: 1500, patchCap: 12}
}

// verifySolves checks single-net answers against the pool's references,
// computing each used pool net's Lillis slack once.
func verifySolves(o *oracle, pool []*refNet, answers []solveAnswer) (int, error) {
	refs := make([]float64, len(pool))
	done := make([]bool, len(pool))
	for _, a := range answers {
		if !done[a.pool] {
			r, err := o.reference(pool[a.pool].net.Tree, driver)
			if err != nil {
				return 0, fmt.Errorf("reference solve of pool net %d: %w", a.pool, err)
			}
			refs[a.pool], done[a.pool] = r, true
		}
	}
	return inParallel(len(answers), func(lo, hi int) (int, error) {
		ok := 0
		var first error
		for i := lo; i < hi; i++ {
			a := answers[i]
			if err := o.check(pool[a.pool].net.Tree, driver, refs[a.pool], a.r); err != nil {
				if first == nil {
					first = fmt.Errorf("answer %d: %w", i, err)
				}
				continue
			}
			ok++
		}
		return ok, first
	})
}

// inParallel splits [0, n) into one contiguous share per processor, runs
// check on each share concurrently, and sums the passes. The error
// returned is the one from the lowest share that failed.
func inParallel(n int, check func(lo, hi int) (ok int, first error)) (int, error) {
	workers := min(runtime.GOMAXPROCS(0), max(n, 1))
	oks := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			oks[k], errs[k] = check(n*k/workers, n*(k+1)/workers)
		}()
	}
	wg.Wait()
	total := 0
	for _, ok := range oks {
		total += ok
	}
	for _, err := range errs {
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func firstSink(r *refNet) string {
	return r.net.Tree.Verts[r.net.Tree.Sinks()[0]].Name
}

// --- smallnets ------------------------------------------------------------

const (
	// smallBatch is the number of nets per POST /v1/batch.
	smallBatch = 256
	// smallPool is the number of distinct small trees the new nets of a
	// batch cycle through (each use gets a unique net name).
	smallPool = 1024
	// smallRepeatEvery makes every fourth net of a batch a repeat of a net
	// sent by one of the previous smallRepeatDepth batches — recent enough
	// that the server's default 4096-entry result cache still holds it.
	smallRepeatEvery = 4
	smallRepeatDepth = 8
	// smallWarmup is the number of warm-up batches (which also fill the
	// cache the first timed batches repeat from).
	smallWarmup = smallRepeatDepth
)

// smallnets sends POST /v1/batch requests of 256 random 4–16-sink nets.
// One net in four repeats a net of an earlier batch, so the result cache
// serves hits beside its writes.
type smallnets struct {
	seed    int64
	o       *oracle
	pool    []*refNet
	answers []solveAnswer
	// lineErr is the first malformed or failed batch line.
	lineErr error
	pending struct {
		batch int
		pools []int
		lines []*client.BatchLine
	}
}

func newSmallnets(seed int64, o *oracle) (*smallnets, error) {
	w := &smallnets{seed: seed, o: o}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5a11))
	for k := range smallPool {
		// Sink counts are stratified, not drawn, so every seed's pool has
		// the same size mix and only the topologies vary.
		t := bufferkit.RandomNet(bufferkit.NetOpts{Sinks: 4 + k%13, Seed: rng.Int64()})
		r, err := newRefNet(t, driver)
		if err != nil {
			return nil, err
		}
		w.pool = append(w.pool, r)
	}
	return w, nil
}

// slot returns the pool index and net text of slot j of batch b. Batch
// numbers start at -smallWarmup (the warm-up batches).
func (w *smallnets) slot(b, j int) (int, string) {
	rng := rngFor(w.seed, b*smallBatch+j)
	if j%smallRepeatEvery == smallRepeatEvery-1 {
		back := 1 + rng.IntN(smallRepeatDepth)
		if b-back >= -smallWarmup {
			// Repeat a new (non-repeat) slot of an earlier batch.
			jj := rng.IntN(smallBatch / smallRepeatEvery * (smallRepeatEvery - 1))
			jj += jj / (smallRepeatEvery - 1)
			return w.slot(b-back, jj)
		}
	}
	return rng.IntN(len(w.pool)), fmt.Sprintf("sn%d_%d_%d", w.seed, b+smallWarmup, j)
}

func (w *smallnets) request(b int) ([]int, client.BatchRequest) {
	pools := make([]int, smallBatch)
	req := client.BatchRequest{Library: w.o.libText, Nets: make([]string, smallBatch)}
	for j := range smallBatch {
		k, name := w.slot(b, j)
		pools[j] = k
		req.Nets[j] = w.pool[k].text(name)
	}
	return pools, req
}

func (w *smallnets) send(ctx context.Context, c *client.Client, req client.BatchRequest) ([]*client.BatchLine, error) {
	st, err := c.Batch(ctx, req)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Collect(len(req.Nets))
}

func (w *smallnets) warmup(ctx context.Context, c *client.Client) error {
	for b := -smallWarmup; b < 0; b++ {
		_, req := w.request(b)
		if _, err := w.send(ctx, c, req); err != nil {
			return err
		}
	}
	return nil
}

func (w *smallnets) do(ctx context.Context, c *client.Client, i int) (int, error) {
	pools, req := w.request(i)
	lines, err := w.send(ctx, c, req)
	w.pending.batch, w.pending.pools, w.pending.lines = i, pools, lines
	return smallBatch, err
}

func (w *smallnets) keep() {
	p := &w.pending
	got := make([]*client.SolveResult, len(p.pools))
	for _, l := range p.lines {
		switch {
		case l.Index < 0 || l.Index >= len(got) || got[l.Index] != nil:
			w.noteLineErr(fmt.Errorf("batch %d: bad line index %d", p.batch, l.Index))
		case l.Error != "":
			w.noteLineErr(fmt.Errorf("batch %d net %d: %s", p.batch, l.Index, l.Error))
		default:
			got[l.Index] = l.Result
		}
	}
	for j, k := range p.pools {
		w.answers = append(w.answers, solveAnswer{pool: k, r: w.o.decode(w.pool[k].names, got[j])})
	}
}

func (w *smallnets) noteLineErr(err error) {
	if w.lineErr == nil {
		w.lineErr = err
	}
}

func (w *smallnets) verify() (int, error) {
	ok, err := verifySolves(w.o, w.pool, w.answers)
	if w.lineErr != nil {
		err = w.lineErr
	}
	return ok, err
}

func (w *smallnets) sample() *layerInputs {
	mid := w.pool[6] // a 10-sink net, the middle of the 4–16 range
	in := &layerInputs{single: mid, batch: w.pool[:smallBatch]}
	in.patchSink, in.patchRAT, in.patchCap = firstSink(mid), 1500, 12
	return in
}

// --- eco ------------------------------------------------------------------

// ecoWarmup is the number of warm-up patches (the first creates the
// session).
const ecoWarmup = 32

// eco drives one ECO session on the 729-sink ternary "bushy" net: every
// request patches one seeded sink's RAT and load and re-solves
// incrementally with PUT /v1/sessions/{id}.
type eco struct {
	seed  int64
	o     *oracle
	net   *refNet
	sinks []int
	sess  *client.Session
	// applied are the patches the live session has seen, in order; answers
	// holds the timed replies, answers[k] for applied[ecoWarmup+k].
	applied []bufferkit.SinkDelta
	answers []reply
	pending *client.SessionResult // nil after a failed patch
}

func newEco(seed int64, o *oracle) (*eco, error) {
	r, err := newRefNet(bushyNet(), driver)
	if err != nil {
		return nil, err
	}
	return &eco{seed: seed, o: o, net: r, sinks: r.net.Tree.Sinks()}, nil
}

// bushyNet is the ternary depth-6 balanced tree (729 sinks) of the
// repository's ECO benchmarks.
func bushyNet() *bufferkit.Tree {
	return bufferkit.BalancedNet(3, 6, 400, 8, 1200, bufferkit.PaperWire())
}

func (w *eco) patch(i int) (bufferkit.SinkDelta, client.SessionPatch) {
	rng := rngFor(w.seed, i)
	d := bufferkit.SinkDelta{
		Vertex: w.sinks[rng.IntN(len(w.sinks))],
		RAT:    1000 + 400*rng.Float64(),
		Cap:    4 + 12*rng.Float64(),
	}
	return d, client.SinkPatch(w.net.net.Tree.Verts[d.Vertex].Name, d.RAT, d.Cap)
}

func (w *eco) warmup(ctx context.Context, c *client.Client) error {
	w.sess = c.Session(fmt.Sprintf("eco%d", w.seed), w.net.text(fmt.Sprintf("bushy%d", w.seed)), w.o.libText, client.SolveOptions{})
	w.applied = w.applied[:0]
	for i := -ecoWarmup; i < 0; i++ {
		d, p := w.patch(i)
		if _, err := w.sess.Patch(ctx, p); err != nil {
			return err
		}
		w.applied = append(w.applied, d)
	}
	return nil
}

func (w *eco) do(ctx context.Context, _ *client.Client, i int) (int, error) {
	d, p := w.patch(i)
	res, err := w.sess.Patch(ctx, p)
	w.pending = res
	if err == nil {
		// The server applied the patch only when it answered.
		w.applied = append(w.applied, d)
	}
	return 1, err
}

func (w *eco) keep() {
	if w.pending != nil {
		w.answers = append(w.answers, w.o.decode(w.net.names, &w.pending.SolveResult))
	}
}

// verify replays the patch sequence on private copies of the net and
// checks each timed answer against the Lillis slack of the patched net.
// Each worker replays the patches before its share of the answers, then
// verifies its share.
func (w *eco) verify() (int, error) {
	if len(w.answers) == 0 {
		return 0, errors.New("no answers")
	}
	return inParallel(len(w.answers), func(lo, hi int) (int, error) {
		t := w.net.net.Tree.Clone()
		ok := 0
		var first error
		for k, d := range w.applied[:ecoWarmup+hi] {
			t.Verts[d.Vertex].RAT, t.Verts[d.Vertex].Cap = d.RAT, d.Cap
			if k < ecoWarmup+lo {
				continue
			}
			ref, err := w.o.reference(t, driver)
			if err != nil {
				return ok, err
			}
			if err := w.o.check(t, driver, ref, w.answers[k-ecoWarmup]); err != nil {
				if first == nil {
					first = fmt.Errorf("patch %d: %w", k-ecoWarmup, err)
				}
				continue
			}
			ok++
		}
		return ok, first
	})
}

func (w *eco) sample() *layerInputs {
	d, _ := w.patch(0)
	return &layerInputs{single: w.net, batch: []*refNet{w.net},
		patchSink: w.net.net.Tree.Verts[d.Vertex].Name, patchRAT: d.RAT, patchCap: d.Cap}
}
