package bufferkit

import (
	"context"
	"sort"
	"sync"

	"bufferkit/internal/core"
	"bufferkit/internal/costopt"
	"bufferkit/internal/libreduce"
	"bufferkit/internal/solvererr"
	"bufferkit/internal/vanginneken"
)

// Built-in algorithm registry keys. WithAlgorithm accepts these (or any
// name added through Register).
const (
	// AlgoNew is the paper's O(bn²) algorithm (Li & Shi, DATE 2005) — the
	// default.
	AlgoNew = "new"
	// AlgoLillis is the Lillis–Cheng–Lin O(b²n²) baseline (no inverters).
	AlgoLillis = "lillis"
	// AlgoVanGinneken is the classic single-type O(n²) algorithm; it
	// requires a one-type library.
	AlgoVanGinneken = "vanginneken"
	// AlgoCostSlack is the cost–slack Pareto extension; NetResult.Frontier
	// carries the full frontier, Slack/Placement its best point.
	AlgoCostSlack = "costslack"
)

// RunConfig is the resolved per-run configuration a Solver hands to an
// Algorithm: the solver-wide settings with any per-net overrides (batch
// drivers) already applied. Algorithm implementations read it; they must
// not retain it across calls.
type RunConfig struct {
	// Library is the buffer library, already validated by NewSolver.
	Library Library
	// Driver is the source driver for this net.
	Driver Driver
	// CollectStats asks the algorithm to fill NetResult.Stats.
	CollectStats bool
	// MaxCost caps the total buffer cost (AlgoCostSlack only; 0 = no cap).
	MaxCost int
}

// NetResult is the outcome of solving one net.
type NetResult struct {
	// Index is the net's position in the batch input slice; 0 for
	// single-net runs.
	Index int
	// Slack is the optimal slack at the driver input, in ps.
	Slack float64
	// Placement maps vertex index to a library type index or NoBuffer.
	Placement Placement
	// Candidates is the final candidate count at the root (0 for
	// algorithms that do not report it).
	Candidates int
	// Stats carries algorithm instrumentation when RunConfig.CollectStats
	// is set. Which fields are populated depends on the algorithm: AlgoNew
	// fills everything; AlgoLillis fills everything but the hull fields
	// (SumHullLen, HullPruned), with BetasGenerated counting one beta per
	// allowed type and position; AlgoVanGinneken fills MaxListLen only.
	Stats Stats
	// Frontier is the cost–slack Pareto frontier (AlgoCostSlack only).
	Frontier []CostSlackPoint
}

// Algorithm is the single interface every registered solver implements.
// Implementations may keep warm state (engines, arenas) across Solve calls;
// they need not be safe for concurrent use — the Solver serializes Run and
// gives every batch worker its own instance.
type Algorithm interface {
	// Name returns the registry key the algorithm was registered under.
	Name() string
	// Solve runs the algorithm on one net under ctx. On cancellation it
	// returns an error wrapping ErrCanceled; on an instance with no
	// polarity-feasible solution, one wrapping ErrInfeasible; on a
	// malformed instance, a *ValidationError.
	Solve(ctx context.Context, t *Tree, cfg RunConfig) (*NetResult, error)
}

// releaser is implemented by adapters that borrow pooled resources; the
// Solver and batch workers call release when done with an instance.
type releaser interface{ release() }

// configValidator lets an algorithm reject a solver-wide configuration at
// construction time (NewSolver) instead of once per net — e.g. van
// Ginneken's single-type-library requirement.
type configValidator interface {
	validateConfig(cfg RunConfig) error
}

// registry maps algorithm names to factories. Factories return fresh
// instances so batch workers never share engine state.
var (
	registryMu sync.RWMutex
	registry   = map[string]func() Algorithm{}
)

// Register adds an algorithm factory under name, making it available to
// WithAlgorithm and listing it in Algorithms. The factory must return a
// fresh, independent instance on every call (batch workers each get one).
// Register panics on an empty name, a nil factory, or a duplicate name.
func Register(name string, factory func() Algorithm) {
	if name == "" {
		panic("bufferkit: Register: empty algorithm name")
	}
	if factory == nil {
		panic("bufferkit: Register: nil factory for " + name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("bufferkit: Register: duplicate algorithm " + name)
	}
	registry[name] = factory
}

// AlgorithmInfo describes one registered algorithm for introspection
// surfaces (bufferkitd's GET /v1/algorithms, bufopt -help).
type AlgorithmInfo struct {
	// Name is the registry key, accepted by WithAlgorithm.
	Name string `json:"name"`
	// Description is a one-line human summary, or "" if the algorithm does
	// not describe itself.
	Description string `json:"description,omitempty"`
}

// describer is the optional interface an Algorithm implements to describe
// itself in AlgorithmInfos.
type describer interface{ Description() string }

// AlgorithmInfos returns every registered algorithm with its one-line
// description, sorted by name. It instantiates each factory once; instances
// implementing releaser are released again immediately.
func AlgorithmInfos() []AlgorithmInfo {
	names := Algorithms()
	infos := make([]AlgorithmInfo, len(names))
	for i, name := range names {
		infos[i] = AlgorithmInfo{Name: name}
		factory, err := lookup(name)
		if err != nil {
			continue // unregistered between Algorithms and lookup; name-only
		}
		algo := factory()
		if d, ok := algo.(describer); ok {
			infos[i].Description = d.Description()
		}
		if r, ok := algo.(releaser); ok {
			r.release()
		}
	}
	return infos
}

// Algorithms returns the sorted names of every registered algorithm.
func Algorithms() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookup resolves a registry name to its factory.
func lookup(name string) (func() Algorithm, error) {
	registryMu.RLock()
	factory, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, solvererr.Validation("bufferkit", "algorithm", "unknown algorithm %q (have %v)", name, Algorithms())
	}
	return factory, nil
}

func init() {
	Register(AlgoNew, func() Algorithm { return &coreAlgo{} })
	Register(AlgoLillis, func() Algorithm { return &coreAlgo{lillis: true} })
	Register(AlgoVanGinneken, func() Algorithm { return vgAlgo{} })
	Register(AlgoCostSlack, func() Algorithm { return costAlgo{} })
}

// Solver is the unified entry point to every insertion algorithm: construct
// one with NewSolver and functional options, then Run single nets or
// Stream/RunBatch many. A Solver is safe for concurrent use — Run is
// serialized on one warm algorithm instance, and batch runs give each
// worker its own instance.
type Solver struct {
	cfg      RunConfig
	algoName string
	factory  func() Algorithm
	drivers  []Driver
	workers  int
	yield    yieldConfig // SolveYield options (see yield.go)
	chip     chipConfig  // SolveChip options (see chip.go)
	reduceK  int         // WithLibraryReduction: <0 dominance-only, >0 cluster target
	libMap   []int       // reduced type index -> original library index; nil = identity

	mu   sync.Mutex
	algo Algorithm // lazily built warm instance for Run
}

// Option configures a Solver under construction.
type Option func(*Solver) error

// WithLibrary sets the buffer library (required). The library is validated
// by NewSolver and must not be mutated afterwards.
func WithLibrary(lib Library) Option {
	return func(s *Solver) error { s.cfg.Library = lib; return nil }
}

// WithDriver sets the source driver applied to every net (zero value =
// ideal driver).
func WithDriver(d Driver) Option {
	return func(s *Solver) error { s.cfg.Driver = d; return nil }
}

// WithDrivers sets a per-net driver override for batch runs (Stream,
// RunBatch); its length must equal the batch's net count. Single-net Run
// ignores it.
func WithDrivers(drivers []Driver) Option {
	return func(s *Solver) error { s.drivers = drivers; return nil }
}

// WithAlgorithm selects a registered algorithm by name; the default is
// AlgoNew.
func WithAlgorithm(name string) Option {
	return func(s *Solver) error {
		factory, err := lookup(name)
		if err != nil {
			return err
		}
		s.algoName, s.factory = name, factory
		return nil
	}
}

// WithStats controls whether NetResult.Stats is filled (default true);
// disabling it lets adapters skip the copy on throughput-critical batches.
func WithStats(collect bool) Option {
	return func(s *Solver) error { s.cfg.CollectStats = collect; return nil }
}

// WithMaxCost caps the total buffer cost explored by AlgoCostSlack
// (0 = unlimited). A negative cap is a *ValidationError.
func WithMaxCost(max int) Option {
	return func(s *Solver) error {
		if max < 0 {
			return solvererr.Validation("bufferkit", "max_cost", "cost cap %d must be nonnegative", max)
		}
		s.cfg.MaxCost = max
		return nil
	}
}

// WithLibraryReduction shrinks the library before solving. k < 0 applies
// dominance pruning only — dropping every type another type beats on all of
// R, K and Cin — which is bit-exact for slack-optimal insertion: slacks and
// placements are identical to the full library (asserted by the
// differential suite). k > 0 additionally clusters the survivors down to at
// most k representatives (Alpert-style k-center selection), trading
// solution quality for a smaller b; the reproduction's library-reduction
// experiment quantifies that loss. Placements are always reported in the
// original library's index space. Incompatible with AlgoCostSlack (a
// dominated-but-cheaper type is a legitimate frontier point) and with trees
// using Vertex.Allowed (the per-vertex masks index the original library).
func WithLibraryReduction(k int) Option {
	return func(s *Solver) error {
		if k == 0 {
			return solvererr.Validation("bufferkit", "reduce",
				"reduction target 0 is ambiguous: use a negative k for exact dominance-only pruning or k > 0 to cluster")
		}
		s.reduceK = k
		return nil
	}
}

// WithWorkers caps the number of concurrent workers used by Stream and
// RunBatch; 0 or negative means runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return func(s *Solver) error { s.workers = n; return nil }
}

// NewSolver builds a Solver from functional options. WithLibrary is
// required; the algorithm defaults to AlgoNew with stats collection on.
func NewSolver(opts ...Option) (*Solver, error) {
	s := &Solver{algoName: AlgoNew, cfg: RunConfig{CollectStats: true}, yield: yieldConfig{seed: 1}}
	var err error
	if s.factory, err = lookup(AlgoNew); err != nil {
		return nil, err
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.cfg.Library == nil {
		return nil, solvererr.Validation("bufferkit", "library", "a buffer library is required (use WithLibrary)")
	}
	if err := s.cfg.Library.Validate(); err != nil {
		return nil, err
	}
	if err := s.applyReduction(); err != nil {
		return nil, err
	}
	// Give the algorithm a chance to reject the configuration up front;
	// the instance doubles as the warm one Run will use.
	algo := s.factory()
	if v, ok := algo.(configValidator); ok {
		if err := v.validateConfig(s.cfg); err != nil {
			return nil, err
		}
	}
	s.algo = algo
	return s, nil
}

// applyReduction shrinks the solver's library per WithLibraryReduction and
// records the reduced-to-original index map. Runs once in NewSolver, after
// library validation and before algorithm config validation (so e.g. van
// Ginneken's single-type check sees the library it will actually solve).
func (s *Solver) applyReduction() error {
	if s.reduceK == 0 {
		return nil
	}
	if s.algoName == AlgoCostSlack {
		return solvererr.Validation("bufferkit", "reduce",
			"library reduction is incompatible with %q: dominated-but-cheaper types are legitimate frontier points", AlgoCostSlack)
	}
	reduced, idx := libreduce.DominancePrune(s.cfg.Library)
	if s.reduceK > 0 && s.reduceK < len(reduced) {
		clustered, idx2, err := libreduce.Reduce(reduced, s.reduceK)
		if err != nil {
			return err
		}
		for i, j := range idx2 {
			idx2[i] = idx[j]
		}
		reduced, idx = clustered, idx2
	}
	if len(reduced) == len(s.cfg.Library) {
		return nil // nothing pruned; skip the remap entirely
	}
	s.cfg.Library, s.libMap = reduced, idx
	return nil
}

// checkReducible rejects trees whose per-vertex Allowed masks would be
// misread against a reduced library (they index the original one).
func (s *Solver) checkReducible(t *Tree) error {
	if s.libMap == nil {
		return nil
	}
	for v := range t.Verts {
		if t.Verts[v].Allowed != nil {
			return solvererr.Validation("bufferkit", "allowed",
				"vertex %d restricts allowed types by original library index; incompatible with WithLibraryReduction", v)
		}
	}
	return nil
}

// remapPlacement rewrites type indices from the reduced library's index
// space back to the original library the caller supplied.
func (s *Solver) remapPlacement(p Placement) {
	if s.libMap == nil {
		return
	}
	for v, ti := range p {
		if ti != NoBuffer {
			p[v] = s.libMap[ti]
		}
	}
}

// Algorithm returns the name of the algorithm this solver dispatches to.
func (s *Solver) Algorithm() string { return s.algoName }

// Run solves one net under ctx on the solver's warm algorithm instance.
// Concurrent Run calls are serialized; use Stream or RunBatch for
// parallelism across nets.
func (s *Solver) Run(ctx context.Context, t *Tree) (*NetResult, error) {
	if err := s.checkReducible(t); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.algo == nil {
		s.algo = s.factory()
	}
	nr, err := s.algo.Solve(ctx, t, s.cfg)
	if err != nil {
		return nil, err
	}
	s.remapPlacement(nr.Placement)
	return nr, nil
}

// Close releases pooled resources held by the solver's warm algorithm
// instance (batch workers release theirs automatically). Optional: a
// dropped Solver is also reclaimed by the garbage collector; Close merely
// returns warm engines to the shared pool earlier. The Solver remains
// usable — the next Run builds a fresh instance.
func (s *Solver) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.algo.(releaser); ok {
		r.release()
	}
	s.algo = nil
}

// coreAlgo adapts internal/core to the Algorithm interface, holding one
// warm engine borrowed from core's pool. It runs the paper's O(bn²)
// algorithm, or with lillis set the Lillis–Cheng–Lin baseline
// (core.Options.Lillis).
type coreAlgo struct {
	eng    *core.Engine
	lillis bool
}

func (a *coreAlgo) Name() string {
	if a.lillis {
		return AlgoLillis
	}
	return AlgoNew
}

func (a *coreAlgo) Description() string {
	if a.lillis {
		return "Lillis–Cheng–Lin O(b²n²) baseline; non-inverting libraries only"
	}
	return "Li–Shi O(bn²) algorithm (DATE 2005); inverters and sink polarities supported (default)"
}

func (a *coreAlgo) Solve(ctx context.Context, t *Tree, cfg RunConfig) (*NetResult, error) {
	if a.eng == nil {
		a.eng = core.GetEngine()
	}
	opt := core.Options{Driver: cfg.Driver, Lillis: a.lillis}
	if err := a.eng.Reset(t, cfg.Library, opt); err != nil {
		return nil, err
	}
	res := &Result{}
	if err := a.eng.RunContext(ctx, res); err != nil {
		return nil, err
	}
	nr := &NetResult{Slack: res.Slack, Placement: res.Placement, Candidates: res.Candidates}
	if cfg.CollectStats {
		nr.Stats = res.Stats
	}
	return nr, nil
}

func (a *coreAlgo) release() {
	if a.eng == nil {
		return
	}
	core.PutEngine(a.eng)
	a.eng = nil
}

// vgAlgo adapts internal/vanginneken (the classic single-type O(n²)
// algorithm). It is stateless, so the zero value is ready to use.
type vgAlgo struct{}

func (vgAlgo) Name() string { return AlgoVanGinneken }

func (vgAlgo) Description() string {
	return "van Ginneken O(n²) classic; requires a single-type library"
}

// validateConfig rejects multi-type libraries at NewSolver time, so a
// misconfigured batch fails once instead of once per net. Solve re-checks
// for callers using the Algorithm directly.
func (vgAlgo) validateConfig(cfg RunConfig) error {
	if len(cfg.Library) != 1 {
		return solvererr.Validation("vanginneken", "library",
			"needs a single-type library, got %d types", len(cfg.Library))
	}
	return nil
}

func (vgAlgo) Solve(ctx context.Context, t *Tree, cfg RunConfig) (*NetResult, error) {
	if err := (vgAlgo{}).validateConfig(cfg); err != nil {
		return nil, err
	}
	res, err := vanginneken.InsertContext(ctx, t, cfg.Library[0], cfg.Driver)
	if err != nil {
		return nil, err
	}
	nr := &NetResult{Slack: res.Slack, Placement: res.Placement, Candidates: res.Candidates}
	if cfg.CollectStats {
		nr.Stats = Stats{MaxListLen: res.MaxListLen}
	}
	return nr, nil
}

// costAlgo adapts internal/costopt (the cost–slack Pareto extension). The
// frontier's best point becomes Slack/Placement, so the unified interface
// still answers "what is the best achievable slack".
type costAlgo struct{}

func (costAlgo) Name() string { return AlgoCostSlack }

func (costAlgo) Description() string {
	return "cost–slack Pareto extension; NetResult.Frontier carries the full trade-off curve"
}

func (costAlgo) Solve(ctx context.Context, t *Tree, cfg RunConfig) (*NetResult, error) {
	pts, err := costopt.ParetoContext(ctx, t, cfg.Library, costopt.Options{Driver: cfg.Driver, MaxCost: cfg.MaxCost})
	if err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, solvererr.Infeasible("costslack: empty frontier")
	}
	best := pts[len(pts)-1]
	return &NetResult{Slack: best.Slack, Placement: best.Placement, Frontier: pts}, nil
}
