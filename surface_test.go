package bufferkit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExportedSurface pins the exported identifiers of the bufferkit and
// client packages and of internal/api, whose types client re-exports as
// aliases (an alias lists as a type only, so its fields are pinned where
// the type is declared): top-level constants, variables, types and functions,
// methods on exported types, the exported fields of exported struct types
// (fields are the knobs a caller can set) and the methods of exported
// interfaces, which list as fields too. Adding or removing one
// fails this test, so every change to the public API shows up as a
// reviewed edit of the lists below.
func TestExportedSurface(t *testing.T) {
	for _, pkg := range []struct {
		dir  string
		want []string
	}{
		{".", bufferkitSurface},
		{"client", clientSurface},
		{"internal/api", apiSurface},
	} {
		got := exportedSurface(t, pkg.dir)
		for _, id := range got {
			if !slices.Contains(pkg.want, id) {
				t.Errorf("%s: exported %q is not in the pinned surface", pkg.dir, id)
			}
		}
		for _, id := range pkg.want {
			if !slices.Contains(got, id) {
				t.Errorf("%s: pinned %q is no longer exported", pkg.dir, id)
			}
		}
	}
}

// exportedSurface lists the exported identifiers declared in the non-test
// Go files of dir, sorted.
func exportedSurface(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			out = append(out, declSurface(decl)...)
		}
	}
	slices.Sort(out)
	return out
}

// declSurface lists the exported identifiers one declaration introduces.
func declSurface(decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if d.Recv == nil {
			return []string{"func " + d.Name.Name}
		}
		recv := d.Recv.List[0].Type
		ptr := ""
		if star, ok := recv.(*ast.StarExpr); ok {
			ptr, recv = "*", star.X
		}
		if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
			out = append(out, "method ("+ptr+id.Name+")."+d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, d.Tok.String()+" "+n.Name)
					}
				}
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				out = append(out, "type "+s.Name.Name)
				var fields *ast.FieldList
				switch typ := s.Type.(type) {
				case *ast.StructType:
					fields = typ.Fields
				case *ast.InterfaceType:
					fields = typ.Methods
				}
				if fields == nil || s.Assign.IsValid() {
					continue
				}
				for _, field := range fields.List {
					names := field.Names
					if len(names) == 0 { // embedded: the field is named by its type
						typ := field.Type
						if star, ok := typ.(*ast.StarExpr); ok {
							typ = star.X
						}
						if sel, ok := typ.(*ast.SelectorExpr); ok {
							typ = sel.Sel
						}
						if id, ok := typ.(*ast.Ident); ok {
							names = []*ast.Ident{id}
						}
					}
					for _, n := range names {
						if n.IsExported() {
							out = append(out, "field "+s.Name.Name+"."+n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// bufferkitSurface is the pinned exported surface of package bufferkit.
var bufferkitSurface = []string{
	"const AlgoCostSlack",
	"const AlgoLillis",
	"const AlgoNew",
	"const AlgoVanGinneken",
	"const Negative",
	"const NoBuffer",
	"const NoSite",
	"const Positive",
	"field Algorithm.Name",
	"field Algorithm.Solve",
	"field AlgorithmInfo.Description",
	"field AlgorithmInfo.Name",
	"field BatchError.Errs",
	"field NetResult.Candidates",
	"field NetResult.Frontier",
	"field NetResult.Index",
	"field NetResult.Placement",
	"field NetResult.Slack",
	"field NetResult.Stats",
	"field RunConfig.CollectStats",
	"field RunConfig.Driver",
	"field RunConfig.Library",
	"field RunConfig.MaxCost",
	"func AlgorithmInfos",
	"func Algorithms",
	"func BalancedNet",
	"func Evaluate",
	"func GenerateChip",
	"func GenerateLibrary",
	"func GenerateLibraryWithInverters",
	"func IndustrialNet",
	"func NewEngine",
	"func NewPlacement",
	"func NewSolver",
	"func NewTreeBuilder",
	"func PaperWire",
	"func ParseChipInstance",
	"func ParseLibrary",
	"func ParseNet",
	"func ProcessCorners",
	"func RandomNet",
	"func ReduceLibrary",
	"func Register",
	"func SegmentToPositions",
	"func SegmentUniform",
	"func TwoPinNet",
	"func WithAlgorithm",
	"func WithChipCapacity",
	"func WithChipHistoryStep",
	"func WithChipProgress",
	"func WithChipRounds",
	"func WithChipStep",
	"func WithChipStepDecay",
	"func WithCorners",
	"func WithDriver",
	"func WithDrivers",
	"func WithLibrary",
	"func WithLibraryReduction",
	"func WithMaxCost",
	"func WithRobustPlacement",
	"func WithSamples",
	"func WithSigma",
	"func WithStats",
	"func WithVariationSeed",
	"func WithWorkers",
	"func WithYieldTarget",
	"func WriteChipInstance",
	"func WriteLibrary",
	"func WriteNet",
	"method (*BatchError).Error",
	"method (*Session).Close",
	"method (*Session).Err",
	"method (*Session).Patch",
	"method (*Session).Resolve",
	"method (*Session).Stats",
	"method (*Session).Tree",
	"method (*Solver).Algorithm",
	"method (*Solver).Close",
	"method (*Solver).NewSession",
	"method (*Solver).Run",
	"method (*Solver).RunBatch",
	"method (*Solver).SolveChip",
	"method (*Solver).SolveYield",
	"method (*Solver).Stream",
	"method (*Solver).StreamOrdered",
	"type Algorithm",
	"type AlgorithmInfo",
	"type BatchError",
	"type Buffer",
	"type BufferDelta",
	"type ChipBlockage",
	"type ChipGenOpts",
	"type ChipGrid",
	"type ChipInstance",
	"type ChipNet",
	"type ChipResult",
	"type ChipRound",
	"type Corner",
	"type CostSlackPoint",
	"type Delta",
	"type Driver",
	"type EdgeDelta",
	"type Engine",
	"type Library",
	"type Net",
	"type NetOpts",
	"type NetResult",
	"type Option",
	"type Options",
	"type PartialChipError",
	"type PartialSweepError",
	"type PenaltyDelta",
	"type Placement",
	"type PlacementGroup",
	"type Polarity",
	"type Result",
	"type RunConfig",
	"type Session",
	"type SessionStats",
	"type SinkDelta",
	"type SlackDistribution",
	"type Solver",
	"type Stats",
	"type TimingResult",
	"type Tree",
	"type TreeBuilder",
	"type ValidationError",
	"type Vertex",
	"type Wire",
	"type YieldResult",
	"type YieldSample",
	"var ErrCanceled",
	"var ErrInfeasible",
}

// clientSurface is the pinned exported surface of package client.
var clientSurface = []string{
	"field APIError.Field",
	"field APIError.Message",
	"field APIError.Peer",
	"field APIError.RetryAfter",
	"field APIError.Status",
	"field APIError.Trace",
	"field RetryPolicy.BaseDelay",
	"field RetryPolicy.MaxAttempts",
	"field RetryPolicy.MaxDelay",
	"field Stats.HedgeLosses",
	"field Stats.HedgeWins",
	"field Stats.HedgesLaunched",
	"field Stats.PeerFailovers",
	"func BufferPatch",
	"func EdgePatch",
	"func New",
	"func SinkPatch",
	"func WithHTTPClient",
	"func WithHedging",
	"func WithPeers",
	"func WithRetry",
	"func WithRetryBudget",
	"method (*APIError).Error",
	"method (*APIError).Temporary",
	"method (*BatchStream).Close",
	"method (*BatchStream).Collect",
	"method (*BatchStream).Next",
	"method (*ChipStream).Close",
	"method (*ChipStream).Collect",
	"method (*ChipStream).Next",
	"method (*Client).Batch",
	"method (*Client).BootstrapPeers",
	"method (*Client).Chip",
	"method (*Client).Fleet",
	"method (*Client).Metrics",
	"method (*Client).Ready",
	"method (*Client).Session",
	"method (*Client).SessionDelete",
	"method (*Client).SessionPut",
	"method (*Client).Solve",
	"method (*Client).Stats",
	"method (*Client).Yield",
	"method (*Session).Close",
	"method (*Session).Patch",
	"method (*Session).Resolve",
	"type APIError",
	"type BatchLine",
	"type BatchRequest",
	"type BatchStream",
	"type ChipLine",
	"type ChipRequest",
	"type ChipRound",
	"type ChipStream",
	"type ChipSummary",
	"type Client",
	"type FleetInfo",
	"type FrontierPoint",
	"type Option",
	"type PeerStatus",
	"type Placement",
	"type RetryPolicy",
	"type Session",
	"type SessionInfo",
	"type SessionPatch",
	"type SessionRequest",
	"type SessionResult",
	"type SolveOptions",
	"type SolveRequest",
	"type SolveResult",
	"type Stats",
	"type YieldRequest",
	"type YieldPlacement",
	"type YieldResult",
	"var ErrBudgetExhausted",
	"var ErrLineTooLong",
	"var ErrTruncated",
}

// apiSurface is the pinned exported surface of package internal/api, the
// wire schema client re-exports: its types' fields are the JSON bodies.
var apiSurface = []string{
	"field BatchLine.Error",
	"field BatchLine.Index",
	"field BatchLine.Result",
	"field BatchRequest.Library",
	"field BatchRequest.Nets",
	"field BatchRequest.Ordered",
	"field BatchRequest.SolveOptions",
	"field ChipLine.CompletedRounds",
	"field ChipLine.Done",
	"field ChipLine.Error",
	"field ChipLine.Round",
	"field ChipLine.SolvedNets",
	"field ChipRequest.Capacity",
	"field ChipRequest.HistoryStep",
	"field ChipRequest.Instance",
	"field ChipRequest.Library",
	"field ChipRequest.Rounds",
	"field ChipRequest.SolveOptions",
	"field ChipRequest.Step",
	"field ChipRequest.StepDecay",
	"field ChipSummary.Algorithm",
	"field ChipSummary.Buffers",
	"field ChipSummary.ElapsedMs",
	"field ChipSummary.Feasible",
	"field ChipSummary.Nets",
	"field ChipSummary.Placements",
	"field ChipSummary.Rounds",
	"field ChipSummary.Slacks",
	"field ChipSummary.TotalSlack",
	"field ChipSummary.WorstNet",
	"field ChipSummary.WorstSlack",
	"field ErrorBody.Error",
	"field ErrorBody.Field",
	"field ErrorBody.Peer",
	"field ErrorBody.Trace",
	"field ErrorBody.Type",
	"field ErrorBody.Vertex",
	"field FleetInfo.Enabled",
	"field FleetInfo.Peers",
	"field FleetInfo.Replicas",
	"field FleetInfo.Self",
	"field FrontierPoint.Buffers",
	"field FrontierPoint.Cost",
	"field FrontierPoint.Slack",
	"field SessionInfo.Created",
	"field SessionInfo.FullRebuilds",
	"field SessionInfo.ID",
	"field SessionInfo.Recomputed",
	"field SessionInfo.Resolves",
	"field SessionPatch.Allowed",
	"field SessionPatch.Cap",
	"field SessionPatch.Kind",
	"field SessionPatch.OK",
	"field SessionPatch.RAT",
	"field SessionPatch.Res",
	"field SessionPatch.Vertex",
	"field SessionRequest.Library",
	"field SessionRequest.Net",
	"field SessionRequest.Patches",
	"field SessionRequest.SolveOptions",
	"field SessionResult.Session",
	"field SessionResult.SolveResult",
	"field SolveOptions.Algorithm",
	"field SolveOptions.MaxCost",
	"field SolveOptions.NoStats",
	"field SolveOptions.TimeoutMs",
	"field SolveRequest.Library",
	"field SolveRequest.Net",
	"field SolveRequest.SolveOptions",
	"field SolveResult.Algorithm",
	"field SolveResult.Buffers",
	"field SolveResult.Cached",
	"field SolveResult.Candidates",
	"field SolveResult.Coalesced",
	"field SolveResult.Cost",
	"field SolveResult.ElapsedMs",
	"field SolveResult.Frontier",
	"field SolveResult.Net",
	"field SolveResult.Placement",
	"field SolveResult.Slack",
	"field SolveResult.Stats",
	"field SolveResult.Trace",
	"field YieldPlacement.Buffers",
	"field YieldPlacement.Cost",
	"field YieldPlacement.Count",
	"field YieldPlacement.MeanSlack",
	"field YieldPlacement.WorstSlack",
	"field YieldPlacement.Yield",
	"field YieldRequest.Library",
	"field YieldRequest.Net",
	"field YieldRequest.ProcessCorners",
	"field YieldRequest.Robust",
	"field YieldRequest.Samples",
	"field YieldRequest.Seed",
	"field YieldRequest.Sigma",
	"field YieldRequest.SolveOptions",
	"field YieldRequest.Target",
	"field YieldResult.Algorithm",
	"field YieldResult.Buffers",
	"field YieldResult.Cached",
	"field YieldResult.Chosen",
	"field YieldResult.Cost",
	"field YieldResult.ElapsedMs",
	"field YieldResult.Net",
	"field YieldResult.OptimalYield",
	"field YieldResult.Placement",
	"field YieldResult.Placements",
	"field YieldResult.Robust",
	"field YieldResult.Samples",
	"field YieldResult.Slack",
	"field YieldResult.Target",
	"field YieldResult.WorstCorner",
	"field YieldResult.WorstSlack",
	"field YieldResult.Yield",
	"method (Placement).MarshalJSON",
	"type BatchLine",
	"type BatchRequest",
	"type ChipLine",
	"type ChipRequest",
	"type ChipRound",
	"type ChipSummary",
	"type ErrorBody",
	"type FleetInfo",
	"type FrontierPoint",
	"type PeerStatus",
	"type Placement",
	"type SessionInfo",
	"type SessionPatch",
	"type SessionRequest",
	"type SessionResult",
	"type SolveOptions",
	"type SolveRequest",
	"type SolveResult",
	"type YieldPlacement",
	"type YieldRequest",
	"type YieldResult",
}
