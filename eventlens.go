// Package eventlens automatically derives high-level performance metrics
// (FLOPs, branch behaviour, cache traffic) from raw hardware performance
// events, implementing the methodology of Barry, Danalis and Dongarra,
// "Automated Data Analysis for Defining Performance Metrics from Raw
// Hardware Events" (IPDPSW 2024).
//
// The analysis takes raw-event measurement vectors collected while running
// microkernels with known behaviour (the CAT benchmarks), and in four stages
// turns them into metric definitions:
//
//  1. Noise filtering — events whose run-to-run variability (maximum
//     pairwise RNMSE) exceeds a threshold tau are dropped.
//  2. Projection — surviving measurement vectors are expressed in an
//     expectation basis of ideal events by least squares; events the basis
//     cannot represent are dropped.
//  3. Specialized QRCP — a column-pivoted QR factorization whose pivot rule
//     prefers basis-like columns selects a linearly independent subset of
//     events that carry distinct information.
//  4. Metric definition — each metric signature is solved against the
//     selected events by least squares; the backward error says whether the
//     metric is composable on the architecture at all.
//
// The package is a facade over the implementation in internal/: it
// re-exports the analysis types (Pipeline, Basis, Signature, ...), the CAT
// benchmarks, and the simulated platforms (an Intel Sapphire Rapids-like
// CPU and an AMD MI250X-like GPU among them) that substitute for the
// paper's Aurora and Frontier machines, plus synthetic catalogs of any size
// for scale testing. Analyze runs a benchmark's analysis exactly as the
// eventlensd daemon serves it: the request is resolved against a platform
// registry, collected, reduced to its noise profile and analyzed. A
// collection of any catalog size runs through that one measurement stage.
//
// # Quick start
//
//	reg, _ := eventlens.NewRegistry()
//	a, err := eventlens.Analyze(context.Background(), reg, eventlens.AnalysisRequest{Benchmark: "cpu-flops"}, 0)
//	if err != nil { ... }
//	fmt.Println(a.Defs[4]) // DP Ops.
//
// See examples/ for complete programs.
package eventlens

import (
	"github.com/perfmetrics/eventlens/internal/analysis"
	"github.com/perfmetrics/eventlens/internal/cat"
	"github.com/perfmetrics/eventlens/internal/core"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/mat"
	"github.com/perfmetrics/eventlens/internal/platdef"
	"github.com/perfmetrics/eventlens/internal/suite"
)

// Core analysis types.
type (
	// Basis is an expectation basis: ideal-event vectors over benchmark
	// points (Section III-B of the paper).
	Basis = core.Basis
	// Signature is a metric's representation in basis coordinates.
	Signature = core.Signature
	// Measurement is one raw-event measurement vector (per rep and thread).
	Measurement = core.Measurement
	// MeasurementSet holds all measurements from one benchmark run.
	MeasurementSet = core.MeasurementSet
	// NoiseReport is the outcome of the RNMSE noise filter (Section IV).
	NoiseReport = core.NoiseReport
	// EventVariability is one event's max-RNMSE noise measure.
	EventVariability = core.EventVariability
	// ProjectionReport is the outcome of basis projection: the
	// representable events in order, the dropped ones, and X, whose
	// columns are the representations. It keeps no per-event Projections
	// map; a Projector projects an event again for its residual.
	ProjectionReport = core.ProjectionReport
	// Projector projects measurement vectors against a basis factorized once.
	Projector = core.Projector
	// SpecializedQRCPResult is the outcome of Algorithm 2 (Section V).
	SpecializedQRCPResult = core.SpecializedQRCPResult
	// MetricDefinition is a metric composed from raw events (Section VI).
	MetricDefinition = core.MetricDefinition
	// Term is one scaled raw event inside a metric definition.
	Term = core.Term
	// Config holds the analysis thresholds (tau, alpha, tolerances).
	Config = core.Config
	// Pipeline runs the full analysis for one benchmark.
	Pipeline = core.Pipeline
	// Result is the pipeline outcome prior to metric definition.
	Result = core.Result
	// Matrix is the dense matrix type used throughout.
	Matrix = mat.Dense
)

// Platform and benchmark types.
type (
	// Platform is a simulated machine: a validated definition with its
	// raw-event catalog, and the collection plan every collection on it
	// reads, built once, on first use. A Registry keeps one per definition.
	Platform = machine.Platform
	// EventDef defines one raw hardware event.
	EventDef = machine.EventDef
	// EventTerm is one coefficient of a raw event's response or documented
	// semantics over ground-truth stat keys.
	EventTerm = platdef.Term
	// PlatformDef is a platform definition: name, class, counters, counter
	// constraints and the raw-event catalog, as a .pdef file holds them.
	PlatformDef = platdef.Platform
	// Stats is ground-truth workload statistics per benchmark point.
	Stats = machine.Stats
	// RunConfig controls benchmark collection (reps, threads).
	RunConfig = cat.RunConfig
	// Benchmark bundles a CAT benchmark with its platform and thresholds.
	Benchmark = suite.Benchmark
)

// ComposableThreshold is the backward-error bound under which a metric
// counts as composable on an architecture (Eq. 5).
const ComposableThreshold = core.ComposableThreshold

// Analysis constructors and functions.
var (
	// NewBasis validates and constructs an expectation basis.
	NewBasis = core.NewBasis
	// NewMeasurementSet constructs an empty measurement set.
	NewMeasurementSet = core.NewMeasurementSet
	// MaxRNMSE computes Eq. 4 over repetition vectors.
	MaxRNMSE = core.MaxRNMSE
	// FilterNoise runs the Section IV noise analysis.
	FilterNoise = core.FilterNoise
	// NewProjector factorizes a basis once for repeated projections.
	NewProjector = core.NewProjector
	// SpecializedQRCP is the paper's Algorithm 2.
	SpecializedQRCP = core.SpecializedQRCP
	// RoundToGrid is the paper's noise-tolerant rounding R(u).
	RoundToGrid = core.RoundToGrid
	// Score is the paper's per-element pivot score Sc(v).
	Score = core.Score
	// ColumnScore scores one column for pivot selection.
	ColumnScore = core.ColumnScore
	// DefineMetric solves Xhat*y = s for one signature.
	DefineMetric = core.DefineMetric
	// DefaultConfig returns tau=1e-10, alpha=5e-4 (FLOPs/branch benchmarks).
	DefaultConfig = core.DefaultConfig
	// CacheConfig returns tau=1e-1, alpha=5e-2 (data-cache benchmark).
	CacheConfig = core.CacheConfig
)

// Extensions beyond the paper (its stated future work): alternative noise
// measures, automatic threshold selection and alpha-sensitivity analysis.
type (
	// NoiseMeasure quantifies run-to-run variability (0 = identical reps).
	NoiseMeasure = core.NoiseMeasure
	// TauSuggestion is an automatically selected noise threshold.
	TauSuggestion = core.TauSuggestion
	// SensitivityResult summarizes an alpha-sweep stability analysis.
	SensitivityResult = core.SensitivityResult
)

var (
	// FilterNoiseWith is FilterNoise with a pluggable noise measure.
	FilterNoiseWith = core.FilterNoiseWith
	// MaxPairwiseMAD is a median-based, glitch-robust noise measure.
	MaxPairwiseMAD = core.MaxPairwiseMAD
	// MaxCV is the classical coefficient-of-variation noise measure.
	MaxCV = core.MaxCV
	// SuggestTau picks a noise threshold from the variability spectrum.
	SuggestTau = core.SuggestTau
	// AlphaSensitivity sweeps the QRCP tolerance and reports stability.
	AlphaSensitivity = core.AlphaSensitivity
	// DecadeSweep returns log-spaced values for threshold sweeps.
	DecadeSweep = core.DecadeSweep
)

// Signature tables (the paper's Tables I-IV) and basis symbol orders.
var (
	CPUFlopsSignatures   = core.CPUFlopsSignatures
	GPUFlopsSignatures   = core.GPUFlopsSignatures
	BranchSignatures     = core.BranchSignatures
	CacheSignatures      = core.CacheSignatures
	CPUFlopsBasisSymbols = core.CPUFlopsBasisSymbols
	GPUFlopsBasisSymbols = core.GPUFlopsBasisSymbols
	BranchBasisSymbols   = core.BranchBasisSymbols
	CacheBasisSymbols    = core.CacheBasisSymbols
)

// Matrix constructors for user-defined bases.
var (
	// NewMatrix returns a zeroed dense matrix.
	NewMatrix = mat.NewDense
	// MatrixFromColumns assembles a matrix from column vectors.
	MatrixFromColumns = mat.FromColumns
)

// Simulated platforms.
var (
	// BuiltinPlatform builds a committed platform by registry name, such as
	// a Benchmark's Platform: "spr-sim" (the Intel-SPR-like Aurora
	// stand-in), "mi250x-sim" (the AMD-MI250X-like Frontier stand-in),
	// "zen4-sim" (an AMD-Zen4-like CPU whose FP events merge precisions).
	// Each call builds a new platform, which schedules its plan on its
	// first collection; Analyze collects on its registry's one platform per
	// definition instead.
	BuiltinPlatform = machine.BuiltinPlatform
	// FromDef validates a platform definition and builds the live platform
	// over it: the way to simulate a custom architecture.
	FromDef = machine.FromDef
	// SyntheticCatalog generates an arbitrarily large test catalog
	// embedding the SPR signal events (scalability testing).
	SyntheticCatalog = machine.SyntheticCatalog
)

// Requests: one analysis of a benchmark, resolved against a registry of
// platforms.
type (
	// AnalysisRequest selects a benchmark and optionally the platform to
	// collect it on and overrides of its run and thresholds; it is the body
	// of the daemon's /v1/analyze.
	AnalysisRequest = analysis.Request
	// Analysis is one analyzed request: its noise profile, the pipeline
	// result and the benchmark's metric definitions.
	Analysis = analysis.Analysis
	// Registry is a set of named platform definitions requests resolve
	// against, holding one live Platform per definition.
	Registry = machine.Registry
)

var (
	// NewRegistry loads the built-in platform definitions, then the *.pdef
	// files of each given directory.
	NewRegistry = machine.NewRegistry
	// Analyze resolves a request against a registry, collects it and runs
	// the analysis, defining the benchmark's metrics (workers bounds the
	// collection and analysis pools; 0 means GOMAXPROCS).
	Analyze = analysis.Run
)

// Benchmark registry.
var (
	// Benchmarks returns the four CAT benchmarks in paper order.
	Benchmarks = suite.All
	// BenchmarkByName looks a benchmark up by key: "cpu-flops",
	// "gpu-flops", "branch" or "dcache".
	BenchmarkByName = suite.ByName
	// DefaultRunConfig matches the paper's collection setup (5 reps).
	DefaultRunConfig = cat.DefaultRunConfig
	// PlanMeasurement computes the counter-scheduling plan for a set of
	// composed metrics on a platform.
	PlanMeasurement = suite.PlanMeasurement
)

// MeasurementPlan describes how to program counters for a set of metrics.
type MeasurementPlan = suite.MeasurementPlan

// Report formatting.
var (
	FormatSignatureTable = core.FormatSignatureTable
	FormatMetricTable    = core.FormatMetricTable
	FormatSelection      = core.FormatSelection
	FormatNoiseSummary   = core.FormatNoiseSummary
)

// PAPI-style preset generation — the downstream artifact the paper's
// introduction motivates.
type (
	// Preset is one auto-generated PAPI-style derived-event definition.
	Preset = core.Preset
)

var (
	// PresetName derives a PAPI symbol from a metric name.
	PresetName = core.PresetName
	// FormatPresets renders composable metrics as preset definition lines.
	FormatPresets = core.FormatPresets
	// EvalPostfix evaluates a preset formula against raw counts.
	EvalPostfix = core.EvalPostfix
)

// Event explanation and ratio metrics.
type (
	// Explanation decodes what a raw event measures in basis vocabulary.
	Explanation = core.Explanation
	// RatioMetric is a quotient of two composed metrics (miss ratios,
	// misprediction rates).
	RatioMetric = core.RatioMetric
)

var (
	// ExplainEvent projects one event and renders its ideal-event makeup.
	ExplainEvent = core.ExplainEvent
	// ExplainKept explains every event surviving a noise report.
	ExplainKept = core.ExplainKept
	// NewRatioMetric builds a ratio of two composed metrics.
	NewRatioMetric = core.NewRatioMetric
)
