// Package parhip is a Go reproduction of "Parallel Graph Partitioning for
// Complex Networks" (Meyerhenke, Sanders, Schulz, IPDPS 2015) — the system
// known as ParHIP.
//
// The package partitions an undirected graph into k blocks of nearly equal
// weight while minimizing the number (weight) of cut edges. It targets
// complex networks (social networks, web graphs) whose heavy-tailed degree
// distributions defeat classical matching-based multilevel partitioners,
// using parallel size-constrained label propagation for both coarsening and
// refinement, and a distributed evolutionary algorithm on the coarsest
// graph. Parallelism runs on simulated message-passing ranks (goroutines),
// standing in for the paper's MPI processes.
//
// Quick start (v2 session API):
//
//	b := parhip.NewBuilder(4)
//	b.AddEdge(0, 1)
//	b.AddEdge(1, 2)
//	b.AddEdge(2, 3)
//	p, err := parhip.New(b.Build(), parhip.WithK(2))
//	if err != nil { ... }
//	res, err := p.Run(ctx) // cancellable; see also p.Progress()
//
// A session is bound to a context.Context: cancelling it (or letting its
// deadline pass) unwinds every simulated rank cooperatively and Run
// returns ctx.Err(). Progress() streams per-level checkpoint events while
// the run is in flight. The v1 Partition/Options entry points remain as
// deprecated wrappers.
//
// See the examples directory for realistic scenarios.
package parhip

import (
	"context"
	"time"

	"io"

	"repro/internal/core"
	"repro/internal/evo"
	"repro/internal/graph"
	"repro/internal/matchbase"
	"repro/internal/modularity"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Graph is the CSR graph type accepted by the partitioner. Construct
// instances with NewBuilder or ReadMetis.
type Graph = graph.Graph

// Builder incrementally assembles a Graph.
type Builder = graph.Builder

// NewBuilder returns a builder for a graph with n nodes (unit weights by
// default).
func NewBuilder(n int32) *Builder { return graph.NewBuilder(n) }

// ReadMetis parses a graph in METIS format.
func ReadMetis(r io.Reader) (*Graph, error) { return graph.ReadMetis(r) }

// WriteMetis writes a graph in METIS format.
func WriteMetis(w io.Writer, g *Graph) error { return graph.WriteMetis(w, g) }

// ReadBinary parses a graph in the package's fast binary format.
func ReadBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// WriteBinary writes a graph in the package's fast binary format.
func WriteBinary(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// Mode selects the quality/time trade-off (§V-A of the paper).
type Mode int

// Modes. Fast performs two V-cycles with the evolutionary algorithm
// computing only its initial population; Eco performs five V-cycles with an
// actual evolutionary search; Minimal performs a single V-cycle.
const (
	Fast Mode = iota
	Eco
	Minimal
)

// GraphClass tells the coarsening which size-constraint factor to use.
type GraphClass int

// Graph classes: social/web graphs use f=14, mesh-like graphs f=20000
// (§V-A). The mesh factor assumes n ≫ 20000·k; on smaller meshes, where
// Lmax/20000 would not let two nodes share a cluster, coarsening uses
// f=50 instead (DESIGN.md §15).
const (
	Social GraphClass = iota
	Mesh
)

// Options configures the deprecated Partition entry point. The zero value
// requests the Fast mode on a social-type graph with 4 simulated PEs, 3%
// imbalance and seed 1.
//
// Deprecated: new code should configure a session with New and functional
// options (WithK, WithMode, ...). Options remains a thin wrapper: it can
// be applied wholesale to a session with WithOptions.
type Options struct {
	// PEs is the number of simulated processing elements (default 4).
	PEs int
	// Mode is the quality/time setting (default Fast).
	Mode Mode
	// Class is the graph type (default Social).
	Class GraphClass
	// Eps is the allowed imbalance (default 0.03).
	Eps float64
	// Seed makes runs reproducible (default 1).
	Seed uint64
	// EvoTimeBudget optionally gives the evolutionary algorithm a
	// wall-clock budget, divided by the number of PEs as in the paper's
	// eco setting.
	EvoTimeBudget time.Duration
	// Objective selects the fitness minimized by the evolutionary search
	// on the coarsest graph (default: edge cut).
	Objective Objective
	// Prepartition optionally supplies an existing k-way partition (e.g. a
	// geographic or hash placement, §VI) that is fed into the first
	// V-cycle and improved; the result is never worse than the input.
	Prepartition []int32
	// Trace, when non-nil, records per-rank spans of the run (pipeline
	// phases, sclp supersteps, mpi exchanges); serialize the tracer with
	// Tracer.WriteJSON afterwards to obtain a Chrome trace-event file.
	// Nil (the default) disables tracing at zero cost.
	Trace *Tracer
	// Workers is the number of OS threads each simulated rank uses for the
	// compute half of its supersteps (label propagation proposals, quotient
	// edge accumulation). 0 selects the default, NumCPU divided by the
	// number of ranks hosted in this process, so in-process worlds don't
	// oversubscribe the machine. The partition is bit-identical for every
	// worker count; Workers trades wall-clock time only.
	Workers int
}

// Tracer records per-rank spans of a partitioning run and serializes them
// as Chrome trace-event JSON (WriteJSON), openable in Perfetto or
// chrome://tracing with one track per simulated rank. Create one with
// NewTracer and attach it via WithTracer (or Options.Trace); a nil *Tracer
// is a valid, disabled tracer.
type Tracer = obs.Tracer

// NewTracer returns an enabled tracer with one track per rank. Size it to
// the session's PE count (tracks beyond it stay empty; spans from ranks
// outside the range are dropped).
func NewTracer(ranks int) *Tracer { return obs.NewTracer(ranks) }

// Objective selects the optimization target of the coarsest-level
// evolutionary search (§VI extension).
type Objective = evo.Objective

// Objectives.
const (
	// MinimizeCut minimizes the total weight of cut edges (the paper's
	// objective, default).
	MinimizeCut = evo.ObjectiveCut
	// MinimizeCommVolume minimizes the total communication volume.
	MinimizeCommVolume = evo.ObjectiveCommVol
	// MinimizeMaxCommVolume minimizes the busiest block's volume.
	MinimizeMaxCommVolume = evo.ObjectiveMaxCommVol
	// MinimizeMaxQuotientDegree minimizes the maximum number of
	// neighbouring blocks.
	MinimizeMaxQuotientDegree = evo.ObjectiveMaxQuotientDegree
	// MinimizeMigration minimizes the number of nodes moved away from the
	// previous partition, breaking ties by edge cut. It requires a session
	// configured with WithPrevious (or Repartition); without a previous
	// partition there is nothing to stay close to and New rejects it.
	MinimizeMigration = evo.ObjectiveMigration
)

// Result of a partitioning run.
type Result struct {
	// Partition is the computed partition as a first-class value: block
	// assignment plus block weights, cut, feasibility and the graph
	// fingerprint, with serialization and migration planning attached.
	Partition *Partition
	// Part assigns every node a block in [0, k). It aliases Partition's
	// storage and must be treated as read-only.
	//
	// Deprecated: use Partition.
	Part []int32
	// Cut is the weight of edges between different blocks.
	Cut int64
	// Imbalance is max block weight / average block weight - 1.
	Imbalance float64
	// Feasible reports whether every block respects (1+eps)*ceil(W/k).
	Feasible bool
	// Stats carries detailed level/timing/communication data; repartition
	// runs additionally fill Stats.MigratedNodes and Stats.MigrationVolume.
	Stats core.Stats
}

func (o Options) coreConfig(k int32) core.Config {
	class := core.ClassSocial
	if o.Class == Mesh {
		class = core.ClassMesh
	}
	var cfg core.Config
	switch o.Mode {
	case Eco:
		cfg = core.EcoConfig(k, class)
	case Minimal:
		cfg = core.MinimalConfig(k, class)
	default:
		cfg = core.FastConfig(k, class)
	}
	if o.Eps > 0 {
		cfg.Eps = o.Eps
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.EvoTimeBudget = o.EvoTimeBudget
	cfg.Objective = o.Objective
	cfg.Prepartition = o.Prepartition
	cfg.Tracer = o.Trace
	cfg.Workers = o.Workers
	return cfg
}

func (o Options) pes() int {
	if o.PEs <= 0 {
		return 4
	}
	return o.PEs
}

// PartitionGraph computes a k-way partition of g with the ParHIP
// algorithm. It applies the same strict option validation as New (invalid
// eps, PEs, mode etc. are errors, not silently replaced by defaults). In
// earlier releases this function was named Partition; that name now
// belongs to the first-class partition value type.
//
// Deprecated: use New + Run, which add cancellation and progress:
//
//	p, err := parhip.New(g, parhip.WithK(k), parhip.WithOptions(opt))
//	res, err := p.Run(ctx)
func PartitionGraph(g *Graph, k int32, opt Options) (Result, error) {
	p, err := New(g, WithK(k), WithOptions(opt))
	if err != nil {
		return Result{}, err
	}
	return p.Run(context.Background())
}

// PartitionBaseline computes a k-way partition with the ParMETIS-style
// matching-based baseline the paper compares against. memoryBudgetNodes
// bounds the size of the coarsest graph a PE may replicate (0 = unlimited);
// beyond it the run fails like ParMETIS running out of memory in the
// paper's tables. It is PartitionBaselineCtx with a background context.
func PartitionBaseline(g *Graph, k int32, opt Options, memoryBudgetNodes int64) (Result, error) {
	return PartitionBaselineCtx(context.Background(), g, k, opt, memoryBudgetNodes)
}

// PartitionBaselineCtx is PartitionBaseline bound to a context: when ctx
// is cancelled, the simulated ranks unwind cooperatively and it returns
// ctx.Err(). It applies the same strict option validation as New, and its
// Result carries the same Stats detail (hierarchy levels, phase timings,
// balance bound, communication) as the main partitioner's, so bench
// comparisons against the baseline are apples-to-apples.
func PartitionBaselineCtx(ctx context.Context, g *Graph, k int32, opt Options, memoryBudgetNodes int64) (Result, error) {
	if err := validateRun(g, k, opt); err != nil {
		return Result{}, err
	}
	cfg := matchbase.DefaultConfig(k)
	if opt.Eps > 0 {
		cfg.Eps = opt.Eps
	}
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	cfg.MemoryBudgetNodes = memoryBudgetNodes
	cfg.Tracer = opt.Trace
	res, err := matchbase.RunCtx(ctx, opt.pes(), g, cfg)
	if err != nil {
		return Result{}, err
	}
	st := res.Stats
	levels := make([]core.LevelStat, len(st.Levels))
	for i, n := range st.Levels {
		levels[i] = core.LevelStat{N: n}
		if i < len(st.LevelsM) {
			levels[i].M = st.LevelsM[i]
		}
	}
	pv := newPartitionFromRun(g, res.Part, k, cfg.Eps, st.Cut, st.Feasible)
	return Result{
		Partition: pv,
		Part:      res.Part,
		Cut:       st.Cut,
		Imbalance: st.Imbalance,
		Feasible:  st.Feasible,
		Stats: core.Stats{
			Levels:         levels,
			CoarsenTime:    st.CoarsenTime,
			InitTime:       st.InitTime,
			RefineTime:     st.RefineTime,
			TotalTime:      st.TotalTime,
			Cut:            st.Cut,
			Imbalance:      st.Imbalance,
			Lmax:           st.Lmax,
			MaxBlockWeight: st.MaxBlockWeight,
			Feasible:       st.Feasible,
			Comm:           st.Comm,
		},
	}, nil
}

// Fingerprint returns a stable content hash of g: a SHA-256 (hex-encoded)
// over the CSR arrays and node/edge weights. Equal fingerprints mean
// byte-identical graph representations, which makes the fingerprint a safe
// cache key for partitioning results; the parhipd service keys its result
// cache on Fingerprint(g) plus the canonicalized Options.
func Fingerprint(g *Graph) string { return g.Fingerprint() }

// EdgeCut returns the weight of edges crossing between blocks of p.
//
// Deprecated: use Partition.Cut, which every Result carries precomputed.
func EdgeCut(g *Graph, p []int32) int64 {
	return partition.EdgeCut(g, p)
}

// Imbalance returns max block weight over average block weight, minus 1.
//
// Deprecated: use Partition.Imbalance.
func Imbalance(g *Graph, p []int32, k int32) float64 {
	return partition.Imbalance(g, p, k)
}

// CommunicationVolume returns the total communication volume of p — for
// every node, the number of distinct foreign blocks among its neighbours.
//
// Deprecated: use Partition.CommunicationVolume.
func CommunicationVolume(g *Graph, p []int32, k int32) int64 {
	return partition.CommunicationVolume(g, p, k)
}

// IsFeasible reports whether p respects the balance bound
// (1+eps)*ceil(W/k) for every block.
//
// Deprecated: use Partition.Feasible (or Validate after deserializing).
func IsFeasible(g *Graph, p []int32, k int32, eps float64) bool {
	return partition.IsFeasible(g, p, k, eps)
}

// CommunicationVolume returns the total communication volume of the
// partition on g — for every node, the number of distinct foreign blocks
// among its neighbours.
func (p *Partition) CommunicationVolume(g *Graph) int64 {
	return partition.CommunicationVolume(g, p.assign, p.k)
}

// Clustering assigns every node a cluster ID. Unlike a Partition there is
// no block count or balance bound attached; cluster IDs are dense-ish but
// arbitrary.
type Clustering []int32

// ClusterModularity computes a multilevel modularity clustering of g (the
// §VI graph-clustering extension): no block count and no balance bound,
// maximizing Newman's modularity instead. It returns the cluster of each
// node and the achieved modularity.
func ClusterModularity(g *Graph, seed uint64) (Clustering, float64) {
	cfg := modularity.DefaultConfig()
	if seed != 0 {
		cfg.Seed = seed
	}
	return modularity.Cluster(g, cfg)
}

// Modularity returns Newman's modularity of a clustering of g.
func Modularity(g *Graph, clusters Clustering) float64 {
	return modularity.Modularity(g, clusters)
}
