//===- dataflow/Framework.h - Flow functions and solver --------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FrameworkInstance materializes the equation system of Section 3.2 for
/// one loop and one (G, K) problem: the tracked reference tuple, the pr
/// predicate, and per-node flow functions (generate f(x) = max(x, 0),
/// preserve f(x) = min(x, p), exit f(x) = x++). solveDataFlow computes
/// the greatest fixed point with the paper's pass schedule:
///
///   must: one initialization pass plus two reverse-postorder passes
///         (3 * N node visits),
///   may:  two reverse-postorder passes from the all-instances initial
///         guess (2 * N node visits).
///
/// Backward problems run the same machinery over the reversed graph; the
/// IN tuple of a backward solution describes node *exit* information
/// (Section 3.4, footnote in Section 4.2.1).
///
/// IN/OUT tuples are stored flat (DistanceMatrix); a SolveWorkspace lets
/// repeated solves recycle the matrices so the hot pass loop performs no
/// heap allocation. The problem-independent inputs (reference universe,
/// traversal order, predecessor lists) can be borrowed from a
/// LoopAnalysisSession instead of recomputed per instance.
///
/// Two solver engines share this interface (SolverOptions::Engine): the
/// scalar Reference solver below, and the branch-free PackedKernel
/// solver over a lowered CompiledFlowProgram (CompiledFlow.h), which
/// produces bit-identical results. The instance stores its dense
/// preserve constants once, as the packed rows the kernel sweeps
/// (PreserveRows); the reference solver reads them through preserveAt,
/// which unpacks, so its lattice arithmetic stays scalar.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_DATAFLOW_FRAMEWORK_H
#define ARDF_DATAFLOW_FRAMEWORK_H

#include "dataflow/DistanceMatrix.h"
#include "dataflow/PreserveConstant.h"
#include "dataflow/Problem.h"
#include "dataflow/SolverBudget.h"
#include "lattice/Distance.h"
#include "lattice/PackedDistance.h"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ardf {

/// A data flow value tuple indexed by tracked-reference position (the
/// owning flavor; solutions store rows inside a DistanceMatrix).
using DistanceTuple = std::vector<DistanceValue>;

/// Snapshot of all IN/OUT tuples after one solver pass (used to
/// regenerate the paper's Table 1).
struct PassSnapshot {
  std::string Label;
  DistanceMatrix In;
  DistanceMatrix Out;
};

struct SolveProvenance;

/// Result of a data flow solve.
struct SolveResult {
  /// IN/OUT tuples per flow graph node (original node ids). For backward
  /// problems IN[n] holds node-exit information.
  DistanceMatrix In;
  DistanceMatrix Out;

  /// Total node visits performed (the paper's cost metric; 3*N resp.
  /// 2*N for the prescribed schedules).
  unsigned NodeVisits = 0;

  /// Iteration passes performed after initialization.
  unsigned Passes = 0;

  /// Lattice meet operations the solve performed: one per extra working
  /// predecessor per tracked component per meet evaluation (identical
  /// across engines; derived from the orientation's meet-edge counts).
  uint64_t MeetOps = 0;

  /// Flow function applications: node visits of the iteration passes
  /// times tracked components (initialization applies no flow function).
  uint64_t ApplyOps = 0;

  /// False only in IterateToFixpoint mode when MaxPasses was exhausted.
  bool Converged = true;

  /// How the solve ended. Degraded results are sound but imprecise: on
  /// a budget breach or injected fault every cell holds the conservative
  /// fill (NoInstance for must, AllInstances for may); on
  /// NonConvergence the matrices hold the last iterate, which for these
  /// descending chains is likewise conservative.
  SolveOutcome Outcome = SolveOutcome::Ok;

  /// Why the solve degraded (None when Outcome is Ok).
  BreachReason Breach = BreachReason::None;

  bool ok() const { return Outcome == SolveOutcome::Ok; }

  /// Per-pass snapshots when SolverOptions::RecordHistory is set.
  std::vector<PassSnapshot> History;

  /// Full derivation recording when SolverOptions::RecordProvenance is
  /// set (reference engine only); null otherwise. Shared so the session
  /// solution cache and explain consumers can hold it past the solve.
  std::shared_ptr<const SolveProvenance> Provenance;
};

/// Solver configuration.
struct SolverOptions {
  enum class Strategy {
    /// The paper's schedule: fixed pass counts guaranteed by (weak)
    /// idempotence of the flow functions.
    PaperSchedule,
    /// Iterate reverse-postorder passes until stable (used to verify the
    /// pass-count claims empirically and by the naive baseline bench).
    IterateToFixpoint
  };

  enum class Engine {
    /// The scalar DistanceValue solver (the executable specification,
    /// and the oracle the packed kernel is checked against).
    Reference,
    /// The branch-free packed kernel over a CompiledFlowProgram
    /// (bit-identical results; see CompiledFlow.h). Its row operations
    /// run on the runtime-dispatched VectorOps backend
    /// (dataflow/VectorOps.h) of the host's ISA tier. Through a
    /// LoopAnalysisSession the compiled program is memoized per
    /// instance; a direct solveDataFlow call compiles on the fly.
    PackedKernel
  };

  Strategy Strat = Strategy::PaperSchedule;
  Engine Eng = Engine::Reference;
  unsigned MaxPasses = 64;
  bool RecordHistory = false;

  /// Records a full derivation (dataflow/Provenance.h) into
  /// SolveResult::Provenance. Forces the scalar reference path -- the
  /// packed engine stays untouched and fast -- so explain flows
  /// re-solve on demand and cross-check against the cached packed
  /// result. Off on every hot path.
  bool RecordProvenance = false;

  /// Resource ceilings for each solve (default: nothing enforced). Part
  /// of the options identity below, so session solution caches never
  /// serve a result computed under a different budget.
  SolverBudget Budget;

  friend bool operator==(const SolverOptions &A, const SolverOptions &B) {
    return A.Strat == B.Strat && A.Eng == B.Eng &&
           A.MaxPasses == B.MaxPasses &&
           A.RecordHistory == B.RecordHistory &&
           A.RecordProvenance == B.RecordProvenance &&
           A.Budget == B.Budget;
  }
  friend bool operator!=(const SolverOptions &A, const SolverOptions &B) {
    return !(A == B);
  }

  /// True when the solve runs the packed kernel engine.
  bool usesPackedKernel() const { return Eng == Engine::PackedKernel; }
};

/// CLI name of \p E: "reference" or "packed".
const char *engineName(SolverOptions::Engine E);

/// Parses a CLI engine name into \p Out; false when \p Name is not a
/// known engine (callers turn that into a usage error rather than
/// silently falling back).
bool parseEngineName(std::string_view Name, SolverOptions::Engine &Out);

/// Every engine name parseEngineName accepts, comma-separated (e.g. for
/// usage text and unknown-name diagnostics): the single authority the
/// CLI tools share, so a new engine shows up everywhere at once.
const char *engineNameList();

class FrameworkInstance;
struct CompiledFlowProgram;
struct SolveProvenance;

/// Memoized preserve constants. The p constant of Section 3.1.2 depends
/// only on the (preserved, killer) affine access pair, the pr value, the
/// problem mode and direction, and the trip count — not on which problem
/// asked. Keyed by access-class pair, one cache serves every killer
/// occurrence of a class and every instance sharing the cache (a
/// LoopAnalysisSession passes its cache to all of its instances; trip
/// count is fixed per loop, so it stays out of the key). Not
/// thread-safe: shared only within one session, which is single-threaded
/// by contract.
class PreserveCache {
public:
  size_t size() const { return Map.size(); }

  /// Lookup hits and misses observed since construction (a hit means the
  /// rational preserve arithmetic was skipped; the cross-instance
  /// sharing metric the telemetry layer reports).
  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

private:
  friend class FrameworkInstance;
  /// Packed constants (PackedDistance.h), keyed as computePreserves
  /// describes.
  std::unordered_map<uint64_t, packed::PackedDistance> Map;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// The dense preserve constants of one instance, stored once: row-major
/// NumNodes x NumTracked packed cells (PackedDistance.h), the constant
/// min-applied to each non-exit cell. The cells are narrowed to
/// uint32_t exactly when every packed constant of the instance
/// narrows -- these rows, the post-generation constants and the exit
/// increment's bound -- so the kernel may sweep 4-byte cells; since
/// loop distances are bounded by trip counts, in practice only
/// unknown-trip loops stay wide. Shared (not copied) by the instance
/// and its CompiledFlowProgram, so either may outlive the other.
struct PreserveRows {
  bool Narrow32 = false;
  /// Filled exactly when Narrow32.
  std::vector<uint32_t> Narrow;
  /// Filled exactly when !Narrow32.
  std::vector<uint64_t> Wide;

  /// The packed constant of row-major cell \p Cell.
  packed::PackedDistance at(size_t Cell) const {
    return Narrow32 ? packed::widen(Narrow[Cell]) : Wide[Cell];
  }
};

/// Reusable solve buffers: repeated solveDataFlow calls through one
/// workspace overwrite the same IN/OUT matrices, so once the matrices
/// have grown to the largest (nodes x tracked) shape seen, further
/// solves perform no heap allocation at all (pass loop included).
/// The packed kernel engine additionally recycles its two uint64
/// matrices here (solveCompiled), under the same growth accounting.
/// RecordHistory still allocates snapshots; leave it off on hot paths.
class SolveWorkspace {
public:
  /// The most recent solution (valid until the next solve).
  const SolveResult &result() const { return Result; }

  /// Number of solves that had to grow a matrix allocation. Stable
  /// across warm repeats -- the invariant the allocation test asserts.
  unsigned matrixGrowths() const { return Growths; }

  /// Total solves run through this workspace.
  unsigned solves() const { return Solves; }

private:
  friend const SolveResult &solveDataFlow(const FrameworkInstance &FW,
                                          SolveWorkspace &WS,
                                          const SolverOptions &Opts);
  friend const SolveResult &solveCompiled(const CompiledFlowProgram &CF,
                                          SolveWorkspace &WS,
                                          const SolverOptions &Opts);
  SolveResult Result;
  /// Packed row-major IN/OUT buffers of the kernel engine, plus its
  /// one-row scratch buffer (IN rows of non-final passes and old-OUT
  /// snapshots of change-tracked passes never leave it). Programs whose
  /// constants narrow (PreserveRows::Narrow32) solve in the uint32_t
  /// set instead; both sets persist so a workspace can
  /// alternate widths without reallocating.
  std::vector<uint64_t> PackedIn;
  std::vector<uint64_t> PackedOut;
  std::vector<uint64_t> PackedScratch;
  std::vector<uint32_t> PackedIn32;
  std::vector<uint32_t> PackedOut32;
  std::vector<uint32_t> PackedScratch32;
  unsigned Growths = 0;
  unsigned Solves = 0;
};

/// Problem-independent traversal tables of one loop graph in one working
/// orientation: the node order (forward: reverse postorder; backward:
/// the reversed sequence) and the working predecessor lists. Computed
/// once per (loop, direction) and shared across framework instances by
/// LoopAnalysisSession.
struct LoopOrientation {
  FlowDirection Direction = FlowDirection::Forward;
  std::vector<unsigned> Order;
  std::vector<std::vector<unsigned>> Preds;

  /// Meet operations one tracked component costs per full pass: the sum
  /// over nodes of (working predecessors - 1). NoSource excludes the
  /// working source (the must-initialization pass skips it). Computed
  /// once here so per-solve operation accounting is O(1).
  unsigned MeetEdgesAll = 0;
  unsigned MeetEdgesNoSource = 0;

  static LoopOrientation compute(const LoopFlowGraph &Graph,
                                 FlowDirection Dir);
};

/// A fully instantiated framework: loop graph + problem + flow functions.
class FrameworkInstance {
public:
  /// Instantiates the problem over \p Graph. A non-empty \p IVOverride
  /// analyzes the body with respect to an enclosing loop's induction
  /// variable (Section 3.6); the local one becomes a symbolic constant
  /// and the trip count is taken from \p TripOverride (the enclosing
  /// loop's, unknown by default).
  FrameworkInstance(const LoopFlowGraph &Graph, const Program &P,
                    ProblemSpec Spec, const std::string &IVOverride = "",
                    int64_t TripOverride = UnknownTripCount);

  /// Batched form: borrows the memoized problem-independent tables of a
  /// LoopAnalysisSession instead of recomputing them. \p Universe and
  /// \p Orient must outlive the instance and \p Orient's direction must
  /// match the problem's. \p TripCount is the lattice saturation bound.
  /// A non-null \p SharedCache memoizes preserve constants across all
  /// instances built against it; it must have been used only with the
  /// same universe and trip count.
  FrameworkInstance(const ReferenceUniverse &Universe,
                    const LoopOrientation &Orient, ProblemSpec Spec,
                    int64_t TripCount, PreserveCache *SharedCache = nullptr);

  /// The trip count the lattice saturates at.
  int64_t getTripCount() const { return TripCount; }

  const LoopFlowGraph &getGraph() const { return *Graph; }
  const ReferenceUniverse &getUniverse() const { return *Universe; }
  const ProblemSpec &getSpec() const { return Spec; }

  /// The tracked (generating) references, in tuple order. Without
  /// GroupByAccess every tuple element is a single occurrence; with it,
  /// an element is an equivalence class of same-access occurrences and
  /// getTracked returns the first member as representative.
  unsigned getNumTracked() const { return Groups.size(); }
  const RefOccurrence &getTracked(unsigned Idx) const {
    return Universe->occurrence(Groups[Idx].front());
  }

  /// All member occurrence ids of tuple element \p Idx.
  const std::vector<unsigned> &trackedMembers(unsigned Idx) const {
    return Groups[Idx];
  }

  /// Maps an occurrence id to its tuple position, or -1 if untracked.
  int trackedIndexOf(unsigned OccId) const { return OccToTracked[OccId]; }

  /// The tuple positions whose references name array \p ArrayId
  /// (ReferenceUniverse::arrayId), in ascending order. Per-pair loops
  /// scan this bucket instead of every tracked element: references to
  /// different arrays never kill, reuse, or depend on each other.
  std::span<const unsigned> trackedOfArray(unsigned ArrayId) const {
    return {ArrayTracked.data() + ArrayOffsets[ArrayId],
            ArrayTracked.data() + ArrayOffsets[ArrayId + 1]};
  }

  /// pr(d, n) for tracked index \p Idx at node \p Node, evaluated in the
  /// working orientation (Section 3.1.2; successors for backward
  /// problems). For a grouped element, 0 when any member's node reaches
  /// \p Node intra-iteration.
  int64_t pr(unsigned Idx, unsigned Node) const {
    return Pr[size_t(Idx) * Graph->getNumNodes() + Node];
  }

  /// True if tracked reference \p Idx is generated in node \p Node.
  bool generatesAt(unsigned Idx, unsigned Node) const {
    return GenAt[Node * Groups.size() + Idx];
  }

  /// The preserve constant applied to tracked reference \p Idx at node
  /// \p Node (AllInstances when the node contains no killer for it).
  /// At the generating node itself this is the pre-generation phase; see
  /// preserveAfterGen. Unpacked from the shared packed rows.
  DistanceValue preserveAt(unsigned Idx, unsigned Node) const {
    return packed::unpack(Rows->at(size_t(Node) * Groups.size() + Idx));
  }

  /// The dense preserve constants in the packed form the kernel solves
  /// on (shared with every CompiledFlowProgram lowered from here).
  const std::shared_ptr<const PreserveRows> &preserveRows() const {
    return Rows;
  }

  /// The generating cells, CSR by node: columns
  /// genCols()[genOffsets()[n] .. genOffsets()[n+1]), ascending per
  /// node, with the matching packed post-generation constants in
  /// genQ().
  const std::vector<uint32_t> &genOffsets() const { return GenOffsets; }
  const std::vector<uint32_t> &genCols() const { return GenCols; }
  const std::vector<packed::PackedDistance> &genQ() const { return GenQ; }

  /// Within one statement, uses execute before the definition. A killer
  /// positioned after the generation point of tracked reference \p Idx
  /// in a generating node (e.g. the def killing a same-statement use's
  /// value in a forward problem, or a same-statement use killing the
  /// store's busyness in a backward problem) must apply after the
  /// generate function, with the fresh distance-0 instance in range.
  /// AllInstances for every cell where \p Idx is not generated.
  DistanceValue preserveAfterGen(unsigned Idx, unsigned Node) const;

  /// Applies the node flow function f_n to one tuple component.
  DistanceValue applyNode(unsigned Node, unsigned Idx,
                          DistanceValue In) const;

  /// Node order of the working orientation (forward: RPO; backward:
  /// reversed RPO). The first node is the working source.
  const std::vector<unsigned> &workingOrder() const { return Orient->Order; }

  /// Predecessors in the working orientation.
  const std::vector<unsigned> &workingPreds(unsigned Node) const {
    return Orient->Preds[Node];
  }

  /// Meet operations one tracked component costs per pass (see
  /// LoopOrientation::MeetEdgesAll/MeetEdgesNoSource).
  unsigned meetEdges(bool ExcludeSource) const {
    return ExcludeSource ? Orient->MeetEdgesNoSource
                         : Orient->MeetEdgesAll;
  }

  /// The meet of the problem: min for must, max for may.
  DistanceValue meet(DistanceValue A, DistanceValue B) const {
    return Spec.isMust() ? DistanceValue::min(A, B)
                         : DistanceValue::max(A, B);
  }

  /// Renders the tracked tuple header, e.g. "(C[i+2], B[2*i], C[i], B[i])".
  std::string tupleHeader() const;

private:
  void selectTracked();
  void computePr();
  void computePreserves();

  const LoopFlowGraph *Graph;
  ProblemSpec Spec;
  int64_t TripCount;
  /// Owned in the standalone constructor, borrowed in the batched one.
  std::unique_ptr<ReferenceUniverse> OwnedUniverse;
  const ReferenceUniverse *Universe;
  std::unique_ptr<LoopOrientation> OwnedOrient;
  const LoopOrientation *Orient;
  std::unique_ptr<PreserveCache> OwnedCache;
  PreserveCache *Cache;
  std::vector<std::vector<unsigned>> Groups;
  std::vector<int> OccToTracked;
  /// Tuple positions bucketed by array id (see trackedOfArray).
  std::vector<unsigned> ArrayOffsets;
  std::vector<unsigned> ArrayTracked;
  std::vector<char> GenAt;
  /// pr(d, n) per (Idx, Node); values are 0 and 1 only.
  std::vector<uint8_t> Pr;
  std::shared_ptr<const PreserveRows> Rows;
  /// Packed post-generation constants of the generating cells only,
  /// CSR by node: GenQ[k] belongs to column GenCols[k], k in
  /// [GenOffsets[n], GenOffsets[n+1]), columns ascending per node.
  std::vector<uint32_t> GenOffsets;
  std::vector<uint32_t> GenCols;
  std::vector<packed::PackedDistance> GenQ;
};

/// Solves the equation system of \p FW (Section 3.2).
SolveResult solveDataFlow(const FrameworkInstance &FW,
                          const SolverOptions &Opts = SolverOptions());

/// Workspace form: solves into \p WS's matrices, reusing their
/// allocations. The returned reference stays valid until the next solve
/// through the same workspace.
const SolveResult &solveDataFlow(const FrameworkInstance &FW,
                                 SolveWorkspace &WS,
                                 const SolverOptions &Opts = SolverOptions());

/// Formats one tuple like the paper's Table 1 rows: "(2, 1, _, T)".
std::string tupleToString(const DistanceTuple &T);
std::string tupleToString(DistanceMatrix::ConstRow Row);

} // namespace ardf

#endif // ARDF_DATAFLOW_FRAMEWORK_H
