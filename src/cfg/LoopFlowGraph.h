//===- cfg/LoopFlowGraph.h - Flow graph of one loop body -------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The loop flow graph FG = (N, E) of Section 3: one node per statement
/// of the loop body plus
///   * guard nodes for if-conditions (uses only, transparent to the
///     equation system — the paper folds these into edges),
///   * summary nodes replacing nested loops (hierarchical analysis), and
///   * the distinguished exit node representing i := i + 1.
/// The only cycle is the back edge exit -> entry, so the body subgraph is
/// acyclic and a reverse postorder traversal visits every node after all
/// of its intra-iteration predecessors.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_CFG_LOOPFLOWGRAPH_H
#define ARDF_CFG_LOOPFLOWGRAPH_H

#include "ir/Program.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ardf {

/// Kinds of loop flow graph nodes.
enum class FlowNodeKind {
  Statement, ///< An assignment statement.
  Guard,     ///< The condition of an if statement (uses only).
  Summary,   ///< A nested loop, summarized (Section 3.2).
  Exit       ///< The unique i := i + 1 node.
};

/// One node of the loop flow graph.
struct FlowNode {
  FlowNodeKind Kind;
  /// The statement this node was made from: AssignStmt for Statement,
  /// IfStmt for Guard, DoLoopStmt for Summary, null for Exit.
  const Stmt *S = nullptr;
  std::vector<unsigned> Succs;
  std::vector<unsigned> Preds;
  /// 1-based number assigned to Statement/Summary/Exit nodes in program
  /// order (the paper's numbering in Fig. 3 / Table 1); 0 for guards.
  unsigned StmtNumber = 0;
};

/// The flow graph of one loop body.
class LoopFlowGraph {
public:
  /// Builds the flow graph for \p Loop. Nested loops become summary
  /// nodes. The body must be non-empty.
  explicit LoopFlowGraph(const DoLoopStmt &Loop);

  const DoLoopStmt &getLoop() const { return *Loop; }
  const std::string &getIndVar() const { return Loop->getIndVar(); }

  unsigned getNumNodes() const { return Nodes.size(); }
  const FlowNode &getNode(unsigned Id) const { return Nodes[Id]; }
  const std::vector<FlowNode> &nodes() const { return Nodes; }

  /// The entry node: the first node of the loop body.
  unsigned getEntry() const { return Entry; }

  /// The exit node (i := i + 1).
  unsigned getExit() const { return Exit; }

  /// Reverse postorder over the acyclic body subgraph (the back edge
  /// exit -> entry is ignored). Entry is first, exit is last.
  const std::vector<unsigned> &reversePostorder() const { return RPO; }

  /// True if node \p From reaches node \p To along intra-iteration edges
  /// (excluding the back edge). Irreflexive: reaches(n, n) is false.
  /// This implements the paper's pr predicate support: pr(d, n) == 0 iff
  /// the node of d reaches n within the same iteration.
  bool reachesIntraIteration(unsigned From, unsigned To) const {
    return (reachRow(From)[To / 64] >> (To % 64)) & 1;
  }

  /// The reachability relation as bitset rows of reachWords() words:
  /// bit To of reachRow(From) and bit From of reachedByRow(To) are both
  /// set iff reachesIntraIteration(From, To). Clients that need the
  /// union over several nodes OR whole rows instead of probing pairs.
  unsigned reachWords() const { return Words; }
  const uint64_t *reachRow(unsigned From) const {
    return &Reach[size_t(From) * Words];
  }
  const uint64_t *reachedByRow(unsigned To) const {
    return &ReachedBy[size_t(To) * Words];
  }

  /// Finds the node id for statement \p S (Statement/Guard/Summary), or
  /// getNumNodes() if \p S is not a direct node of this graph.
  unsigned findNode(const Stmt &S) const;

  /// The trip count UB when constant, or UnknownTripCount (-1).
  int64_t getTripCount() const;

  /// Emits GraphViz DOT form for debugging and documentation.
  void printDot(std::ostream &OS) const;

  /// Returns a one-line description of node \p Id ("3: C[i] = B[i-1]").
  std::string nodeLabel(unsigned Id) const;

private:
  unsigned addNode(FlowNodeKind Kind, const Stmt *S);
  void addEdge(unsigned From, unsigned To);

  /// Builds the subgraph for \p Stmts; every node in \p Dangling is given
  /// an edge to the first node created. On return, Dangling holds the
  /// nodes whose successor is the code following \p Stmts.
  void buildStmts(const StmtList &Stmts, std::vector<unsigned> &Dangling);

  void computeRPO();
  void computeReachability();
  void numberStatements();

  const DoLoopStmt *Loop;
  std::vector<FlowNode> Nodes;
  unsigned Entry = 0;
  unsigned Exit = 0;
  std::vector<unsigned> RPO;
  unsigned Words = 0;
  std::vector<uint64_t> Reach;
  std::vector<uint64_t> ReachedBy;
};

} // namespace ardf

#endif // ARDF_CFG_LOOPFLOWGRAPH_H
