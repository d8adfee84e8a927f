//===- cfg/LoopFlowGraph.cpp - Flow graph of one loop body ---------------===//

#include "cfg/LoopFlowGraph.h"

#include "ir/PrettyPrinter.h"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>
#include <stdexcept>

using namespace ardf;

LoopFlowGraph::LoopFlowGraph(const DoLoopStmt &Loop) : Loop(&Loop) {
  assert(!Loop.getBody().empty() && "loop with empty body");

  std::vector<unsigned> Dangling;
  buildStmts(Loop.getBody(), Dangling);
  Entry = 0;

  Exit = addNode(FlowNodeKind::Exit, nullptr);
  for (unsigned N : Dangling)
    addEdge(N, Exit);
  // The single back edge: transfer to the next iteration.
  addEdge(Exit, Entry);

  computeRPO();
  computeReachability();
  numberStatements();
}

unsigned LoopFlowGraph::addNode(FlowNodeKind Kind, const Stmt *S) {
  FlowNode N;
  N.Kind = Kind;
  N.S = S;
  Nodes.push_back(std::move(N));
  return Nodes.size() - 1;
}

void LoopFlowGraph::addEdge(unsigned From, unsigned To) {
  Nodes[From].Succs.push_back(To);
  Nodes[To].Preds.push_back(From);
}

void LoopFlowGraph::buildStmts(const StmtList &Stmts,
                               std::vector<unsigned> &Dangling) {
  for (const StmtPtr &SP : Stmts) {
    const Stmt &S = *SP;
    switch (S.getKind()) {
    case Stmt::Kind::Assign: {
      unsigned N = addNode(FlowNodeKind::Statement, &S);
      for (unsigned D : Dangling)
        addEdge(D, N);
      Dangling.assign(1, N);
      break;
    }
    case Stmt::Kind::DoLoop: {
      unsigned N = addNode(FlowNodeKind::Summary, &S);
      for (unsigned D : Dangling)
        addEdge(D, N);
      Dangling.assign(1, N);
      break;
    }
    case Stmt::Kind::If: {
      const auto *IS = cast<IfStmt>(&S);
      unsigned Guard = addNode(FlowNodeKind::Guard, &S);
      for (unsigned D : Dangling)
        addEdge(D, Guard);

      std::vector<unsigned> ThenDangling{Guard};
      buildStmts(IS->getThen(), ThenDangling);

      std::vector<unsigned> ElseDangling{Guard};
      if (IS->hasElse())
        buildStmts(IS->getElse(), ElseDangling);

      Dangling = std::move(ThenDangling);
      // With no else branch, the guard itself falls through; with an
      // else branch, its dangling ends join the then-side ends.
      Dangling.insert(Dangling.end(), ElseDangling.begin(),
                      ElseDangling.end());
      // Both branches may be empty, leaving the guard twice.
      std::sort(Dangling.begin(), Dangling.end());
      Dangling.erase(std::unique(Dangling.begin(), Dangling.end()),
                     Dangling.end());
      break;
    }
    case Stmt::Kind::While:
    case Stmt::Kind::Break:
      // The flow graph models the paper's acyclic single-back-edge body.
      // The loop-nest reducer (analysis/LoopNest) rewrites recognized
      // whiles into DO form and rejects loops with early exits before a
      // graph is ever built; reaching here is a caller bug.
      throw std::logic_error(
          "loop flow graph over unreduced while/break statement");
    }
  }
}

void LoopFlowGraph::computeRPO() {
  std::vector<bool> Visited(Nodes.size(), false);
  std::vector<unsigned> Postorder;
  Postorder.reserve(Nodes.size());

  // Iterative DFS from the entry, ignoring the back edge exit -> entry.
  std::vector<std::pair<unsigned, unsigned>> Stack;
  Stack.emplace_back(Entry, 0);
  Visited[Entry] = true;
  while (!Stack.empty()) {
    auto &[Node, NextSucc] = Stack.back();
    if (NextSucc < Nodes[Node].Succs.size()) {
      unsigned Succ = Nodes[Node].Succs[NextSucc++];
      if (Node == Exit)
        continue; // the back edge
      if (!Visited[Succ]) {
        Visited[Succ] = true;
        Stack.emplace_back(Succ, 0);
      }
      continue;
    }
    Postorder.push_back(Node);
    Stack.pop_back();
  }

  RPO.assign(Postorder.rbegin(), Postorder.rend());
  assert(RPO.size() == Nodes.size() && "unreachable nodes in loop body");
  assert(RPO.front() == Entry && RPO.back() == Exit &&
         "RPO must start at entry and end at exit");
}

void LoopFlowGraph::computeReachability() {
  unsigned N = Nodes.size();
  Words = (N + 63) / 64;
  Reach.assign(size_t(N) * Words, 0);
  ReachedBy.assign(size_t(N) * Words, 0);
  auto setBit = [&](std::vector<uint64_t> &Rows, unsigned Row, unsigned Bit) {
    Rows[size_t(Row) * Words + Bit / 64] |= uint64_t(1) << (Bit % 64);
  };
  auto orRow = [&](std::vector<uint64_t> &Rows, unsigned Dst, unsigned Src) {
    uint64_t *D = &Rows[size_t(Dst) * Words];
    const uint64_t *S = &Rows[size_t(Src) * Words];
    for (unsigned W = 0; W != Words; ++W)
      D[W] |= S[W];
  };
  // Process in reverse RPO so successors' reach sets are complete:
  // reach(n) = union over intra-iteration successors s of {s} + reach(s).
  for (auto It = RPO.rbegin(); It != RPO.rend(); ++It) {
    unsigned Node = *It;
    if (Node == Exit)
      continue; // only the back edge leaves exit
    for (unsigned Succ : Nodes[Node].Succs) {
      setBit(Reach, Node, Succ);
      orRow(Reach, Node, Succ);
    }
  }
  // The transpose, in RPO: reachedBy(n) = union over intra-iteration
  // predecessors p of {p} + reachedBy(p). Exit is nobody's
  // intra-iteration predecessor.
  for (unsigned Node : RPO)
    for (unsigned Pred : Nodes[Node].Preds) {
      if (Pred == Exit)
        continue;
      setBit(ReachedBy, Node, Pred);
      orRow(ReachedBy, Node, Pred);
    }
}

void LoopFlowGraph::numberStatements() {
  unsigned Number = 1;
  for (unsigned Id : RPO) {
    FlowNode &Node = Nodes[Id];
    if (Node.Kind == FlowNodeKind::Guard)
      continue;
    Node.StmtNumber = Number++;
  }
}

unsigned LoopFlowGraph::findNode(const Stmt &S) const {
  for (unsigned I = 0, E = Nodes.size(); I != E; ++I)
    if (Nodes[I].S == &S)
      return I;
  return Nodes.size();
}

int64_t LoopFlowGraph::getTripCount() const {
  return Loop->getConstantTripCount();
}

std::string LoopFlowGraph::nodeLabel(unsigned Id) const {
  const FlowNode &Node = Nodes[Id];
  std::ostringstream OS;
  if (Node.StmtNumber)
    OS << Node.StmtNumber << ": ";
  switch (Node.Kind) {
  case FlowNodeKind::Statement: {
    const auto *AS = cast<AssignStmt>(Node.S);
    OS << exprToString(*AS->getLHS()) << " = " << exprToString(*AS->getRHS());
    break;
  }
  case FlowNodeKind::Guard:
    OS << "if " << exprToString(*cast<IfStmt>(Node.S)->getCond());
    break;
  case FlowNodeKind::Summary:
    OS << "do " << cast<DoLoopStmt>(Node.S)->getIndVar() << " (summary)";
    break;
  case FlowNodeKind::Exit:
    OS << getIndVar() << " = " << getIndVar() << " + 1";
    break;
  }
  return OS.str();
}

void LoopFlowGraph::printDot(std::ostream &OS) const {
  OS << "digraph loop {\n  node [shape=box];\n";
  for (unsigned I = 0, E = Nodes.size(); I != E; ++I) {
    OS << "  n" << I << " [label=\"" << nodeLabel(I) << "\"];\n";
    for (unsigned S : Nodes[I].Succs)
      OS << "  n" << I << " -> n" << S << (I == Exit ? " [style=dashed]" : "")
         << ";\n";
  }
  OS << "}\n";
}
