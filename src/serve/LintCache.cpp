//===- serve/LintCache.cpp - Per-loop incremental lint -------------------===//

#include "serve/LintCache.h"

#include "lint/Checks.h"
#include "lint/Render.h"
#include "support/Json.h"

#include <functional>
#include <limits>
#include <queue>
#include <sstream>
#include <string_view>

using namespace ardf;
using namespace ardf::serve;

namespace {

/// One diagnostic as the merge sees it: its sort key and its JSON line
/// as escaped inside the result object.
struct Entry {
  unsigned Line = 0;
  unsigned Col = 0;
  std::string_view Check;
  DiagSeverity Severity = DiagSeverity::Warning;
  std::string_view Bytes;
  /// The diagnostic itself for freshly linted ones; null for cached
  /// ones, which read their message back from Bytes.
  const Diagnostic *Diag = nullptr;
};

/// One sorted run of entries: the precondition diagnostics, or the
/// diagnostics of one loop.
struct Run {
  size_t Begin = 0;
  size_t End = 0;
};

/// The message of a cached entry: unescape the bytes to the JSON line,
/// then read its "message" member. Only needed when two runs tie on
/// line, column and check.
std::string messageOf(std::string_view Bytes) {
  std::string Literal;
  Literal.reserve(Bytes.size() + 2);
  Literal += '"';
  Literal += Bytes;
  Literal += '"';
  json::ParseOutcome Line = json::parse(Literal);
  if (!Line.Ok || !Line.V.isString())
    return std::string();
  json::ParseOutcome Obj = json::parse(Line.V.stringValue());
  const json::Value *M = Obj.Ok ? Obj.V.find("message") : nullptr;
  return M && M->isString() ? M->stringValue() : std::string();
}

/// sortDiagnostics' order (every diagnostic of one lint has the same
/// file): line, column, check id, message.
bool keyLess(const Entry &A, const Entry &B) {
  if (A.Line != B.Line)
    return A.Line < B.Line;
  if (A.Col != B.Col)
    return A.Col < B.Col;
  if (int C = A.Check.compare(B.Check))
    return C < 0;
  std::string MA = A.Diag ? std::string() : messageOf(A.Bytes);
  std::string MB = B.Diag ? std::string() : messageOf(B.Bytes);
  return (A.Diag ? A.Diag->Message : MA) < (B.Diag ? B.Diag->Message : MB);
}

struct Counts {
  unsigned Reused = 0;
  unsigned Relinted = 0;
  unsigned Loops = 0;
  unsigned Divergences = 0;
};

void appendMember(std::string &Out, const char *Key, uint64_t V) {
  Out += Key;
  Out += std::to_string(V);
}

/// Writes the lint result object: the members in json::Object's key
/// order, "render" being the runs merged stably -- on a tie the earlier
/// run first, which is what sortDiagnostics' stable sort of their
/// concatenation gives. \p Placed(Run, K, Offset) reports where the K-th
/// entry of a run landed in the result.
std::string
writeResult(const std::vector<Entry> &Entries, const std::vector<Run> &Runs,
            const Counts &C,
            const std::function<void(size_t, size_t, size_t)> &Placed) {
  unsigned Errors = 0, Warnings = 0, Notes = 0, Degraded = 0;
  size_t Bytes = 0;
  for (const Entry &E : Entries) {
    Errors += E.Severity == DiagSeverity::Error;
    Warnings += E.Severity == DiagSeverity::Warning;
    Notes += E.Severity == DiagSeverity::Note;
    Degraded += E.Check == checkid::AnalysisDegraded;
    Bytes += E.Bytes.size();
  }
  std::string Out;
  Out.reserve(Bytes + 256);
  appendMember(Out, "{\"degraded\":", Degraded);
  appendMember(Out, ",\"diagnostics\":", Entries.size());
  appendMember(Out, ",\"divergences\":", C.Divergences);
  appendMember(Out, ",\"errors\":", Errors);
  appendMember(Out, ",\"exit\":", Errors ? 1 : 0);
  appendMember(Out, ",\"loops\":", C.Loops);
  appendMember(Out, ",\"notes\":", Notes);
  appendMember(Out, ",\"relinted\":", C.Relinted);
  Out += ",\"render\":\"";

  std::vector<size_t> Pos(Runs.size());
  auto After = [&](size_t A, size_t B) {
    const Entry &X = Entries[Pos[A]], &Y = Entries[Pos[B]];
    if (keyLess(Y, X))
      return true;
    return !keyLess(X, Y) && B < A;
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(After)> Heads(
      After);
  for (size_t R = 0; R != Runs.size(); ++R) {
    Pos[R] = Runs[R].Begin;
    if (Pos[R] != Runs[R].End)
      Heads.push(R);
  }
  while (!Heads.empty()) {
    size_t R = Heads.top();
    Heads.pop();
    const Entry &E = Entries[Pos[R]];
    if (Placed)
      Placed(R, Pos[R] - Runs[R].Begin, Out.size());
    Out += E.Bytes;
    if (++Pos[R] != Runs[R].End)
      Heads.push(R);
  }

  Out += '"';
  appendMember(Out, ",\"reused\":", C.Reused);
  appendMember(Out, ",\"warnings\":", Warnings);
  Out += '}';
  return Out;
}

/// The JSON lines of freshly linted diagnostics, escaped for the result
/// object into one buffer.
class Rendered {
public:
  explicit Rendered(const std::vector<Diagnostic> &Diags) : Diags(Diags) {
    std::ostringstream Line;
    for (const Diagnostic &D : Diags) {
      Line.str(std::string());
      renderJsonLine(Line, D);
      json::appendEscaped(Bytes, Line.view());
      Ends.push_back(Bytes.size());
    }
  }

  Entry entry(size_t I) const {
    const Diagnostic &D = Diags[I];
    size_t Begin = I ? Ends[I - 1] : 0;
    return {D.Loc.Line, D.Loc.Col, D.CheckId, D.Severity,
            std::string_view(Bytes).substr(Begin, Ends[I] - Begin), &D};
  }

private:
  const std::vector<Diagnostic> &Diags;
  std::string Bytes;
  std::vector<size_t> Ends;
};

/// Appends a cached fragment to \p Out with every "line" member moved by
/// \p Delta (0 stays 0: no position). In the result object those keys
/// read \"line\": -- a string value never holds that sequence, because
/// the quotes inside it are escaped twice there.
void appendRebased(std::string &Out, std::string_view Bytes, long Delta) {
  static constexpr std::string_view Tag = "\\\"line\\\":";
  size_t Pos = 0;
  for (size_t At; (At = Bytes.find(Tag, Pos)) != std::string_view::npos;) {
    At += Tag.size();
    Out.append(Bytes.substr(Pos, At - Pos));
    long Line = 0;
    for (Pos = At; Pos < Bytes.size() && Bytes[Pos] >= '0' && Bytes[Pos] <= '9';
         ++Pos)
      Line = Line * 10 + (Bytes[Pos] - '0');
    Out += std::to_string(Line == 0 ? 0 : Line + Delta);
  }
  Out.append(Bytes.substr(Pos));
}

void collectLocs(const Expr &E, std::vector<SourceLoc> &Out) {
  Out.push_back(E.getLoc());
  if (const auto *A = dyn_cast<ArrayRefExpr>(&E)) {
    for (unsigned I = 0; I != A->getNumSubscripts(); ++I)
      collectLocs(*A->getSubscript(I), Out);
  } else if (const auto *B = dyn_cast<BinaryExpr>(&E)) {
    collectLocs(*B->getLHS(), Out);
    collectLocs(*B->getRHS(), Out);
  } else if (const auto *U = dyn_cast<UnaryExpr>(&E)) {
    collectLocs(*U->getOperand(), Out);
  }
}

void collectLocs(const StmtList &Stmts, std::vector<SourceLoc> &Out);

void collectLocs(const Stmt &S, std::vector<SourceLoc> &Out) {
  Out.push_back(S.getLoc());
  if (const auto *A = dyn_cast<AssignStmt>(&S)) {
    collectLocs(*A->getLHS(), Out);
    collectLocs(*A->getRHS(), Out);
  } else if (const auto *I = dyn_cast<IfStmt>(&S)) {
    collectLocs(*I->getCond(), Out);
    collectLocs(I->getThen(), Out);
    collectLocs(I->getElse(), Out);
  } else if (const auto *D = dyn_cast<DoLoopStmt>(&S)) {
    collectLocs(*D->getLower(), Out);
    collectLocs(*D->getUpper(), Out);
    collectLocs(D->getBody(), Out);
  } else if (const auto *W = dyn_cast<WhileStmt>(&S)) {
    collectLocs(*W->getCond(), Out);
    collectLocs(W->getBody(), Out);
  }
}

void collectLocs(const StmtList &Stmts, std::vector<SourceLoc> &Out) {
  for (const StmtPtr &S : Stmts)
    collectLocs(*S, Out);
}

/// True when every position of \p New is the matching position of the
/// structurally equal \p Old moved by the same whole number of lines,
/// columns unchanged; sets \p Delta to that number.
bool shiftedByLines(const DoLoopStmt &Old, const DoLoopStmt &New,
                    long &Delta) {
  std::vector<SourceLoc> A, B;
  collectLocs(Old, A);
  collectLocs(New, B);
  if (A.size() != B.size())
    return false;
  auto Line = [](SourceLoc L) { return static_cast<long>(L.Line); };
  Delta = Line(B.front()) - Line(A.front());
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].isValid() != B[I].isValid() || A[I].Col != B[I].Col ||
        (A[I].isValid() && Line(B[I]) != Line(A[I]) + Delta))
      return false;
  return true;
}

/// The enclosing levels the loops' level sessions read: induction
/// variable, trip count and support, level by level.
bool sameLevels(const NestLoop &A, const NestLoop &B) {
  const NestLoop *X = A.Parent, *Y = B.Parent;
  for (; X && Y; X = X->Parent, Y = Y->Parent) {
    if (X->isSupported() != Y->isSupported())
      return false;
    if (X->isSupported() &&
        (X->iv() != Y->iv() || X->tripCount() != Y->tripCount()))
      return false;
  }
  return !X && !Y;
}

/// Index of \p Id in allChecks(), or -1.
int checkIndex(std::string_view Id) {
  const std::vector<CheckInfo> &Checks = allChecks();
  for (size_t I = 0; I != Checks.size(); ++I)
    if (Id == Checks[I].Id)
      return static_cast<int>(I);
  return -1;
}

} // namespace

std::shared_ptr<const std::string>
LintCache::lint(std::shared_ptr<const Program> NewProg,
                std::shared_ptr<const LoopNestTree> NewNest,
                const std::string &File, const LintOptions &Opts,
                uint64_t NewKey) {
  const bool Remember = !Opts.Explain;
  const bool Reuse =
      Remember && Body && Key == NewKey && sameArrayDecls(*Prog, *NewProg);

  // What each run of the result comes from. Fresh runs index Fresh;
  // cached runs index Diags through Loops[Cached].
  struct Part {
    const NestLoop *Node = nullptr; ///< null for the precondition run
    size_t Cached = NoMatch;
    long Delta = 0;
    size_t Begin = 0, End = 0;      ///< into Fresh, for fresh runs
    bool Cacheable = false;
    unsigned Divergences = 0;
  };
  std::vector<Part> Parts;
  std::vector<Diagnostic> Fresh;
  std::vector<const NestLoop *> Linted =
      lintPreconditions(*NewProg, *NewNest, File, Opts, Fresh);
  sortDiagnostics(Fresh);
  Parts.push_back({nullptr, NoMatch, 0, 0, Fresh.size(), false, 0});

  std::vector<size_t> Match(Linted.size(), NoMatch);
  if (Reuse) {
    std::vector<LoopShape> Old, New;
    for (const CachedLoop &L : Loops)
      Old.push_back({L.Node->Source, L.Node->Analyzed, L.Node->Depth});
    for (const NestLoop *N : Linted)
      New.push_back({N->Source, N->Analyzed, N->Depth});
    Match = matchLoops(Old, New, [&](size_t I, size_t J) {
      return sameLevels(*Loops[I].Node, *Linted[J]);
    });
  }

  Counts C;
  std::vector<Diagnostic> LoopDiags;
  for (size_t J = 0; J != Linted.size(); ++J) {
    const NestLoop &N = *Linted[J];
    Part S;
    S.Node = &N;
    if (Match[J] != NoMatch &&
        shiftedByLines(*Loops[Match[J]].Node->Analyzed, *N.Analyzed,
                       S.Delta)) {
      S.Cached = Match[J];
      S.Cacheable = true;
      S.Divergences = Loops[Match[J]].Divergences;
      ++C.Reused;
      ++C.Loops;
    } else {
      LoopDiags.clear();
      LoopLintOutcome O = lintLoop(*NewProg, N, File, Opts, LoopDiags);
      sortDiagnostics(LoopDiags);
      S.Cacheable = Remember && O.Analyzed && !O.Degraded;
      S.Begin = Fresh.size();
      for (Diagnostic &D : LoopDiags) {
        S.Cacheable &= checkIndex(D.CheckId) >= 0;
        Fresh.push_back(std::move(D));
      }
      S.End = Fresh.size();
      S.Divergences = O.EngineDivergences;
      C.Relinted += O.Analyzed;
      C.Loops += O.Analyzed;
    }
    C.Divergences += S.Divergences;
    Parts.push_back(S);
  }

  // Escape the fresh diagnostics and re-base the shifted cached ones
  // into side buffers; views are taken once both stop growing.
  Rendered FreshText(Fresh);
  std::string Rebased;
  std::vector<std::pair<size_t, size_t>> RebasedSpan(Diags.size());
  for (const Part &P : Parts) {
    if (P.Cached == NoMatch || P.Delta == 0)
      continue;
    const CachedLoop &L = Loops[P.Cached];
    for (uint32_t I = L.FirstDiag; I != L.FirstDiag + L.NumDiags; ++I) {
      size_t At = Rebased.size();
      appendRebased(Rebased, bytesOf(Diags[I]), P.Delta);
      RebasedSpan[I] = {At, Rebased.size() - At};
    }
  }

  std::vector<Entry> Entries;
  std::vector<Run> Runs;
  for (const Part &P : Parts) {
    Run R;
    R.Begin = Entries.size();
    if (P.Cached == NoMatch) {
      for (size_t I = P.Begin; I != P.End; ++I)
        Entries.push_back(FreshText.entry(I));
    } else {
      const CachedLoop &L = Loops[P.Cached];
      for (uint32_t I = L.FirstDiag; I != L.FirstDiag + L.NumDiags; ++I) {
        const CachedDiag &D = Diags[I];
        std::string_view Bytes =
            P.Delta == 0 ? bytesOf(D)
                         : std::string_view(Rebased).substr(
                               RebasedSpan[I].first, RebasedSpan[I].second);
        unsigned Line = D.Line ? static_cast<unsigned>(D.Line + P.Delta) : 0;
        Entries.push_back({Line, D.Col, allChecks()[D.Check].Id, D.Severity,
                           Bytes, nullptr});
      }
    }
    R.End = Entries.size();
    Runs.push_back(R);
  }

  // The new index: one record per cacheable run, its diagnostics laid
  // out in run order and filled in as the merge places them.
  std::vector<CachedLoop> NewLoops;
  std::vector<CachedDiag> NewDiags;
  std::vector<size_t> RecordOf(Runs.size(), NoMatch);
  for (size_t R = 0; R != Runs.size(); ++R) {
    if (!Remember || !Parts[R].Cacheable)
      continue;
    RecordOf[R] = NewLoops.size();
    CachedLoop L;
    L.Node = Parts[R].Node;
    L.FirstDiag = static_cast<uint32_t>(NewDiags.size());
    L.NumDiags = static_cast<uint32_t>(Runs[R].End - Runs[R].Begin);
    L.Divergences = Parts[R].Divergences;
    NewLoops.push_back(L);
    NewDiags.resize(NewDiags.size() + L.NumDiags);
  }
  auto Out = std::make_shared<std::string>(writeResult(
      Entries, Runs, C, [&](size_t R, size_t K, size_t Offset) {
        if (RecordOf[R] == NoMatch)
          return;
        const Entry &E = Entries[Runs[R].Begin + K];
        CachedDiag &D = NewDiags[NewLoops[RecordOf[R]].FirstDiag + K];
        D.Begin = static_cast<uint32_t>(Offset);
        D.Size = static_cast<uint32_t>(E.Bytes.size());
        D.Line = E.Line;
        D.Col = E.Col;
        D.Check = static_cast<uint8_t>(checkIndex(E.Check));
        D.Severity = E.Severity;
      }));

  if (!Remember)
    return Out;
  // Offsets are 32-bit; a body past that keeps nothing (as does a lint
  // with nothing worth keeping, which then releases the program).
  if (NewLoops.empty() || Out->size() > std::numeric_limits<uint32_t>::max()) {
    *this = LintCache();
    return Out;
  }
  Prog = std::move(NewProg);
  Nest = std::move(NewNest);
  Key = NewKey;
  Body = Out;
  Loops = std::move(NewLoops);
  Diags = std::move(NewDiags);
  return Out;
}

std::string LintCache::resultOf(const LintResult &R) {
  Rendered Text(R.Diags);
  std::vector<Entry> Entries;
  for (size_t I = 0; I != R.Diags.size(); ++I)
    Entries.push_back(Text.entry(I));
  Counts C;
  C.Loops = R.LoopsAnalyzed;
  C.Divergences = R.EngineDivergences;
  return writeResult(Entries, {Run{0, Entries.size()}}, C, nullptr);
}
