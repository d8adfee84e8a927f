//===- analysis/Dependence.cpp - Dependence detection --------------------===//

#include "analysis/Dependence.h"

#include "analysis/ClassPairTable.h"

#include "ir/PrettyPrinter.h"

#include <algorithm>
#include <ostream>

using namespace ardf;

const char *ardf::depKindName(DepKind K) {
  switch (K) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  case DepKind::Input:
    return "input";
  }
  return "?";
}

bool DependenceInfo::hasCarriedDistance(int64_t Distance) const {
  return std::any_of(Deps.begin(), Deps.end(), [&](const Dependence &D) {
    return D.Distance == Distance;
  });
}

std::vector<Dependence> DependenceInfo::distanceOne() const {
  std::vector<Dependence> Result;
  for (const Dependence &D : Deps)
    if (D.Distance == 1)
      Result.push_back(D);
  return Result;
}

std::optional<int64_t> ardf::minOverlapDistance(const AffineAccess &From,
                                                const AffineAccess &To,
                                                int64_t Pr, int64_t Trip) {
  Poly Da = From.A - To.A;
  Poly Db = From.B - To.B;

  if (From.A.isZero()) {
    // Invariant source: every instance names the same cell; any overlap
    // holds at every distance, so the minimum is Pr.
    if (To.A.isZero()) {
      if (Db.isZero())
        return Pr;
      if (Db.isConstant())
        return std::nullopt;
      return Pr; // symbolic: conservative
    }
    if (Db.isConstant() && To.A.isConstant()) {
      Rational Hit(Db.getConstant(), To.A.getConstant());
      if (!Hit.isInteger())
        return std::nullopt;
      int64_t I = Hit.asInteger();
      if (I < 1 || (Trip != UnknownTripCount && I > Trip))
        return std::nullopt;
      return Pr;
    }
    return Pr; // symbolic: conservative
  }

  if (Da.isZero()) {
    // delta(i) == Db / A1 constant.
    std::optional<Rational> C = Db.isZero()
                                    ? std::optional<Rational>(Rational(0))
                                    : Db.ratioTo(From.A);
    if (!C)
      return Pr; // symbolic: conservative
    if (!C->isInteger())
      return std::nullopt;
    int64_t D = C->asInteger();
    return D >= Pr ? std::optional<int64_t>(D) : std::nullopt;
  }

  if (!Da.isConstant() || !Db.isConstant() || !From.A.isConstant())
    return Pr; // symbolic: conservative

  // delta(i) = (da*i + db) / a1, monotone linear; find the minimum value
  // >= Pr over integer i in [1, Trip].
  int64_t DaC = Da.getConstant(), DbC = Db.getConstant(),
          A1 = From.A.getConstant();
  auto DeltaAt = [&](int64_t I) { return Rational(DaC * I + DbC, A1); };
  Rational XStar(Pr * A1 - DbC, DaC); // delta(x*) == Pr
  bool SlopePositive = (DaC > 0) == (A1 > 0);
  Rational M;
  if (SlopePositive) {
    int64_t I0 = XStar.isInteger() ? XStar.asInteger() : XStar.floor() + 1;
    if (I0 < 1)
      I0 = 1;
    if (Trip != UnknownTripCount && I0 > Trip)
      return std::nullopt;
    M = DeltaAt(I0);
  } else {
    int64_t ILast = XStar.isInteger() ? XStar.asInteger() : XStar.ceil() - 1;
    if (Trip != UnknownTripCount && ILast > Trip)
      ILast = Trip;
    if (ILast < 1)
      return std::nullopt;
    M = DeltaAt(ILast);
  }
  if (M < Rational(Pr))
    return std::nullopt;
  return M.ceil();
}

namespace {

DepKind kindOf(bool FromIsDef, bool ToIsDef) {
  if (FromIsDef)
    return ToIsDef ? DepKind::Output : DepKind::Flow;
  return ToIsDef ? DepKind::Anti : DepKind::Input;
}

} // namespace

DependenceInfo ardf::extractDependences(const LoopDataFlow &DF,
                                        bool IncludeInput) {
  DependenceInfo Info;
  const FrameworkInstance &FW = DF.framework();
  const ReferenceUniverse &U = DF.universe();
  int64_t Trip = DF.graph().getTripCount();

  // The overlap distance depends only on the (from, to) access classes
  // and pr, one table variant per pr value.
  ClassPairTable Distances(FW, /*Variants=*/2);

  for (const RefOccurrence &To : U.occurrences()) {
    if (!To.isTrackable())
      continue;
    unsigned ToClass = U.accessClass(To.Id);
    // Only same-array references overlap; the bucket is ascending, so
    // dependences come out in the same order as a scan of every element.
    for (unsigned Idx : FW.trackedOfArray(U.arrayId(To.Id))) {
      const RefOccurrence &From = FW.getTracked(Idx);
      if (From.Id == To.Id)
        continue;
      DepKind Kind = kindOf(From.IsDef, To.IsDef);
      if (Kind == DepKind::Input && !IncludeInput)
        continue;
      int64_t Pr = FW.pr(Idx, To.Node);
      std::optional<int64_t> D = Distances.get(Idx, Pr, ToClass, [&] {
        return minOverlapDistance(*From.Affine, *To.Affine, Pr, Trip);
      });
      if (!D)
        continue;
      if (!DF.valueAt(To.Node, Idx).covers(*D))
        continue;
      Info.Deps.push_back(Dependence{From.Id, To.Id, Kind, *D});
    }
  }
  return Info;
}

DependenceInfo ardf::computeDependences(const Program &P,
                                        const DoLoopStmt &Loop,
                                        bool IncludeInput) {
  LoopDataFlow DF(P, Loop, ProblemSpec::reachingReferences());
  return extractDependences(DF, IncludeInput);
}

void ardf::printDependences(std::ostream &OS, const DependenceInfo &Info,
                            const LoopDataFlow &DF) {
  const ReferenceUniverse &U = DF.universe();
  for (const Dependence &D : Info.Deps) {
    OS << depKindName(D.Kind) << ' '
       << exprToString(*U.occurrence(D.FromId).Ref) << " -> "
       << exprToString(*U.occurrence(D.ToId).Ref) << " distance "
       << D.Distance << (D.isLoopCarried() ? " (carried)" : " (independent)")
       << '\n';
  }
}
