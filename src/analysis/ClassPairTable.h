//===- analysis/ClassPairTable.h - Lazy per-class-pair distances -*- C++ -*-=//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reuse and dependence clients ask the same affine question for
/// every (sink occurrence, tracked reference) pair, but the answer
/// depends only on the two access classes: occurrences of one class
/// share an identical AffineAccess (ReferenceUniverse::accessClass). A
/// ClassPairTable memoizes one optional distance per (tracked class,
/// variant, class) cell and fills a cell on first use, so the
/// Poly/Rational arithmetic runs once per class pair while the per-pair
/// loops become table lookups.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_ANALYSIS_CLASSPAIRTABLE_H
#define ARDF_ANALYSIS_CLASSPAIRTABLE_H

#include "dataflow/Framework.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace ardf {

/// Lazily computed optional distances between the tracked elements of
/// one framework instance and every access class of its universe.
class ClassPairTable {
public:
  /// One row per distinct access class among \p FW's tracked
  /// representatives and per variant (e.g. \p Variants = 2 to key on
  /// pr as well); one column per access class.
  explicit ClassPairTable(const FrameworkInstance &FW, unsigned Variants = 1)
      : Cols(FW.getUniverse().numAccessClasses()),
        RowOf(FW.getNumTracked()) {
    const ReferenceUniverse &U = FW.getUniverse();
    std::vector<int> RowOfClass(Cols, -1);
    size_t Rows = 0;
    for (unsigned Idx = 0; Idx != FW.getNumTracked(); ++Idx) {
      int &Row = RowOfClass[U.accessClass(FW.getTracked(Idx).Id)];
      if (Row < 0) {
        Row = Rows;
        Rows += Variants;
      }
      RowOf[Idx] = Row;
    }
    State.assign(Rows * Cols, Unknown);
    Value.resize(Rows * Cols);
  }

  /// The cell of tracked element \p Idx, variant \p Variant, and access
  /// class \p Class, computed by \p Compute (returning
  /// std::optional<int64_t>) on first use.
  template <typename ComputeFn>
  std::optional<int64_t> get(unsigned Idx, unsigned Variant, unsigned Class,
                             ComputeFn Compute) {
    size_t Cell = (RowOf[Idx] + Variant) * Cols + Class;
    if (State[Cell] == Unknown) {
      std::optional<int64_t> V = Compute();
      State[Cell] = V ? Present : Absent;
      Value[Cell] = V.value_or(0);
    }
    if (State[Cell] == Absent)
      return std::nullopt;
    return Value[Cell];
  }

private:
  enum : uint8_t { Unknown, Absent, Present };
  size_t Cols;
  std::vector<size_t> RowOf;
  std::vector<uint8_t> State;
  std::vector<int64_t> Value;
};

} // namespace ardf

#endif // ARDF_ANALYSIS_CLASSPAIRTABLE_H
