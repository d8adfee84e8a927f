//===- serve/LintCache.h - Per-loop incremental lint ---------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-loop layer of the daemon's lint. A loop's diagnostics depend
/// only on that loop, the array declarations and the headers of its
/// enclosing loops (the hierarchical process of Section 3.6), so a lint
/// of an edited document re-lints only the loops that changed and takes
/// every other loop's output from this cache.
///
/// The cache holds one lint result object per document (shared with the
/// response memo, never copied) plus a small index into it: for each
/// cached loop the escaped JSON-line fragment and the sort key of each
/// of its diagnostics. A new result is assembled by a stable k-way merge
/// of the cached fragments with the freshly rendered ones, in exactly
/// the order sortDiagnostics gives, so the "render" member is
/// byte-identical to lintSource + renderJsonLines of the same text.
/// Cached fragments are copied as bytes: never re-rendered, re-sorted
/// or re-escaped.
///
/// A loop's output is reused only when all of these hold:
///
///  * matchLoops pairs it with a cached loop (same depth, structurally
///    equal source and analyzed form) and the array declarations are
///    unchanged;
///  * every enclosing level has the same induction variable, trip count
///    and support (the level sessions read them);
///  * the lint key -- file, engine, cross-check, nested and the clamped
///    budget -- is the one the cache was filled under;
///  * every source position of the analyzed form moved by the same
///    number of whole lines and no column moved. Shifted loops are
///    re-based: the line numbers of their fragments are rewritten.
///
/// Never cached: loops whose lint degraded (a deadline makes them
/// timing-dependent) and anything of an explain request. The engine
/// cross-check runs on every re-linted loop, and a cached loop's output
/// came from a run under the same key, so no check is skipped.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SERVE_LINTCACHE_H
#define ARDF_SERVE_LINTCACHE_H

#include "analysis/LoopNest.h"
#include "lint/LintEngine.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ardf {
namespace serve {

/// One document's lint cache. Not thread-safe: the owning Document's
/// mutex serializes every call.
class LintCache {
public:
  /// Lints \p Prog (whose nesting tree is \p Nest) under \p Opts and
  /// returns the lint result object: "render" (the JSON lines), the
  /// severity counts, and "reused"/"relinted", the loops taken from the
  /// cache and the loops linted afresh. \p Key folds the file and every
  /// option besides Explain. A lint request (\p Opts.Explain false)
  /// reuses what matches and makes the result the cache's new body; an
  /// explain request lints every loop and leaves the cache as it was.
  std::shared_ptr<const std::string>
  lint(std::shared_ptr<const Program> Prog,
       std::shared_ptr<const LoopNestTree> Nest, const std::string &File,
       const LintOptions &Opts, uint64_t Key);

  /// The result object of a lint that produced \p R without a program
  /// (a parse failure): no loop is reused or re-linted.
  static std::string resultOf(const LintResult &R);

private:
  struct CachedDiag {
    uint32_t Begin = 0; ///< offset of the escaped JSON line in *Body
    uint32_t Size = 0;
    unsigned Line = 0;
    unsigned Col = 0;
    uint8_t Check = 0; ///< index into allChecks()
    DiagSeverity Severity = DiagSeverity::Warning;
  };

  std::string_view bytesOf(const CachedDiag &D) const {
    return std::string_view(*Body).substr(D.Begin, D.Size);
  }

  struct CachedLoop {
    const NestLoop *Node = nullptr; ///< in *Nest
    uint32_t FirstDiag = 0;         ///< into Diags, in sorted order
    uint32_t NumDiags = 0;
    unsigned Divergences = 0;
  };

  /// The program and nesting tree the cached loops point into (the
  /// driver's, when the daemon analyzed the same text: never a copy).
  std::shared_ptr<const Program> Prog;
  std::shared_ptr<const LoopNestTree> Nest;
  uint64_t Key = 0;

  /// The current lint result object, which the fragments sit in.
  std::shared_ptr<const std::string> Body;
  std::vector<CachedLoop> Loops;
  std::vector<CachedDiag> Diags;
};

} // namespace serve
} // namespace ardf

#endif // ARDF_SERVE_LINTCACHE_H
