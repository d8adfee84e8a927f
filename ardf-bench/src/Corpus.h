//===- ardf-bench/src/Corpus.h - Seeded benchmark inputs --------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program text every workload sends. Programs are sequences of
/// top-level DO loops over four one-dimensional arrays with affine
/// subscripts (offsets in [-3, 3]) and one statement in five guarded by
/// a conditional; a program is kept as loops of statement lines so a
/// one-loop edit replaces exactly one statement.
///
/// lint-cold draws from a fixed pool of (slot, variant) programs whose
/// rendered lint output digests are committed with the benchmark; the
/// seed picks the variant of every slot of every block. Sizes depend on
/// the slot alone, so every seed sees the same size mix:
///
///   slots  0-13  1-4 loops of 16-64 statements
///   slots 14-15  one loop of 144 (+ one of 24 on slot 15)
///   slots 16-19  one loop of 320/336/352/496 statements
///                (+ one of 24 on slots 17 and 19)
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_BENCH_CORPUS_H
#define ARDF_BENCH_CORPUS_H

#include "Bench.h"

#include <string>
#include <vector>

namespace ardfbench {

/// A program as loops of statement lines.
struct SynthProgram {
  std::vector<std::vector<std::string>> Loops;

  std::string text() const;
};

/// One loop body statement over arrays A-D.
std::string synthStatement(Rng &R);

/// A program with one loop per entry of \p LoopSizes.
SynthProgram synthProgram(Rng &R, const std::vector<unsigned> &LoopSizes);

/// Replaces one statement of one loop (a one-loop edit).
void editOneLoop(SynthProgram &P, Rng &R);

//===----------------------------------------------------------------------===//
// lint-cold
//===----------------------------------------------------------------------===//

constexpr unsigned LintSlots = 20;
constexpr unsigned LintVariants = 8;

/// The committed pool program of (\p Slot, \p Variant).
SynthProgram lintPoolProgram(unsigned Slot, unsigned Variant);

/// Artifact name of a pool program, e.g. "s07v3.arf".
std::string lintPoolFile(unsigned Slot, unsigned Variant);

/// Size stratum of a pool slot: "small" (slots 0-13), "medium" (14-15)
/// or "large" (16-19).
const char *lintSlotStratum(unsigned Slot);

/// One block of the lint-cold stream: a slot index, or -1-K for the
/// K-th bundled example. Sizes are interleaved so every prefix of a
/// block holds close to the block's size mix.
const std::vector<int> &lintBlockOrder();

/// The bundled example programs, in lintBlockOrder's -1-K order.
const std::vector<std::string> &exampleNames();

//===----------------------------------------------------------------------===//
// serve workloads
//===----------------------------------------------------------------------===//

/// Documents each serve client cycles through; more than the server's
/// per-tenant quota (8), so re-opens evict.
constexpr unsigned ServeDocs = 12;
/// Documents 0..HotDocs-1 are visited four times as often as the rest.
constexpr unsigned HotDocs = 6;

/// Document \p Slot of a client: 8-16 loops of 12-64 statements (sizes
/// fixed per slot, statements drawn from \p R).
SynthProgram serveDocument(Rng &R, unsigned Slot);

/// Heavy deadline-bound lints: one loop of 256, 320, 384, 448 or 511
/// statements per stratum.
constexpr unsigned HeavyStrata = 5;
SynthProgram heavyProgram(Rng &R, unsigned Stratum);

} // namespace ardfbench

#endif // ARDF_BENCH_CORPUS_H
