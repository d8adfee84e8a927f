//===- ardf-bench/src/Corpus.cpp - Seeded benchmark inputs ----------------===//

#include "Corpus.h"

#include <cstdio>

using namespace ardfbench;

std::string SynthProgram::text() const {
  std::string T;
  for (const std::vector<std::string> &L : Loops) {
    T += "do i = 1, 1000 {\n";
    for (const std::string &S : L) {
      T += S;
      T += '\n';
    }
    T += "}\n";
  }
  return T;
}

namespace {

std::string arrayRef(Rng &R) {
  std::string S(1, static_cast<char>('A' + R.range(0, 3)));
  S += "[i";
  int64_t Off = R.range(-3, 3);
  if (Off > 0)
    S += " + " + std::to_string(Off);
  else if (Off < 0)
    S += " - " + std::to_string(-Off);
  return S + "]";
}

} // namespace

std::string ardfbench::synthStatement(Rng &R) {
  std::string S = "  ";
  bool Guarded = R.chance(20);
  if (Guarded)
    S += "if (" + arrayRef(R) + " > " + std::to_string(R.range(-50, 50)) +
         ") { ";
  S += arrayRef(R) + " = " + arrayRef(R) + (R.chance(50) ? " + " : " * ") +
       arrayRef(R) + ";";
  if (Guarded)
    S += " }";
  return S;
}

SynthProgram ardfbench::synthProgram(Rng &R,
                                     const std::vector<unsigned> &LoopSizes) {
  SynthProgram P;
  for (unsigned N : LoopSizes) {
    P.Loops.emplace_back();
    for (unsigned I = 0; I != N; ++I)
      P.Loops.back().push_back(synthStatement(R));
  }
  return P;
}

void ardfbench::editOneLoop(SynthProgram &P, Rng &R) {
  std::vector<std::string> &L =
      P.Loops[static_cast<size_t>(R.range(0, P.Loops.size() - 1))];
  std::string &S = L[static_cast<size_t>(R.range(0, L.size() - 1))];
  std::string Old = S;
  while (S == Old)
    S = synthStatement(R);
}

SynthProgram ardfbench::lintPoolProgram(unsigned Slot, unsigned Variant) {
  // Sizes depend on the slot only; the variant changes the statements.
  std::vector<unsigned> Sizes;
  if (Slot < 14) {
    for (unsigned L = 0; L != 1 + Slot % 4; ++L)
      Sizes.push_back(16 + (Slot * 7 + L * 11) % 49);
  } else if (Slot < 16) {
    Sizes.push_back(144);
    if (Slot == 15)
      Sizes.push_back(24);
  } else {
    static const unsigned Heavy[] = {320, 336, 352, 496};
    Sizes.push_back(Heavy[Slot - 16]);
    if (Slot % 2)
      Sizes.push_back(24);
  }
  Rng R(mixSeed(0x11a7c01d, Slot * 1000 + Variant));
  return synthProgram(R, Sizes);
}

std::string ardfbench::lintPoolFile(unsigned Slot, unsigned Variant) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "s%02uv%u.arf", Slot, Variant);
  return Buf;
}

const char *ardfbench::lintSlotStratum(unsigned Slot) {
  return Slot < 14 ? "small" : Slot < 16 ? "medium" : "large";
}

const std::vector<int> &ardfbench::lintBlockOrder() {
  static const std::vector<int> Order = {
      -1, 0,  1, 16, 2,  3, 14, -2, 4,  5,  17, 6, -3,
      7,  8, 18, 9,  15, -4, 10, 11, 19, 12, -5, 13};
  return Order;
}

const std::vector<std::string> &ardfbench::exampleNames() {
  static const std::vector<std::string> Names = {"fig1", "fig4", "fig5",
                                                 "nested", "stencil"};
  return Names;
}

SynthProgram ardfbench::serveDocument(Rng &R, unsigned Slot) {
  std::vector<unsigned> Sizes(8 + (Slot * 5) % 9);
  for (unsigned L = 0; L != Sizes.size(); ++L)
    Sizes[L] = 12 + (Slot * 13 + L * 29) % 53;
  return synthProgram(R, Sizes);
}

SynthProgram ardfbench::heavyProgram(Rng &R, unsigned Stratum) {
  static const unsigned Sizes[HeavyStrata] = {256, 320, 384, 448, 511};
  return synthProgram(R, {Sizes[Stratum]});
}
