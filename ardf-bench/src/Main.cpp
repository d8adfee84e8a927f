//===- ardf-bench/src/Main.cpp - ardf-bench entry point -------------------===//
//
// Usage:
//   ardf-bench --workload lint-cold|serve-edit|serve-deadline --seed N
//              --seconds S --trace 0|1 [--root DIR] [--spans-out FILE]
//   ardf-bench --record-digests FILE
//
// Prints a human-readable report, a "report {...}" JSON line with the
// host fingerprint and every per-class latency, and as its last line
// the result object {"correct","attempted","failed","metrics"}.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "dataflow/VectorOps.h"
#include "support/BuildInfo.h"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace ardfbench;

namespace {

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  unsigned Max = __get_cpuid_max(0x80000000, nullptr);
  if (Max >= 0x80000004) {
    for (unsigned I = 0; I != 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string S(Brand);
    size_t B = S.find_first_not_of(' '), E = S.find_last_not_of(' ');
    return B == std::string::npos ? "unknown" : S.substr(B, E - B + 1);
  }
#endif
  return "unknown";
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string S = "{";
  for (size_t I = 0; I != Ms.size(); ++I)
    S += (I ? ", " : "") + jsonQuote(Ms[I].Name) + ": {\"value\": " +
         num(Ms[I].Value) + ", \"unit\": " + jsonQuote(Ms[I].Unit) + "}";
  return S + "}";
}

int usage() {
  std::cerr << "usage: ardf-bench --workload lint-cold|serve-edit|"
               "serve-deadline --seed N --seconds S --trace 0|1 [--root DIR]"
               " [--spans-out FILE]\n"
               "       ardf-bench --record-digests FILE\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions O;
  std::string Record;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string V = Argv[++I];
    try {
      if (A == "--workload")
        O.Workload = V;
      else if (A == "--seed")
        O.Seed = std::stoull(V);
      else if (A == "--seconds")
        O.Seconds = std::stod(V);
      else if (A == "--trace")
        O.Trace = V != "0";
      else if (A == "--root")
        O.Root = V;
      else if (A == "--spans-out")
        O.SpansOut = V;
      else if (A == "--record-digests")
        Record = V;
      else
        return usage();
    } catch (const std::exception &) {
      return usage();
    }
  }
  O.Digests = O.Root + "/ardf-bench/digests/lint-cold.txt";

  // Numbers from an unoptimized or assertion-enabled library are not
  // benchmark results.
  if (std::string(ardf::libraryBuildType()) != "release") {
    std::cerr << "ardf-bench: refusing to measure a '"
              << ardf::libraryBuildType() << "' libardf; build it Release\n";
    return 3;
  }
  if (!Record.empty()) {
    O.Digests = Record;
    return recordLintDigests(O);
  }
  if (O.Seconds <= 0)
    return usage();

  std::string Fingerprint =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu\": " + jsonQuote(cpuModel()) +
      ", \"isa\": " + jsonQuote(ardf::simd::isaName(ardf::simd::activeIsa())) +
      ", \"build\": " + jsonQuote(ardf::libraryBuildType()) + "}";

  RunResult R;
  int RC;
  if (O.Workload == "lint-cold")
    RC = runLintCold(O, R);
  else if (O.Workload == "serve-edit" || O.Workload == "serve-deadline")
    RC = runServe(O, R);
  else
    return usage();
  if (RC != 0)
    return RC;

  double Share = R.Attempted ? static_cast<double>(R.Failed) /
                                   static_cast<double>(R.Attempted)
                             : 0;
  R.report("fail_share", Share, "ratio");

  std::cout << "ardf-bench workload=" << O.Workload << " seed=" << O.Seed
            << " seconds=" << O.Seconds << " trace=" << O.Trace << "\n";
  std::cout << "fingerprint " << Fingerprint << "\n";
  for (const Metric &M : R.Report)
    std::printf("  %-34s %14.4f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const auto &[Class, N] : R.Samples)
    std::printf("  samples %-26s %14llu\n", Class.c_str(),
                static_cast<unsigned long long>(N));
  for (const Metric &M : R.Metrics)
    std::printf("  %-34s %14.4f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const std::string &N : R.FailureNotes)
    std::cout << "  failed op: " << N << "\n";
  for (size_t I = 0; I != R.CheckFailures.size() && I != 8; ++I)
    std::cout << "  failed check: " << R.CheckFailures[I] << "\n";

  std::string Samples = "{";
  for (size_t I = 0; I != R.Samples.size(); ++I)
    Samples += (I ? ", " : "") + jsonQuote(R.Samples[I].first) + ": " +
               std::to_string(R.Samples[I].second);
  Samples += "}";
  std::cout << "report {\"workload\": " << jsonQuote(O.Workload)
            << ", \"seed\": " << O.Seed << ", \"trace\": " << O.Trace
            << ", \"fingerprint\": " << Fingerprint
            << ", \"report\": " << metricsJson(R.Report)
            << ", \"samples\": " << Samples << "}\n";
  std::cout << "{\"correct\": " << (R.correct() ? "true" : "false")
            << ", \"attempted\": " << R.Attempted
            << ", \"failed\": " << R.Failed
            << ", \"metrics\": " << metricsJson(R.Metrics) << "}"
            << std::endl;
  return 0;
}
