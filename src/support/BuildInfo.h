//===- support/BuildInfo.h - Library build-type introspection --*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reports how libardf itself was compiled. Benchmark binaries embed
/// this in their JSON context so committed snapshots prove they were
/// measured against an optimized library: Google Benchmark's own
/// "library_build_type" field describes how *libbenchmark* was built
/// (the distro package ships an assertion-enabled one, so that field
/// reads "debug" even in a Release tree) and must not be used as a
/// guard for our numbers.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SUPPORT_BUILDINFO_H
#define ARDF_SUPPORT_BUILDINFO_H

#include <string>

namespace ardf {

/// "release" when the libardf translation units were compiled with
/// optimization and without assertions (NDEBUG), "debug" otherwise.
/// Evaluated at library compile time, so it describes the .a/.so the
/// caller actually linked, not the caller's own flags.
const char *libraryBuildType();

/// The host CPU's brand string (e.g. "Intel(R) Xeon(R) Processor"), read
/// through cpuid on x86 and "unknown" elsewhere. Part of the host
/// fingerprint benchmark snapshots record, so timings from different
/// machines are never compared as if they were one series.
std::string hostCpuModel();

} // namespace ardf

#endif // ARDF_SUPPORT_BUILDINFO_H
