//===- support/BuildInfo.cpp - Library build-type introspection ----------===//

#include "support/BuildInfo.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

const char *ardf::libraryBuildType() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return "release";
#else
  return "debug";
#endif
}

std::string ardf::hostCpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned I = 0; I != 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string S(Brand);
    size_t B = S.find_first_not_of(' '), E = S.find_last_not_of(' ');
    if (B != std::string::npos)
      return S.substr(B, E - B + 1);
  }
#endif
  return "unknown";
}
