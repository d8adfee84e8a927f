//===- ardf-bench/src/Bench.cpp - End-to-end benchmark support ------------===//

#include "Bench.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <thread>

#include <sys/resource.h>
#include <time.h>

using namespace ardfbench;

uint64_t ardfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ardfbench::processCpuNs() {
  timespec TS{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return static_cast<uint64_t>(TS.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(TS.tv_nsec);
}

double ardfbench::peakRssMb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

int64_t Rng::range(int64_t Lo, int64_t Hi) {
  return Lo + static_cast<int64_t>(next() % static_cast<uint64_t>(Hi - Lo + 1));
}

uint64_t ardfbench::mixSeed(uint64_t A, uint64_t B) {
  Rng R(A * 0x2545f4914f6cdd1dull + B);
  return R.next();
}

uint64_t ardfbench::fnv1a(std::string_view Bytes) {
  uint64_t H = 1469598103934665603ull;
  for (char C : Bytes) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

std::string ardfbench::hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

double ardfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

std::string ardfbench::jsonQuote(std::string_view S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
  return Out;
}

const JsonValue &JsonValue::operator[](const std::string &Key) const {
  static const JsonValue Null;
  auto It = Obj.find(Key);
  return It == Obj.end() ? Null : It->second;
}

namespace {

class JsonParser {
public:
  explicit JsonParser(std::string_view T) : T(T) {}

  bool parse(JsonValue &Out) {
    if (!value(Out, 0))
      return false;
    ws();
    return P == T.size();
  }

private:
  std::string_view T;
  size_t P = 0;

  void ws() {
    while (P < T.size() && (T[P] == ' ' || T[P] == '\n' || T[P] == '\t' ||
                            T[P] == '\r'))
      ++P;
  }

  bool literal(std::string_view L) {
    if (T.substr(P, L.size()) != L)
      return false;
    P += L.size();
    return true;
  }

  static void utf8(std::string &Out, uint32_t CP) {
    if (CP < 0x80) {
      Out += static_cast<char>(CP);
    } else if (CP < 0x800) {
      Out += static_cast<char>(0xC0 | (CP >> 6));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    } else if (CP < 0x10000) {
      Out += static_cast<char>(0xE0 | (CP >> 12));
      Out += static_cast<char>(0x80 | ((CP >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (CP >> 18));
      Out += static_cast<char>(0x80 | ((CP >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((CP >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (CP & 0x3F));
    }
  }

  bool hex4(uint32_t &V) {
    if (P + 4 > T.size())
      return false;
    V = 0;
    for (int I = 0; I != 4; ++I) {
      char C = T[P++];
      V <<= 4;
      if (C >= '0' && C <= '9')
        V |= static_cast<uint32_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        V |= static_cast<uint32_t>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        V |= static_cast<uint32_t>(C - 'A' + 10);
      else
        return false;
    }
    return true;
  }

  bool string(std::string &Out) {
    if (P >= T.size() || T[P] != '"')
      return false;
    ++P;
    while (P < T.size()) {
      char C = T[P++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (P >= T.size())
        return false;
      char E = T[P++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        uint32_t CP = 0;
        if (!hex4(CP))
          return false;
        if (CP >= 0xD800 && CP < 0xDC00 && literal("\\u")) {
          uint32_t Lo = 0;
          if (!hex4(Lo))
            return false;
          CP = 0x10000 + ((CP - 0xD800) << 10) + (Lo - 0xDC00);
        }
        utf8(Out, CP);
        break;
      }
      default:
        return false;
      }
    }
    return false;
  }

  bool value(JsonValue &V, unsigned Depth) {
    if (Depth > 64)
      return false;
    ws();
    if (P >= T.size())
      return false;
    char C = T[P];
    if (C == '{') {
      ++P;
      V.K = JsonValue::Kind::Object;
      ws();
      if (P < T.size() && T[P] == '}') {
        ++P;
        return true;
      }
      for (;;) {
        ws();
        std::string Key;
        if (!string(Key))
          return false;
        ws();
        if (P >= T.size() || T[P++] != ':')
          return false;
        if (!value(V.Obj[Key], Depth + 1))
          return false;
        ws();
        if (P >= T.size())
          return false;
        if (T[P] == ',') {
          ++P;
          continue;
        }
        return T[P++] == '}';
      }
    }
    if (C == '[') {
      ++P;
      V.K = JsonValue::Kind::Array;
      ws();
      if (P < T.size() && T[P] == ']') {
        ++P;
        return true;
      }
      for (;;) {
        V.Arr.emplace_back();
        if (!value(V.Arr.back(), Depth + 1))
          return false;
        ws();
        if (P >= T.size())
          return false;
        if (T[P] == ',') {
          ++P;
          continue;
        }
        return T[P++] == ']';
      }
    }
    if (C == '"') {
      V.K = JsonValue::Kind::String;
      return string(V.Str);
    }
    if (literal("true")) {
      V.K = JsonValue::Kind::Bool;
      V.B = true;
      return true;
    }
    if (literal("false")) {
      V.K = JsonValue::Kind::Bool;
      return true;
    }
    if (literal("null"))
      return true;
    size_t Start = P;
    while (P < T.size() &&
           (std::isdigit(static_cast<unsigned char>(T[P])) || T[P] == '-' ||
            T[P] == '+' || T[P] == '.' || T[P] == 'e' || T[P] == 'E'))
      ++P;
    if (P == Start)
      return false;
    V.K = JsonValue::Kind::Number;
    V.Num = std::strtod(std::string(T.substr(Start, P - Start)).c_str(),
                        nullptr);
    return true;
  }
};

} // namespace

bool ardfbench::parseJson(std::string_view Text, JsonValue &Out) {
  Out = JsonValue();
  return JsonParser(Text).parse(Out);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Span::Span(Tracer &T, const char *Name) {
  if (!T.On)
    return;
  Owner = &T;
  Index = static_cast<int32_t>(T.Spans.size());
  Prev = T.Current;
  T.Spans.push_back({Name, nowNs(), 0, T.Current, T.CurrentOp});
  T.Current = Index;
}

Tracer::Span::~Span() {
  if (!Owner)
    return;
  Owner->Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  Owner->Current = Prev;
}

void Tracer::beginOp(uint32_t Op) {
  if (!On)
    return;
  CurrentOp = Op;
  OpRoot = Spans.size();
  Spans.push_back({"op", nowNs(), 0, -1, Op});
  Current = static_cast<int32_t>(OpRoot);
}

void Tracer::endOp() {
  if (!On)
    return;
  Spans[OpRoot].EndNs = nowNs();
  Current = -1;
  for (size_t I = OpRoot + 1; I != Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    if (S.Parent == static_cast<int32_t>(OpRoot))
      LayerNs[S.Name] += S.EndNs - S.StartNs;
  }
  ++Ops;
}

void Tracer::writeChromeTrace(std::ostream &OS) const {
  OS << "{\"traceEvents\":[";
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,"
                  "\"span\":%zu,\"parent\":%d}}",
                  I ? "," : "", S.Name,
                  static_cast<double>(S.StartNs - Base) / 1e3,
                  static_cast<double>(S.EndNs - S.StartNs) / 1e3, S.Op, I,
                  S.Parent);
    OS << Buf;
  }
  OS << "\n]}\n";
}

//===----------------------------------------------------------------------===//
// Counters and results
//===----------------------------------------------------------------------===//

CounterSet CounterSet::of(const ardf::telem::Telemetry &T) {
  CounterSet S;
  for (unsigned I = 0; I != ardf::telem::NumCounters; ++I)
    S.V[I] = T.get(static_cast<ardf::telem::Counter>(I));
  return S;
}

CounterSet CounterSet::operator-(const CounterSet &O) const {
  CounterSet S;
  for (unsigned I = 0; I != ardf::telem::NumCounters; ++I)
    S.V[I] = V[I] - O.V[I];
  return S;
}

std::string CounterSet::differences(const CounterSet &O) const {
  std::string Diff;
  for (unsigned I = 0; I != ardf::telem::NumCounters; ++I) {
    auto C = static_cast<ardf::telem::Counter>(I);
    if (C != ardf::telem::Counter::FlowCompileNs && V[I] != O.V[I])
      Diff += std::string(Diff.empty() ? "" : ", ") +
              ardf::telem::counterName(C);
  }
  return Diff;
}

void RunResult::op(bool Ok, const std::string &Note) {
  ++Attempted;
  if (!Ok)
    fail(Note);
}

void RunResult::fail(const std::string &Note) {
  ++Failed;
  if (FailureNotes.size() < 8)
    FailureNotes.push_back(Note);
}

void ardfbench::parallelFor(size_t N, unsigned Threads,
                            const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I = Next++; I < N; I = Next++)
      Fn(I);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads && T < N; ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
}
