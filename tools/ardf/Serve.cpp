//===- tools/ardf/Serve.cpp - ardf serve: the analysis daemon -------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `ardf serve`: the long-running analysis daemon. Newline-delimited JSON
/// requests (serve/Protocol.h) over stdio, a Unix socket (--socket), or
/// forwarded to a running daemon (--connect), answered from a warm
/// per-tenant cache. Exit codes: 0 orderly shutdown (EOF or a shutdown
/// request), 2 usage or socket failure.
///
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "serve/Server.h"
#include "support/Socket.h"

#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

using namespace ardf;
using namespace ardf::cli;
using namespace ardf::serve;

namespace {

const char *const Tool = "ardf serve";

/// One client connection's write side, shared with in-flight responses.
/// Closed is flipped (and the fd closed) under the mutex, so a late
/// response after disconnect is skipped instead of writing into a
/// recycled descriptor.
struct ConnectionSink {
  explicit ConnectionSink(int Fd) : Fd(Fd) {}
  std::mutex M;
  int Fd;
  bool Closed = false;

  void writeResponse(const std::string &Line) {
    std::lock_guard<std::mutex> L(M);
    if (Closed)
      return;
    // A failed write (peer vanished mid-response) is not fatal to the
    // daemon; the reader side will see the disconnect and clean up.
    net::writeLine(Fd, Line);
  }

  void close() {
    std::lock_guard<std::mutex> L(M);
    if (Closed)
      return;
    Closed = true;
    net::closeFd(Fd);
  }
};

/// Reads one connection (or stdio) until EOF/shutdown, submitting every
/// line. Returns when the stream ends.
void serveStream(AnalysisServer &Server, net::LineReader &Reader,
                 const std::shared_ptr<ConnectionSink> &Sink) {
  uint64_t Cap = Server.options().MaxRequestBytes;
  std::string Line;
  for (;;) {
    net::LineStatus S = Reader.readLine(Line, Cap);
    if (S == net::LineStatus::Eof || S == net::LineStatus::Error)
      return;
    if (S == net::LineStatus::TooLong) {
      // The reader drained the oversized line without buffering it;
      // refuse it here -- submit() never sees the payload.
      Sink->writeResponse(errorResponse(
          json::Value(), ErrorCode::PayloadTooLarge,
          "request line exceeds the " + std::to_string(Cap) + " byte cap"));
      continue;
    }
    Server.submit(Line, [Sink](std::string Response) {
      Sink->writeResponse(Response);
    });
    if (Server.shutdownRequested())
      return;
  }
}

int runStdio(const ServeOptions &Opts) {
  net::ignoreSigpipe();
  AnalysisServer Server(Opts);
  auto Sink = std::make_shared<ConnectionSink>(1 /* stdout */);
  net::LineReader Reader(0 /* stdin */);
  serveStream(Server, Reader, Sink);
  // Answer everything in flight before exiting; responses drained here
  // keep the one-response-per-line contract even at abrupt EOF.
  Server.drain();
  return 0;
}

int runSocket(const ServeOptions &Opts, const std::string &Path) {
  net::ignoreSigpipe();
  net::UnixListener Listener;
  std::string Error;
  if (!Listener.listen(Path, Error)) {
    std::cerr << Tool << ": error: " << Error << "\n";
    return 2;
  }
  std::cerr << Tool << ": listening on " << Path << "\n";

  AnalysisServer Server(Opts);

  // A shutdown request arrives on some connection; this watcher turns
  // it into a closed listener so the accept loop unblocks.
  std::atomic<bool> Stop{false};
  std::thread ShutdownWatcher([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      if (Server.shutdownRequested()) {
        Listener.close();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  std::vector<std::thread> Connections;
  for (;;) {
    int Fd = Listener.accept();
    if (Fd < 0)
      break; // closed by the shutdown watcher (or a fatal accept error)
    Connections.emplace_back([&Server, Fd] {
      auto Sink = std::make_shared<ConnectionSink>(Fd);
      net::LineReader Reader(Fd);
      serveStream(Server, Reader, Sink);
      Sink->close();
    });
  }
  Stop.store(true, std::memory_order_relaxed);
  ShutdownWatcher.join();
  for (std::thread &T : Connections)
    T.join();
  Server.drain();
  return 0;
}

int runClient(const std::string &Path) {
  net::ignoreSigpipe();
  std::string Error;
  int Fd = net::connectUnix(Path, Error);
  if (Fd < 0) {
    std::cerr << Tool << ": error: " << Error << "\n";
    return 2;
  }
  net::LineReader In(0 /* stdin */), Peer(Fd);
  std::string Line, Response;
  int Code = 0;
  for (;;) {
    net::LineStatus S = In.readLine(Line);
    if (S != net::LineStatus::Ok)
      break;
    if (!net::writeLine(Fd, Line, &Error)) {
      std::cerr << Tool << ": error: send failed: " << Error << "\n";
      Code = 2;
      break;
    }
    net::LineStatus R = Peer.readLine(Response);
    if (R != net::LineStatus::Ok) {
      std::cerr << Tool << ": error: daemon closed the connection\n";
      Code = 2;
      break;
    }
    std::cout << Response << "\n" << std::flush;
  }
  net::closeFd(Fd);
  return Code;
}

} // namespace

int cli::runServe(const std::vector<std::string> &Args) {
  CommonOptions Common;
  ServeOptions Serve;
  std::string SocketPath, ConnectPath;
  // The server scales deadline plus grace to nanoseconds; keep the sum
  // from overflowing.
  const uint64_t MaxMs = UINT64_MAX / 2000000;

  std::vector<Flag> Flags = commonFlags(Common, BudgetFlags);
  Flags.push_back(textFlag("--socket", "PATH",
                           "serve on a Unix socket (default: stdio,\n"
                           "exiting at EOF)",
                           SocketPath));
  Flags.push_back(textFlag("--connect", "PATH",
                           "client mode: send stdin lines to a running\n"
                           "daemon, print its responses",
                           ConnectPath));
  Flags.push_back(
      numberFlag("--workers", "worker threads (default 1)", Serve.Workers, 1));
  Flags.push_back(numberFlag("--queue-depth",
                             "bounded request queue; excess requests get\n"
                             "an overloaded response (default 64)",
                             Serve.QueueDepth, 1));
  Flags.push_back(numberFlag("--max-request-bytes",
                             "admission cap per request line (default\n"
                             "1MiB, 0 = uncapped)",
                             Serve.MaxRequestBytes));
  Flags.push_back(numberFlag("--deadline-ms",
                             "per-request deadline and default solver\n"
                             "deadline (default 2000, 0 disables the\n"
                             "deadline and the watchdog)",
                             Serve.RequestDeadlineMs, 0, MaxMs));
  Flags.push_back(numberFlag("--grace-ms",
                             "time past the deadline before the watchdog\n"
                             "fails a wedged request (default 500)",
                             Serve.WatchdogGraceMs, 0, MaxMs));
  Flags.push_back(numberFlag("--tenant-quota",
                             "cached documents per tenant, LRU evicted\n"
                             "(default 8)",
                             Serve.TenantQuota, 1));

  const std::string Usage = usageText(
      "serve [options]",
      "Long-running analysis daemon speaking newline-delimited JSON: one\n"
      "request object per line, one response line per request (methods:\n"
      "analyze, lint, explain, stats, shutdown). Programs, warm sessions\n"
      "and results are cached per tenant; edits re-solve only the changed\n"
      "loops. A request names its engine (\"engine\": \"packed\", the\n"
      "default, or \"reference\") and opts in to the engine cross-check\n"
      "with \"cross_check\": true. The budget flags set server-wide\n"
      "ceilings that requests may tighten, never loosen.\n",
      Flags, "exit codes: 0 orderly shutdown, 2 usage/socket failure\n");
  std::vector<std::string> Extra;
  if (std::optional<int> Exit = parseArgs(Tool, Args, Flags, Usage, Extra))
    return *Exit;
  if (!Extra.empty())
    return usageError(Tool, "unknown option '" + Extra.front() + "'", Usage);
  if (!SocketPath.empty() && !ConnectPath.empty())
    return usageError(Tool, "--socket and --connect are mutually exclusive",
                      Usage);
  Serve.Budget = Common.Budget;
  if (!ConnectPath.empty())
    return runClient(ConnectPath);
  return SocketPath.empty() ? runStdio(Serve) : runSocket(Serve, SocketPath);
}
