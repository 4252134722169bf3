//===- examples/analyze_server.cpp - Multi-tenant analysis service --------===//
//
// The line-oriented transport over analyzer/Server.h: a concurrent
// multi-tenant analysis service speaking the load / entry / batch / edit /
// domain / modes / dump / stats verb protocol. Two modes:
//
//  * Plain (default): the classic single-client REPL. Commands on stdin,
//    one per line; results on stdout, prompts and messages on stderr — so
//    piping a command script through the server yields a clean, diffable
//    transcript (the CI smoke does exactly that, and the CI server-hammer
//    job uses plain-mode transcripts as its byte-identity reference).
//
//  * Framed (--clients N): multiplexes N independent clients over one
//    stdin/stdout pair. Each input line is `<cid> <command>` with cid in
//    [0, N); requests of different clients run concurrently on the worker
//    pool (per-client order is preserved), and every response line is
//    prefixed `[<cid>] ` on its stream — so per-client transcripts can be
//    sliced back out (sed 's/^\[3\] //') and diffed against a plain-mode
//    run of that client's script alone. Byte-identity of those slices at
//    every worker count is the concurrency contract.
//
//   analyze_server [--workers N] [--max-store-bytes N] [--clients N]
//
// --workers sizes the request worker pool; --max-store-bytes bounds total
// store memory by LRU eviction (0 = unbounded; any value up to 2^64 - 1).
// Results are byte-identical at every setting.
//
// Loaded programs are keyed by CodeModule::fingerprint() *and* the active
// abstract domain, shared across clients: two clients loading the same
// module under the same domain share one warm store (writers serialized,
// repeat reads served from the response cache, identical concurrent
// queries answered by one drain — see analyzer/Server.h).
//
//===----------------------------------------------------------------------===//

#include "analyzer/Server.h"
#include "programs/Benchmarks.h"
#include "support/StringUtil.h"

#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

using namespace awam;

namespace {

/// Parses \p Text as an unsigned 64-bit integer. Only decimal digits are
/// accepted, so a sign, trailing junk or a value past UINT64_MAX fails
/// (std::strtoull alone would wrap "-1" to UINT64_MAX).
bool parseU64Arg(const char *Text, uint64_t &Out) {
  if (!std::isdigit(static_cast<unsigned char>(*Text)))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (*End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

/// Writes \p Text to \p Stream with every line prefixed "[<cid>] " (framed
/// mode). A trailing unterminated fragment keeps its missing newline.
void putFramed(std::FILE *Stream, int Cid, const std::string &Text) {
  size_t B = 0;
  while (B < Text.size()) {
    size_t E = Text.find('\n', B);
    bool Terminated = E != std::string::npos;
    size_t Len = (Terminated ? E : Text.size()) - B;
    std::fprintf(Stream, "[%d] %.*s%s", Cid, static_cast<int>(Len),
                 Text.data() + B, Terminated ? "\n" : "");
    B = Terminated ? E + 1 : Text.size();
  }
}

int runPlain(AnalysisServer &Server) {
  int Client = Server.openClient();
  std::string Line;
  while (std::fputs("awam> ", stderr), std::fflush(stderr),
         std::getline(std::cin, Line)) {
    AnalysisServer::Response R = Server.execute(Client, Line);
    if (!R.Err.empty())
      std::fputs(R.Err.c_str(), stderr);
    if (!R.Out.empty()) {
      std::fputs(R.Out.c_str(), stdout);
      std::fflush(stdout);
    }
    if (R.Quit)
      break;
  }
  return 0;
}

int runFramed(AnalysisServer &Server, int NumClients) {
  std::vector<int> Clients(static_cast<size_t>(NumClients));
  for (int I = 0; I != NumClients; ++I)
    Clients[static_cast<size_t>(I)] = Server.openClient();

  // Responses print atomically under one lock, in per-client completion
  // order (the server serializes each client's requests); Outstanding
  // gates exit so EOF still drains every in-flight request.
  std::mutex OutMu;
  std::condition_variable OutCV;
  int Outstanding = 0;

  std::string Line;
  while (std::getline(std::cin, Line)) {
    size_t Sp = Line.find(' ');
    std::string CidText = Line.substr(0, Sp);
    int Cid = -1;
    if (!parseIntArg(CidText.c_str(), 0, Cid) || Cid >= NumClients) {
      std::fprintf(stderr, "bad client id '%s' (expected 0..%d)\n",
                   CidText.c_str(), NumClients - 1);
      continue;
    }
    std::string Cmd = Sp == std::string::npos ? "" : Line.substr(Sp + 1);
    {
      std::lock_guard<std::mutex> L(OutMu);
      ++Outstanding;
    }
    Server.submit(Clients[static_cast<size_t>(Cid)], Cmd,
                  [&, Cid](const AnalysisServer::Response &R) {
                    std::lock_guard<std::mutex> L(OutMu);
                    putFramed(stderr, Cid, R.Err);
                    putFramed(stdout, Cid, R.Out);
                    std::fflush(stdout);
                    std::fflush(stderr);
                    --Outstanding;
                    OutCV.notify_all();
                  });
  }
  std::unique_lock<std::mutex> L(OutMu);
  OutCV.wait(L, [&] { return Outstanding == 0; });
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  AnalysisServer::Config Cfg;
  Cfg.LoadSource = loadProgramSource;
  int NumClients = 0;
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    bool Ok = false;
    if (Arg == "--workers" && I + 1 < argc) {
      if (!(Ok = parseIntArg(argv[++I], 1, Cfg.Workers)))
        std::fprintf(stderr, "bad --workers '%s': expected an integer >= 1\n",
                     argv[I]);
    } else if (Arg == "--max-store-bytes" && I + 1 < argc) {
      if (!(Ok = parseU64Arg(argv[++I], Cfg.MaxStoreBytes)))
        std::fprintf(stderr,
                     "bad --max-store-bytes '%s': expected an integer in "
                     "[0, 2^64)\n",
                     argv[I]);
    } else if (Arg == "--clients" && I + 1 < argc) {
      if (!(Ok = parseIntArg(argv[++I], 1, NumClients)))
        std::fprintf(stderr, "bad --clients '%s': expected an integer >= 1\n",
                     argv[I]);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[I]);
    }
    if (!Ok) {
      std::fprintf(stderr, "usage: analyze_server [--workers N] "
                           "[--max-store-bytes N] [--clients N]\n");
      return 2;
    }
  }

  AnalysisServer Server(Cfg);
  return NumClients > 0 ? runFramed(Server, NumClients) : runPlain(Server);
}
