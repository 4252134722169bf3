//===- perfbench/Probe.cpp - Corpus runs in child processes ---------------===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
// The scale-cliff probes: a fixed set of generated corpora, independent
// of --seed, each taken from source to report (scratch analyze of
// drive/1) in a child process under a time and a memory limit, after the
// timed part of a traced ladder run. A signal, a non-zero exit or hitting
// a limit counts as a failure. Probes enter no timed metric.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "tests/RandomProgramGen.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

extern char **environ;

using namespace awam;

namespace perfbench {
namespace {

struct ProbeSpec {
  uint64_t Seed;
  int Clauses;
  const char *Domain;
};

/// The probe set: generateCorpus arguments and the domain analyzed.
/// (108, 20000) is the reproducer of the absUnify stack overflow;
/// (306, 24000) runs without bound and grows its heap by hundreds of MB a
/// second; (305, 20000) and (304, 16000) answer in about half a second;
/// pos on (5, 1200) overflows the stack at a twentieth of the size, and
/// (13, 4000) grows its heap without bound at the ladder's 4k rung size.
const ProbeSpec kProbes[] = {{108, 20000, "modes"}, {306, 24000, "modes"},
                             {305, 20000, "modes"}, {304, 16000, "modes"},
                             {5, 1200, "pos"},      {13, 4000, "modes"}};
constexpr int kProbeLimitS = 5;
/// Address-space cap of a child: a runaway fails with bad_alloc instead
/// of taking the host's memory.
constexpr rlim_t kMemLimit = rlim_t(1) << 30;

struct Child {
  pid_t Pid = -1;
  int Fd = -1;
  std::string Out;
  int Status = 0;
  bool Done = false, TimedOut = false;
};

Child spawnChild(const std::string &Self, uint64_t Seed, int Clauses,
                 const std::string &Domain) {
  Child K;
  int P[2];
  if (pipe2(P, O_CLOEXEC) != 0)
    return K;
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_adddup2(&FA, P[1], STDOUT_FILENO);
  std::string S = std::to_string(Seed), N = std::to_string(Clauses),
              D = Domain;
  char *Args[] = {const_cast<char *>(Self.c_str()),
                  const_cast<char *>("--probe"), S.data(), N.data(), D.data(),
                  nullptr};
  int Err = posix_spawn(&K.Pid, Self.c_str(), &FA, nullptr, Args, environ);
  posix_spawn_file_actions_destroy(&FA);
  close(P[1]);
  if (Err != 0) {
    K.Pid = -1;
    close(P[0]);
    return K;
  }
  K.Fd = P[0];
  return K;
}

void drain(Child &K) {
  char Buf[256];
  pollfd PF{K.Fd, POLLIN, 0};
  while (poll(&PF, 1, 0) > 0) {
    ssize_t N = read(K.Fd, Buf, sizeof(Buf));
    if (N <= 0)
      break;
    K.Out.append(Buf, static_cast<size_t>(N));
  }
}

/// Collects output until every child exits or \p LimitS passes, then
/// kills and reaps whatever is left. Every child has ended on return.
void waitAll(std::vector<Child> &Kids, int LimitS) {
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(LimitS) * 1000000000ull;
  for (;;) {
    bool Live = false;
    for (Child &K : Kids) {
      if (K.Pid < 0 || K.Done)
        continue;
      drain(K);
      if (waitpid(K.Pid, &K.Status, WNOHANG) == K.Pid) {
        drain(K);
        K.Done = true;
      } else {
        Live = true;
      }
    }
    if (!Live)
      break;
    if (nowNs() >= Deadline) {
      for (Child &K : Kids)
        if (K.Pid >= 0 && !K.Done) {
          kill(K.Pid, SIGKILL);
          waitpid(K.Pid, &K.Status, 0);
          K.Done = K.TimedOut = true;
        }
      break;
    }
    usleep(5000);
  }
  for (Child &K : Kids)
    if (K.Fd >= 0) {
      close(K.Fd);
      K.Fd = -1;
    }
}

/// "" when \p K answered (filling \p Clauses and \p Us), else why not.
std::string outcome(const Child &K, int LimitS, int &Clauses, double &Us) {
  if (K.Pid < 0)
    return "could not start";
  if (K.TimedOut)
    return "no answer within " + std::to_string(LimitS) + " s";
  if (WIFSIGNALED(K.Status))
    return "signal " + std::to_string(WTERMSIG(K.Status)) + " (" +
           strsignal(WTERMSIG(K.Status)) + ")";
  if (!WIFEXITED(K.Status) || WEXITSTATUS(K.Status) != 0)
    return "exit " + std::to_string(WEXITSTATUS(K.Status));
  if (std::sscanf(K.Out.c_str(), "%d %lf", &Clauses, &Us) != 2 || Clauses <= 0)
    return "no result";
  return "";
}

std::string corpusName(uint64_t Seed, int Clauses, const std::string &Domain) {
  return "generateCorpus(" + std::to_string(Seed) + ", " +
         std::to_string(Clauses) + ") " + Domain;
}

} // namespace

int probeMain(int Argc, char **Argv) {
  if (Argc != 5)
    return 2;
  rlimit Lim{kMemLimit, kMemLimit};
  setrlimit(RLIMIT_AS, &Lim);
  testgen::CorpusOptions O;
  O.Clauses = std::atoi(Argv[3]);
  testgen::Corpus Corpus =
      testgen::generateCorpus(std::strtoull(Argv[2], nullptr, 10), O);
  PipelineIn In;
  In.Units = {Corpus.Library, Corpus.User};
  In.Entry = "drive/1";
  In.Options.DomainName = Argv[4];
  PipelineOut Out;
  uint64_t T0 = nowNs();
  runPipeline(In, 0, -1, Out);
  if (!Out.Error.empty()) {
    std::fprintf(stderr, "probe: %s\n", Out.Error.c_str());
    return 1;
  }
  std::printf("%d %.3f\n", Out.Clauses,
              static_cast<double>(nowNs() - T0) / 1000.0);
  return 0;
}

void runProbes(const RunConfig &C, Record &R) {
  std::vector<Child> Kids;
  for (const ProbeSpec &P : kProbes)
    Kids.push_back(spawnChild(C.Self, P.Seed, P.Clauses, P.Domain));
  waitAll(Kids, kProbeLimitS);

  double Failed = 0, Us = 0, Clauses = 0;
  for (size_t I = 0; I != Kids.size(); ++I) {
    const ProbeSpec &P = kProbes[I];
    int N = 0;
    double T = 0;
    std::string Why = outcome(Kids[I], kProbeLimitS, N, T);
    std::string Name = "probe " + corpusName(P.Seed, P.Clauses, P.Domain);
    if (Why.empty()) {
      Us += T;
      Clauses += N;
      std::printf("%s: answered, %d clauses, %.0f us\n", Name.c_str(), N, T);
    } else {
      ++Failed;
      std::printf("%s: FAILED, %s\n", Name.c_str(), Why.c_str());
    }
  }
  R.add("ladder.probes_failed", "count", Failed, std::size(kProbes));
  R.add("ladder.probe_us_per_clause", "us/clause",
        Clauses > 0 ? Us / Clauses : 0,
        std::size(kProbes) - static_cast<size_t>(Failed));
}

} // namespace perfbench
