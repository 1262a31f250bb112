#include "proc.hpp"

#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <fcntl.h>
#include <mutex>
#include <signal.h>
#include <sstream>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char** environ;

namespace perfbench {
namespace {

/// argv[0] resolved against $PATH in the parent, so the child can call
/// execve (async-signal-safe) instead of the PATH-searching variants.
std::string resolve(const std::string& prog) {
  if (prog.find('/') != std::string::npos) return prog;
  const char* path = std::getenv("PATH");
  std::istringstream dirs(path ? path : "/usr/bin:/bin");
  for (std::string d; std::getline(dirs, d, ':');) {
    std::string cand = (d.empty() ? "." : d) + "/" + prog;
    if (access(cand.c_str(), X_OK) == 0) return cand;
  }
  return prog;
}

} // namespace

ProcResult runProcess(const std::vector<std::string>& argv,
                      const std::vector<std::string>& env, double timeoutS,
                      const std::string& capture) {
  // Everything the child touches between fork and exec is prepared here:
  // only async-signal-safe calls run in the child.
  const std::string exe = resolve(argv.at(0));
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<char*> envp; // `env` first: getenv returns the first match
  for (const auto& e : env) envp.push_back(const_cast<char*>(e.c_str()));
  for (char** e = environ; *e; ++e) envp.push_back(*e);
  envp.push_back(nullptr);
  const std::string outPath = capture + ".out", errPath = capture + ".err";

  ProcResult r;
  uint64_t t0 = nowNs();
  pid_t pid = fork();
  if (pid < 0) {
    r.fail = Fail::NonzeroExit;
    r.exitCode = -1;
    r.err = "fork failed";
    return r;
  }
  if (pid == 0) {
    int out = open(outPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int err = open(errPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0) _exit(126);
    dup2(out, 1);
    dup2(err, 2);
    close(out);
    close(err);
    execve(exe.c_str(), args.data(), envp.data());
    _exit(127);
  }

  // The watchdog kills the child when the timeout expires; wait4 below
  // then reaps it like any other exit.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false, timedOut = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::duration<double>(timeoutS),
                     [&] { return done; })) {
      timedOut = true;
      kill(pid, SIGKILL);
    }
  });
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.wallMs = double(nowNs() - t0) / 1e6;
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  watchdog.join();

  r.userS = double(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
  r.sysS = double(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
  r.maxRssKb = ru.ru_maxrss;
  r.out = slurp(outPath);
  r.err = slurp(errPath);
  if (timedOut) {
    r.fail = Fail::Timeout;
  } else if (WIFSIGNALED(status)) {
    r.fail = Fail::Signal;
    r.signal = WTERMSIG(status);
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    r.fail = Fail::NonzeroExit;
    r.exitCode = WEXITSTATUS(status);
  }
  return r;
}

} // namespace perfbench
