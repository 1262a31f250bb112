// Child processes for the system C compiler and the emitted-C binaries:
// spawn, wait with a timeout (the child is killed when it expires), and
// collect exit status, output and resource usage.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct ProcResult {
  Fail fail = Fail::None;  // None, NonzeroExit, Signal or Timeout
  int exitCode = 0;
  int signal = 0;
  double wallMs = 0;
  double userS = 0, sysS = 0;
  long maxRssKb = 0;
  std::string out, err;    // captured stdout / stderr
};

/// Runs `argv` in the current directory with `env` added to the
/// environment. stdout and stderr are captured through files named
/// `<capture>.out` / `<capture>.err`.
ProcResult runProcess(const std::vector<std::string>& argv,
                      const std::vector<std::string>& env,
                      double timeoutS, const std::string& capture);

} // namespace perfbench
