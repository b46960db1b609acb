// perfbench: the repository benchmark's harness binary. run.py builds it and
// calls it once per run:
//
//   perfbench --workload file_powerlaw --seed 3 --seconds 10 --trace 0
//             --server <rept_server> --workdir <dir> --out <raw.json> [--tiny]
//
// It generates the workload's input from the seed, drives the program
// through its public interfaces, checks the answers and writes raw samples
// to --out. Progress and failures go to stderr.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.hpp"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "file_powerlaw|server_mixed --seed N --seconds S "
               "--trace 0|1 --server PATH --workdir DIR --out FILE [--tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--server") {
      args.server_binary = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workdir.empty() || args.out.empty() || !(args.seconds > 0.0)) {
    return Usage("--workdir, --out and a positive --seconds are required");
  }
  if (args.workload == "file_powerlaw") {
    return perfbench::RunInProcess(args);
  }
  if (args.workload == "server_mixed") {
    if (args.server_binary.empty()) return Usage("--server is required");
    return perfbench::RunServer(args);
  }
  return Usage(("unknown workload " + args.workload).c_str());
}
