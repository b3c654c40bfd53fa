// swve regression benchmark driver.
//
//   swve_perfbench --workload search|pairwise --seed N --seconds S
//                  --trace 0|1 [--out-dir DIR]
//
// Untraced runs print the end-to-end metrics, traced runs the per-layer
// ones (see README.md). The last stdout line is one JSON object with
// `correct`, `attempted`, `failed` and `metrics`.
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "simd/cpu.hpp"

extern char** environ;

namespace perfbench {

swve::service::ServiceOptions shipped_server_options(
    swve::obs::TraceSink& sink) {
  swve::service::ServiceOptions opt;
  opt.serve.port = 0;  // ephemeral instead of 7731
  opt.obs.trace_sink = &sink;
  return opt;
}

int host_batch_lanes() {
  return swve::simd::resolve_isa(swve::simd::Isa::Auto) ==
                     swve::simd::Isa::Avx512 &&
                 swve::simd::cpu_features().avx512vbmi
             ? 64
             : 32;
}

double run_child(const Args& args, const std::vector<std::string>& extra) {
  std::vector<std::string> argv_s = {"/proc/self/exe", "--workload",
                                     args.workload, "--seed",
                                     std::to_string(args.seed)};
  argv_s.insert(argv_s.end(), extra.begin(), extra.end());
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) return -1;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, "/proc/self/exe", &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return -1;
  }
  std::string text;
  char buf[256];
  ssize_t got;
  while ((got = read(fds[0], buf, sizeof buf)) > 0)
    text.append(buf, static_cast<size_t>(got));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return std::strtod(text.c_str(), nullptr);
}

std::vector<double> run_setup_probes(const Args& args,
                                     const std::vector<std::string>& extra) {
  std::vector<std::string> probe = {"--setup-probe"};
  probe.insert(probe.end(), extra.begin(), extra.end());
  std::vector<double> out;
  for (int i = 0; i < kSetupProbes; ++i) {
    const double v = run_child(args, probe);
    if (!(v > 0)) return {};
    out.push_back(v);
  }
  return out;
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "swve_perfbench: %s\n"
               "usage: swve_perfbench --workload search|pairwise "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") args.workload = next();
    else if (a == "--seed") args.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") args.seconds = std::atof(next().c_str());
    else if (a == "--trace") args.trace = next() == "1";
    else if (a == "--out-dir") args.out_dir = next();
    else if (a == "--setup-probe") args.setup_probe = true;
    else if (a == "--artifact") args.artifact = next();
    else if (a == "--write-artifact") args.write_artifact = next();
    else usage(("unknown argument " + a).c_str());
  }
  if (args.workload != "search" && args.workload != "pairwise")
    usage("--workload must be search or pairwise");
  if (!(args.seconds > 0)) usage("--seconds must be positive");

  if (args.setup_probe) {
    double s = -1;
    if (args.workload == "search") s = probe_search(args);
    else s = probe_pairwise(args);
    if (!(s > 0)) return 1;
    std::printf("%.9f\n", s);
    return 0;
  }
  if (!args.write_artifact.empty()) {
    if (args.workload != "search") usage("--write-artifact is for search");
    const double pack_ms = write_search_artifact(args);
    if (pack_ms < 0) return 1;
    std::printf("%.9f\n", pack_ms);
    return 0;
  }

  if (!args.out_dir.empty()) mkdir(args.out_dir.c_str(), 0755);
  Report r;
  r.workload = args.workload;
  r.seed = args.seed;
  r.trace = args.trace;
  r.fingerprint = host_fingerprint();
  try {
    if (args.workload == "search") run_search(args, r);
    else run_pairwise(args, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swve_perfbench: %s\n", e.what());
    return 1;
  }
  if (r.attempted == 0) {
    std::fprintf(stderr, "swve_perfbench: no request was attempted\n");
    return 1;
  }
  emit(r, args.out_dir);
  return r.correct ? 0 : 1;
}
