// The workloads of the swve regression benchmark and what they share:
// command-line arguments, the serving options the shipped server uses, and
// the child processes that time cold starts and build the search artifact.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"
#include "service/align_service.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< results, spans and artifacts
  // Set-up probe mode: run one cold start and print its duration.
  bool setup_probe = false;
  std::string artifact;  ///< search probe: the .swdb to open
  // Artifact mode (search): build the database, write it here, and print
  // the packing time in ms.
  std::string write_artifact;
};

/// Set-up probes per untraced run; setup_s is their median.
inline constexpr int kSetupProbes = 15;

/// The serving options `swve_server` runs with when given no flags, bound
/// to an ephemeral loopback port. `sink` receives the 8192-event trace ring
/// the server allocates by default; it must outlive the service.
swve::service::ServiceOptions shipped_server_options(swve::obs::TraceSink& sink);

/// Lanes the in-process packing picks on this host (64 with AVX-512 VBMI,
/// else 32) — the artifact is packed the same way so both startup paths
/// run the same kernel.
int host_batch_lanes();

/// Run this program again with `--workload` and `--seed` from `args` plus
/// `extra`, wait for it, and return the number it prints; a negative value
/// when it fails. Work done in the child stays out of this process's peak
/// resident set.
double run_child(const Args& args, const std::vector<std::string>& extra);

/// Run `kSetupProbes` cold starts, each in a fresh copy of this program
/// (`--setup-probe` plus `extra` arguments), and return their durations in
/// seconds. Empty on failure.
std::vector<double> run_setup_probes(const Args& args,
                                     const std::vector<std::string>& extra);

// Workload entry points. Each fills `r` and returns normally; a correctness
// failure is recorded with Report::fail.
void run_search(const Args& args, Report& r);
void run_pairwise(const Args& args, Report& r);

// Set-up probe bodies (child process): perform one cold start and return
// its duration in seconds, or a negative value on failure.
double probe_search(const Args& args);
double probe_pairwise(const Args& args);

/// Artifact body (child process): build the search database, write it to
/// `args.write_artifact`, and return the packing time in ms, or a negative
/// value on failure.
double write_search_artifact(const Args& args);

}  // namespace perfbench
