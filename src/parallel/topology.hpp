// Minimal NUMA/CPU topology reader and placement helpers (no libnuma).
//
// The sharded search (align::ShardedSearch) wants to know how many memory
// nodes the host has and which CPUs belong to each, so it can pin one
// thread-pool slice per node and place each shard's packed columns on the
// node that scans them. Linking libnuma for that would add the repo's first
// external dependency; everything needed is available from sysfs
// (/sys/devices/system/node) plus two raw syscalls (sched_setaffinity,
// mbind), all best-effort:
//   * detection falls back to a single synthetic node covering every online
//     CPU (containers, non-Linux);
//   * pinning and mbind return false instead of failing the search — the
//     result is bit-identical either way, placement only moves bytes closer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace swve::parallel {

/// Memory-placement policy for sharded search (ServiceOptions search.numa).
enum class NumaPolicy : uint8_t {
  Off,         ///< no pinning, no mbind: first-touch wherever threads land
  Interleave,  ///< pin shard threads; interleave shared pages across nodes
  Bind,        ///< pin shard threads; bind each shard's columns to its node
};
const char* numa_policy_name(NumaPolicy p) noexcept;
/// Parses "off" / "interleave" / "bind"; false on anything else.
bool parse_numa_policy(const std::string& s, NumaPolicy* out) noexcept;

struct Topology {
  struct Node {
    int id = 0;
    std::vector<int> cpus;  ///< online CPUs of the node, ascending
  };
  std::vector<Node> nodes;  ///< ascending node id; never empty after detect()
  bool synthetic = false;   ///< true when sysfs had no node dirs (fallback)

  size_t node_count() const noexcept { return nodes.size(); }
  bool multi_node() const noexcept { return nodes.size() > 1; }
  unsigned total_cpus() const noexcept {
    size_t n = 0;
    for (const auto& node : nodes) n += node.cpus.size();
    return static_cast<unsigned>(n);
  }

  /// Detect from /sys/devices/system/node; single synthetic node over all
  /// online CPUs when that fails. Never returns an empty topology.
  static Topology detect();
  /// Same, rooted at `sysfs` instead of /sys (test seam).
  static Topology detect_at(const std::string& sysfs);
};

/// Parse a sysfs cpulist ("0-3,8,10-11") into ascending CPU ids.
std::vector<int> parse_cpulist(const std::string& list);

/// Pin the calling thread to `cpus` via sched_setaffinity. Best-effort:
/// false on non-Linux, empty set, or EPERM — the thread keeps running
/// unpinned.
bool pin_current_thread(const std::vector<int>& cpus) noexcept;

/// Move the calling thread onto the (k mod n)-th of the n CPUs in its
/// sched_getaffinity mask, then restore that mask at once: a one-time
/// placement, not pinning, so the thread starts where it was put and the
/// scheduler may still move it later. No-op off Linux or on a one-CPU mask.
void place_current_thread(unsigned k) noexcept;

/// mbind [addr, addr+len) (rounded inward to whole pages) to one node
/// (MPOL_BIND) — the "shard owns its columns" placement. Best-effort.
bool bind_memory_to_node(const void* addr, size_t len, int node) noexcept;

/// mbind the range MPOL_INTERLEAVE across nodes [0, num_nodes) — spreads a
/// shared region (e.g. a single-shard column stream read by every node)
/// evenly. Best-effort.
bool interleave_memory(const void* addr, size_t len,
                       unsigned num_nodes) noexcept;

}  // namespace swve::parallel
