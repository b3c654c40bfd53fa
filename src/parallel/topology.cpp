#include "parallel/topology.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace swve::parallel {

const char* numa_policy_name(NumaPolicy p) noexcept {
  switch (p) {
    case NumaPolicy::Off: return "off";
    case NumaPolicy::Interleave: return "interleave";
    case NumaPolicy::Bind: return "bind";
  }
  return "unknown";
}

bool parse_numa_policy(const std::string& s, NumaPolicy* out) noexcept {
  if (s == "off") *out = NumaPolicy::Off;
  else if (s == "interleave") *out = NumaPolicy::Interleave;
  else if (s == "bind") *out = NumaPolicy::Bind;
  else return false;
  return true;
}

std::vector<int> parse_cpulist(const std::string& list) {
  std::vector<int> cpus;
  std::stringstream ss(list);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    const size_t dash = tok.find('-');
    char* end = nullptr;
    if (dash == std::string::npos) {
      long c = std::strtol(tok.c_str(), &end, 10);
      if (end != tok.c_str() && c >= 0) cpus.push_back(static_cast<int>(c));
    } else {
      long lo = std::strtol(tok.c_str(), &end, 10);
      long hi = std::strtol(tok.c_str() + dash + 1, &end, 10);
      if (lo < 0 || hi < lo || hi - lo > 4096) continue;
      for (long c = lo; c <= hi; ++c) cpus.push_back(static_cast<int>(c));
    }
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  if (f) std::getline(f, line);
  return line;
}

Topology synthetic_topology(const std::string& sysfs) {
  Topology topo;
  topo.synthetic = true;
  Topology::Node node;
  node.id = 0;
  node.cpus = parse_cpulist(
      read_first_line(sysfs + "/devices/system/cpu/online"));
  if (node.cpus.empty()) {
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    for (unsigned c = 0; c < hw; ++c) node.cpus.push_back(static_cast<int>(c));
  }
  topo.nodes.push_back(std::move(node));
  return topo;
}

}  // namespace

Topology Topology::detect_at(const std::string& sysfs) {
  Topology topo;
#if defined(__linux__)
  const std::string node_dir = sysfs + "/devices/system/node";
  if (DIR* d = opendir(node_dir.c_str())) {
    while (dirent* e = readdir(d)) {
      int id = -1;
      if (std::sscanf(e->d_name, "node%d", &id) != 1 || id < 0) continue;
      Node node;
      node.id = id;
      node.cpus = parse_cpulist(
          read_first_line(node_dir + "/" + e->d_name + "/cpulist"));
      if (!node.cpus.empty()) topo.nodes.push_back(std::move(node));
    }
    closedir(d);
  }
  std::sort(topo.nodes.begin(), topo.nodes.end(),
            [](const Node& a, const Node& b) { return a.id < b.id; });
#endif
  if (topo.nodes.empty()) return synthetic_topology(sysfs);
  return topo;
}

Topology Topology::detect() { return detect_at("/sys"); }

bool pin_current_thread(const std::vector<int>& cpus) noexcept {
#if defined(__linux__)
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus)
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)cpus;
  return false;
#endif
}

void place_current_thread(unsigned k) noexcept {
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n <= 1) return;
  int skip = static_cast<int>(k % static_cast<unsigned>(n));
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0)
      sched_setaffinity(0, sizeof(allowed), &allowed);
    return;
  }
#else
  (void)k;
#endif
}

namespace {

#if defined(__linux__) && defined(SYS_mbind)
// Matching <numaif.h> without depending on libnuma's headers.
constexpr int kMpolBind = 2;
constexpr int kMpolInterleave = 3;
constexpr unsigned kMpolMfMove = 1u << 1;  // best-effort page migration

bool mbind_range(const void* addr, size_t len, int mode,
                 const unsigned long* nodemask, unsigned long maxnode) {
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return false;
  // Round inward: mbind requires a page-aligned start, and we must not
  // touch bytes outside the caller's range.
  auto begin = reinterpret_cast<uintptr_t>(addr);
  auto end = begin + len;
  begin = (begin + static_cast<uintptr_t>(page) - 1) &
          ~(static_cast<uintptr_t>(page) - 1);
  end &= ~(static_cast<uintptr_t>(page) - 1);
  if (begin >= end) return false;
  return syscall(SYS_mbind, begin, end - begin, mode, nodemask, maxnode,
                 kMpolMfMove) == 0;
}
#endif

}  // namespace

bool bind_memory_to_node(const void* addr, size_t len, int node) noexcept {
#if defined(__linux__) && defined(SYS_mbind)
  if (addr == nullptr || len == 0 || node < 0 || node >= 64) return false;
  unsigned long mask = 1ul << node;
  return mbind_range(addr, len, kMpolBind, &mask, 64);
#else
  (void)addr;
  (void)len;
  (void)node;
  return false;
#endif
}

bool interleave_memory(const void* addr, size_t len,
                       unsigned num_nodes) noexcept {
#if defined(__linux__) && defined(SYS_mbind)
  if (addr == nullptr || len == 0 || num_nodes == 0 || num_nodes > 64)
    return false;
  unsigned long mask =
      num_nodes >= 64 ? ~0ul : ((1ul << num_nodes) - 1ul);
  return mbind_range(addr, len, kMpolInterleave, &mask, 64);
#else
  (void)addr;
  (void)len;
  (void)num_nodes;
  return false;
#endif
}

}  // namespace swve::parallel
