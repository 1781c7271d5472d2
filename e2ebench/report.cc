// Report helpers: peak and current RSS, JSON rendering, machine profile and the fixed
// list of per-layer metric names.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"

#ifndef AIDB_E2E_BUILD_TYPE
#define AIDB_E2E_BUILD_TYPE "unknown"
#endif
#ifndef AIDB_E2E_COMPILER
#define AIDB_E2E_COMPILER "unknown"
#endif

namespace e2e {

std::string PinCpus(size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "unpinned";
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() > n) cpus.erase(cpus.begin(), cpus.end() - static_cast<long>(n));
  cpu_set_t pin;
  CPU_ZERO(&pin);
  std::string out;
  for (int c : cpus) {
    CPU_SET(c, &pin);
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  if (sched_setaffinity(0, sizeof(pin), &pin) != 0) return "unpinned";
  return out;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kilobytes on Linux
}

double CurrentRssMb() {
  // The second field of statm is the resident page count.
  unsigned long size = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::map<std::string, std::string> MachineProfile(const Options& o,
                                                  const Workload& w) {
  const aidb::server::ServiceOptions svc;
  std::map<std::string, std::string> p;
  p["nproc"] = std::to_string(std::thread::hardware_concurrency());
  p["build_type"] = AIDB_E2E_BUILD_TYPE;
  if (p["build_type"] != std::string("Release")) {
    p["warning"] = "not a Release build: figures are not comparable";
  }
  p["compiler"] = AIDB_E2E_COMPILER;
  p["service_options"] =
      "defaults: workers=" + std::to_string(svc.workers) +
      " queue_capacity=" + std::to_string(svc.queue_capacity) +
      " cheap_reserve=" + std::to_string(svc.cheap_reserve) +
      " classify=" + (svc.classify ? std::string("on") : std::string("off"));
  p["sessions"] = std::to_string(w.sessions());
  p["dop"] = std::to_string(w.dop());
  p["flush_policy"] = w.flush_policy();
  p["inputs"] = w.inputs();
  p["seed"] = std::to_string(o.seed);
  p["seconds"] = JsonNumber(o.seconds);
  p["setups"] = std::to_string(w.setups());
  p["segment_rounds"] = std::to_string(w.segment_rounds()) +
                        (w.fresh_segments() ? ", each from a fresh set-up" : "");
  return p;
}

const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> names = [] {
    const std::vector<std::string> all_classes = {
        "point_select", "point_select_sql", "point_update", "transfer_txn",
        "insert",       "range_count",      "scan_agg",     "group_agg",
        "join_agg",     "predict_filter"};
    const std::vector<std::string> read_classes = {
        "point_select", "point_select_sql", "range_count", "scan_agg",
        "group_agg",    "join_agg",         "predict_filter"};
    const std::vector<std::string> scan_classes = {
        "range_count", "scan_agg", "group_agg", "join_agg", "predict_filter"};
    std::vector<std::string> n = {"sql.parse_p50_us", "exec.plan_p50_us"};
    for (const auto& c : all_classes) n.push_back("server.queue_wait_p50_us." + c);
    n.push_back("server.plan_cache_hit_ratio");
    n.push_back("server.service_minus_facade_p50_us");
    for (const auto& c : all_classes) n.push_back("exec.execute_p50_us." + c);
    for (const auto& c : read_classes) {
      n.push_back("exec.rows_examined_per_row_returned." + c);
    }
    for (const char* op : {"scan", "filter", "join", "agg", "other"}) {
      for (const auto& c : scan_classes) {
        n.push_back(std::string("op.") + op + ".self_ms." + c);
      }
    }
    for (const char* m :
         {"db4ai.predict_us_per_row", "txn.commit_p50_us", "txn.conflicts",
          "mvcc.versions_freed_per_write", "wal.bytes_per_write",
          "wal.flushes_per_1k_writes", "wal.flush_p50_us", "storage.checkpoints"}) {
      n.push_back(m);
    }
    for (const char* c : {"point_select", "point_update", "insert", "range_count"}) {
      n.push_back(std::string("lsm.cold_gets_per_stmt.") + c);
    }
    for (const char* m :
         {"lsm.read_amp", "lsm.bloom_negative_ratio", "lsm.zone_prune_ratio",
          "lsm.write_amp", "lsm.flushes", "lsm.compactions", "lsm.materialized",
          "lsm.sst_disk_mb", "setup.load_s", "setup.index_s", "setup.train_s",
          "setup.page_out_s", "trace.span_overhead_pct"}) {
      n.push_back(m);
    }
    return n;
  }();
  return names;
}

}  // namespace e2e
