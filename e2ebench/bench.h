// End-to-end benchmark through server::Service: shared types.
//
// A workload builds a database (its set-up), then clients drive it through
// `server::Service` sessions in a closed loop. Each client runs whole
// *rounds*: a fixed sequence of operations of the workload's four classes.
// Every operation's output is checked against state the benchmark keeps
// itself (shadow maps, sums computed in plain C++), never against a stored
// copy of the engine's output.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/database.h"
#include "server/service.h"

namespace e2e {

/// The benchmark's own generator (xoshiro256** seeded through splitmix64),
/// so a change to the engine's common/rng cannot change the inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [lo, hi].
  int64_t Int(int64_t lo, int64_t hi);

 private:
  uint64_t s_[4];
};

/// Zipf(theta) over ranks [0, n): rank 0 is the hottest.
class Zipf {
 public:
  Zipf(size_t n, double theta);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// p in [0, 1]; linear interpolation between closest ranks. 0 when empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// One operation class as seen by one client.
struct ClassRec {
  std::vector<double> ms;  ///< end-to-end latency of timed operations that passed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Traced phase only.
  double work = 0.0;       ///< sum of QueryResult::operator_work
  double rows = 0.0;       ///< sum of rows returned
  double cold_gets = 0.0;  ///< LSM gets during the class's statements
  uint64_t statements = 0;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;     ///< scratch directory for databases
  std::string report;  ///< where the full JSON report goes ("" = none)
};

/// Where a client's statements go.
class Client {
 public:
  Client(aidb::server::Service* svc, std::shared_ptr<aidb::server::Session> s,
         size_t index, size_t num_classes, uint64_t seed);

  aidb::Result<aidb::QueryResult> Run(const std::string& sql);
  /// Moves the client to a new service and session (a new segment).
  void Attach(aidb::server::Service* svc,
              std::shared_ptr<aidb::server::Session> s) {
    svc_ = svc;
    session_ = std::move(s);
  }

  size_t index() const { return index_; }
  Rng& rng() { return rng_; }
  std::vector<ClassRec>& recs() { return recs_; }
  aidb::server::Session& session() { return *session_; }

  /// Records one finished operation of class `cls`. Only operations that
  /// passed their check keep a latency, so failures count in no timing.
  void Finish(size_t cls, double ms, bool ok);

  /// Timing on: latencies of finished operations are kept.
  bool timing = false;
  /// Trace bookkeeping on: the class of every statement is logged so spans
  /// can be attributed, and work/row counts are accumulated.
  bool tracing = false;
  /// Class of the operation in flight (for the statement log).
  size_t current = 0;
  /// Class of every statement issued while tracing, in issue order.
  std::vector<size_t> statement_log;
  /// Write statements (UPDATE/INSERT) issued while tracing.
  uint64_t writes = 0;
  /// Statements issued while tracing, per class (the facade replays those of
  /// a read class).
  std::vector<std::vector<std::string>> issued;

 private:
  aidb::server::Service* svc_;
  std::shared_ptr<aidb::server::Session> session_;
  size_t index_;
  Rng rng_;
  std::vector<ClassRec> recs_;
};

/// Times of one set-up's phases, seconds.
struct SetupTimes {
  double load_s = 0.0;
  double index_s = 0.0;
  double train_s = 0.0;
  double page_out_s = 0.0;
  double total_s = 0.0;
  /// Time the benchmark spent rendering SQL text inside the phases above;
  /// set-up leaves it out of load_s and total_s.
  double render_s = 0.0;
};

/// One workload: its data, its mix and its checks.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Four class names, in the order of the op1..op4 metrics.
  virtual std::vector<std::string> classes() const = 0;
  /// Classes whose statements are plain SELECTs (parse/plan/EXPLAIN them).
  virtual std::vector<bool> read_classes() const = 0;
  virtual size_t sessions() const = 0;
  virtual size_t dop() const = 0;
  /// Set-ups before the first timed segment; setup_s is the median of these
  /// and of the segments' own set-ups. Short set-ups repeat more often, so
  /// that one slow set-up cannot move the median.
  virtual size_t setups() const = 0;
  /// Rounds per client in one timed segment. A segment is a fixed amount of
  /// work, so its figures do not depend on how fast the run goes.
  virtual size_t segment_rounds() const = 0;
  /// Whether every segment starts from a fresh set-up (workloads whose
  /// writes change the data the next operations see).
  virtual bool fresh_segments() const = 0;
  virtual std::string flush_policy() const = 0;
  virtual std::string inputs() const = 0;
  /// Rounds per client before anything is timed (plan cache, classifier).
  virtual size_t warm_rounds() const = 0;
  /// Rounds per client in each phase of the traced run. Fixed, so that a
  /// single-session workload does the same work at the same seed.
  virtual size_t trace_rounds() const = 0;

  /// Builds a fresh database in `dir`. The previous one, if any, is dropped.
  virtual aidb::Status Setup(const std::string& dir, SetupTimes* t) = 0;
  virtual aidb::Database* db() = 0;
  /// Per-session preparation once the service runs (PREPARE, session dop).
  virtual aidb::Status OpenClient(Client& c) = 0;
  /// One round of operations for client `c`.
  virtual void Round(Client& c) = 0;
  /// A representative SQL text of each class (parse/plan/EXPLAIN timing).
  virtual std::string SampleSql(size_t cls) = 0;
  /// Whole-database checks through the service after the drain; returns ""
  /// or the first mismatch.
  virtual std::string CheckAfterDrain(Client& c) = 0;
  /// Closes the database, reopens it from its directory and checks every
  /// acknowledged write. In-memory workloads return "".
  virtual std::string CloseAndReopen() = 0;
  /// Bytes of SST files on disk (0 without the LSM engine).
  virtual double SstBytes() const { return 0.0; }
  /// Workload-specific per-layer metrics of the traced run.
  virtual void TraceExtras(std::map<std::string, double>* /*out*/) {}
  /// Turns per-statement LSM accounting on or off (lsm_cold only).
  virtual void SetStatementAccounting(bool /*on*/) {}
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const Options& o);

/// All per-layer metric names, in BENCHMARK.json order.
const std::vector<std::string>& PerLayerNames();

// report.cc
/// Restricts the process to `n` of the CPUs it may run on (the highest
/// numbered ones, all of them if fewer), so that a workload with fewer
/// active threads than cores does not hand each statement to an idle core.
/// Call before any thread starts: threads inherit it. Returns the CPUs, as
/// in "2,3".
std::string PinCpus(size_t n);
double PeakRssMb();
/// Resident set size of the process now, MB.
double CurrentRssMb();
std::string JsonEscape(const std::string& s);
std::string JsonNumber(double v);
std::map<std::string, std::string> MachineProfile(const Options& o,
                                                  const Workload& w);

}  // namespace e2e
