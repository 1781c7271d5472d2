// The three workloads: oltp, analytic and lsm_cold. See README.md for the
// make-up of their inputs and what each one is meant to exercise.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "bench.h"
#include "storage/engine/lsm_engine.h"

namespace e2e {

using aidb::Database;
using aidb::DurabilityOptions;
using aidb::QueryResult;
using aidb::Result;
using aidb::Status;
using aidb::Value;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Generator and statistics helpers.

namespace {

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double SecondsSince(Clock::time_point t0) { return MsSince(t0) / 1000.0; }

/// A cell as an integer: SUM and COUNT may come back as int or double.
int64_t AsI(const Value& v) {
  if (v.type() == aidb::ValueType::kInt) return v.AsInt();
  return static_cast<int64_t>(std::llround(v.AsDouble()));
}

std::string Str(const Value& v) {
  return v.type() == aidb::ValueType::kString ? v.AsString() : std::string();
}

double AsD(const Value& v) {
  if (v.type() == aidb::ValueType::kInt) return static_cast<double>(v.AsInt());
  return v.AsDouble();
}

/// |a - b| within `rel` of the larger magnitude (floating-point sums whose
/// order depends on the plan and the number of workers).
bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

Status Exec(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  return r.ok() ? Status::OK() : r.status();
}

/// Inserts `n` rows, 1000 per multi-row INSERT; `row(i)` renders row i.
/// The time spent rendering is the benchmark's, not the engine's: it is
/// added to `t->render_s`, which set-up times leave out.
template <typename RowFn>
Status LoadRows(Database* db, const std::string& table, size_t n, RowFn row,
                SetupTimes* t) {
  constexpr size_t kBatch = 1000;
  std::string sql;
  for (size_t i = 0; i < n; i += kBatch) {
    const auto t0 = Clock::now();
    sql = "INSERT INTO " + table + " VALUES ";
    for (size_t j = i; j < std::min(n, i + kBatch); ++j) {
      if (j != i) sql += ", ";
      sql += '(';
      sql += row(j);
      sql += ')';
    }
    t->render_s += SecondsSince(t0);
    AIDB_RETURN_NOT_OK(Exec(db, sql));
  }
  return Status::OK();
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = SplitMix(&x);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

int64_t Rng::Int(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

Zipf::Zipf(size_t n, double theta) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

Client::Client(aidb::server::Service* svc,
               std::shared_ptr<aidb::server::Session> s, size_t index,
               size_t num_classes, uint64_t seed)
    : issued(num_classes),
      svc_(svc),
      session_(std::move(s)),
      index_(index),
      rng_(seed),
      recs_(num_classes) {}

Result<QueryResult> Client::Run(const std::string& sql) {
  auto r = svc_->Execute(session_->id(), sql);
  if (tracing) {
    statement_log.push_back(current);
    ClassRec& rec = recs_[current];
    ++rec.statements;
    if (sql.rfind("UPDATE", 0) == 0 || sql.rfind("INSERT", 0) == 0) ++writes;
    if (r.ok()) {
      rec.work += static_cast<double>(r.ValueOrDie().operator_work);
      rec.rows += static_cast<double>(r.ValueOrDie().rows.size());
    }
  }
  return r;
}

void Client::Finish(size_t cls, double ms, bool ok) {
  ClassRec& rec = recs_[cls];
  ++rec.attempted;
  if (!ok) ++rec.failed;
  if (timing && ok) rec.ms.push_back(ms);
}

// ---------------------------------------------------------------------------
// oltp: per-statement path on a durable, fully in-memory table.

namespace {

/// WAL on (physical fsync off; see README), fixed group-commit interval,
/// count-triggered auto-checkpoint.
DurabilityOptions DurableOptions() {
  DurabilityOptions o;
  o.sync = false;
  o.wal_flush_interval = 64;
  o.checkpoint_every_n_records = 50'000;
  return o;
}

const char* kDurablePolicy =
    "WAL group commit every 64 records, auto-checkpoint every 50000 records, "
    "physical fsync off (syncs still counted)";

class Oltp final : public Workload {
 public:
  enum Cls { kSelPrep, kSelSql, kUpdate, kTransfer };
  static constexpr size_t kRows = 200'000;

  explicit Oltp(const Options& o) : seed_(o.seed), zipf_(kRows / 2, 0.99) {}

  std::vector<std::string> classes() const override {
    return {"point_select", "point_select_sql", "point_update", "transfer_txn"};
  }
  std::vector<bool> read_classes() const override {
    return {true, true, false, false};
  }
  size_t sessions() const override { return 2; }
  size_t dop() const override { return 1; }
  size_t setups() const override { return 5; }
  size_t segment_rounds() const override { return 40; }
  bool fresh_segments() const override { return true; }
  size_t warm_rounds() const override { return 4; }
  size_t trace_rounds() const override { return 40; }
  std::string flush_policy() const override { return kDurablePolicy; }
  std::string inputs() const override {
    return Fmt("acct(id, part, bal): %zu rows, B-tree index on id; 2 sessions, "
               "each owning the ids of its parity; keys Zipf(0.99) over the "
               "partition; round = 3x(EXECUTE + literal point_select), "
               "1 point_update, 1 transfer_txn",
               kRows);
  }

  Status Setup(const std::string& dir, SetupTimes* t) override {
    db_.reset();
    RemoveDir(dir);
    dir_ = dir;
    Rng rng(seed_ ^ 0x6f6c7470ull);
    bal_.assign(kRows, 0);
    for (auto& b : bal_) b = rng.Int(1'000, 100'000);
    initial_total_[0] = initial_total_[1] = 0;
    for (size_t i = 0; i < kRows; ++i) initial_total_[i % 2] += bal_[i];
    update_delta_[0] = update_delta_[1] = 0;

    auto t0 = Clock::now();
    auto opened = Database::Open(dir, DurableOptions());
    if (!opened.ok()) return opened.status();
    db_ = std::move(opened).ValueOrDie();
    AIDB_RETURN_NOT_OK(Exec(db_.get(), "CREATE TABLE acct (id INT, part INT, bal INT)"));
    AIDB_RETURN_NOT_OK(LoadRows(db_.get(), "acct", kRows, [&](size_t i) {
      return Fmt("%zu, %zu, %" PRId64, i, i % 2, bal_[i]);
    }, t));
    t->load_s = SecondsSince(t0);
    auto t1 = Clock::now();
    AIDB_RETURN_NOT_OK(Exec(db_.get(), "CREATE INDEX acct_id ON acct(id)"));
    AIDB_RETURN_NOT_OK(Exec(db_.get(), "ANALYZE acct"));
    t->index_s = SecondsSince(t1);
    t->total_s = SecondsSince(t0);
    return Status::OK();
  }

  Database* db() override { return db_.get(); }

  Status OpenClient(Client& c) override {
    auto r = c.Run("PREPARE sel AS SELECT bal FROM acct WHERE id = $1");
    return r.ok() ? Status::OK() : r.status();
  }

  void Round(Client& c) override {
    for (int i = 0; i < 3; ++i) {
      PointSelect(c, kSelPrep);
      PointSelect(c, kSelSql);
    }
    Update(c);
    Transfer(c);
  }

  std::string SampleSql(size_t cls) override {
    switch (cls) {
      case kSelPrep: return "EXECUTE sel (4242)";
      case kSelSql: return "SELECT bal FROM acct WHERE id = 4242";
      case kUpdate: return "UPDATE acct SET bal = 5 WHERE id = 4242";
      default: return "UPDATE acct SET bal = bal - 7 WHERE id = 4242";
    }
  }

  std::string CheckAfterDrain(Client& c) override {
    auto r = c.Run("SELECT id, bal FROM acct");
    if (!r.ok()) return "full scan: " + r.status().ToString();
    std::string err = CompareAll(r.ValueOrDie());
    if (!err.empty()) return err;
    auto sums = c.Run("SELECT part, SUM(bal) FROM acct GROUP BY part");
    if (!sums.ok()) return "partition sums: " + sums.status().ToString();
    for (const auto& row : sums.ValueOrDie().rows) {
      const int64_t p = AsI(row[0]);
      if (p < 0 || p > 1) return "partition sums: unknown partition";
      // Transfers move balance inside a partition; only point_update
      // changes its total.
      if (AsI(row[1]) != initial_total_[p] + update_delta_[p]) {
        return Fmt("partition %" PRId64 " total %" PRId64 " != %" PRId64, p,
                   AsI(row[1]), initial_total_[p] + update_delta_[p]);
      }
    }
    return "";
  }

  std::string CloseAndReopen() override {
    db_.reset();
    auto opened = Database::Open(dir_, DurableOptions());
    if (!opened.ok()) return "reopen: " + opened.status().ToString();
    db_ = std::move(opened).ValueOrDie();
    auto r = db_->Execute("SELECT id, bal FROM acct");
    if (!r.ok()) return "reopen scan: " + r.status().ToString();
    std::string err = CompareAll(r.ValueOrDie());
    db_.reset();
    return err.empty() ? "" : "after reopen: " + err;
  }

 private:
  /// A key of the client's own partition (ids of its parity).
  size_t Key(Client& c) {
    return 2 * zipf_.Sample(c.rng()) + c.index();
  }

  void PointSelect(Client& c, Cls cls) {
    c.current = cls;
    const size_t id = Key(c);
    const std::string sql =
        cls == kSelPrep ? Fmt("EXECUTE sel (%zu)", id)
                        : Fmt("SELECT bal FROM acct WHERE id = %zu", id);
    auto t0 = Clock::now();
    auto r = c.Run(sql);
    const double ms = MsSince(t0);
    const bool ok = r.ok() && r.ValueOrDie().rows.size() == 1 &&
                    AsI(r.ValueOrDie().rows[0][0]) == bal_[id];
    if (c.tracing) c.issued[cls].push_back(sql);
    c.Finish(cls, ms, ok);
  }

  void Update(Client& c) {
    c.current = kUpdate;
    const size_t id = Key(c);
    const int64_t v = c.rng().Int(1'000, 100'000);
    const std::string sql = Fmt("UPDATE acct SET bal = %" PRId64 " WHERE id = %zu", v, id);
    auto t0 = Clock::now();
    auto r = c.Run(sql);
    const double ms = MsSince(t0);
    const bool ok = r.ok() && r.ValueOrDie().affected_rows == 1;
    if (ok) {
      update_delta_[c.index()] += v - bal_[id];
      bal_[id] = v;
    }
    c.Finish(kUpdate, ms, ok);
  }

  void Transfer(Client& c) {
    c.current = kTransfer;
    const size_t from = Key(c);
    size_t to = Key(c);
    while (to == from) to = Key(c);
    const int64_t amount = c.rng().Int(1, 100);
    auto sql = [](size_t id, int64_t delta) {
      return Fmt("UPDATE acct SET bal = bal + %" PRId64 " WHERE id = %zu", delta, id);
    };
    const std::string debit = sql(from, -amount), credit = sql(to, amount);
    auto upd = [&](const std::string& s) {
      auto r = c.Run(s);
      return r.ok() && r.ValueOrDie().affected_rows == 1;
    };
    auto t0 = Clock::now();
    bool ok = c.Run("BEGIN").ok();
    ok = ok && upd(debit) && upd(credit);
    ok = ok && c.Run("COMMIT").ok();
    const double ms = MsSince(t0);
    if (ok) {
      bal_[from] -= amount;
      bal_[to] += amount;
    } else {
      (void)c.Run("ROLLBACK");
    }
    c.Finish(kTransfer, ms, ok);
  }

  std::string CompareAll(const QueryResult& r) const {
    if (r.rows.size() != kRows) {
      return Fmt("full scan: %zu rows, expected %zu", r.rows.size(), kRows);
    }
    std::vector<bool> seen(kRows, false);
    for (const auto& row : r.rows) {
      const int64_t id = AsI(row[0]);
      if (id < 0 || static_cast<size_t>(id) >= kRows || seen[id]) {
        return Fmt("full scan: unexpected id %" PRId64, id);
      }
      seen[id] = true;
      if (AsI(row[1]) != bal_[id]) {
        return Fmt("full scan: id %" PRId64 " bal %" PRId64 " != %" PRId64, id,
                   AsI(row[1]), bal_[id]);
      }
    }
    return "";
  }

  const uint64_t seed_;
  const Zipf zipf_;
  std::string dir_;
  std::unique_ptr<Database> db_;
  /// Shadow of every balance; each client writes only its own parity.
  std::vector<int64_t> bal_;
  int64_t initial_total_[2] = {0, 0};
  int64_t update_delta_[2] = {0, 0};
};

// ---------------------------------------------------------------------------
// analytic: operators, morsel parallelism and in-database inference.

class Analytic final : public Workload {
 public:
  enum Cls { kScan, kGroup, kJoin, kPredict };
  static constexpr size_t kVariants = 8;
  static constexpr size_t kGroups = 64;
  static constexpr size_t kDimRows = 256;
  static constexpr size_t kDimGroups = 8;
  /// label = 3*x1 - 2*x2 + 5 + noise, noise uniform in [-1, 1].
  static double Truth(double x1, double x2) { return 3.0 * x1 - 2.0 * x2 + 5.0; }
  /// How far the trained model may stray from Truth() anywhere on the
  /// domain: a tenth of the noise amplitude. The traced run prints the
  /// largest deviation it sees as db4ai.model_max_abs_error.
  static constexpr double kModelSlack = 0.1;
  /// Relative tolerance for floating-point sums (summation order differs
  /// between plans and worker counts).
  static constexpr double kSumTol = 1e-9;

  static constexpr size_t kRows = 1'000'000;
  static constexpr size_t kTrainRows = 20'000;

  explicit Analytic(const Options& o) : seed_(o.seed) {}

  std::vector<std::string> classes() const override {
    return {"scan_agg", "group_agg", "join_agg", "predict_filter"};
  }
  std::vector<bool> read_classes() const override {
    return {true, true, true, true};
  }
  size_t sessions() const override { return 1; }
  size_t dop() const override { return 4; }
  size_t setups() const override { return 2; }
  size_t segment_rounds() const override { return kVariants; }
  bool fresh_segments() const override { return false; }
  size_t warm_rounds() const override { return kVariants; }
  size_t trace_rounds() const override { return 2 * kVariants; }
  std::string flush_policy() const override { return "in-memory, no WAL"; }
  std::string inputs() const override {
    return Fmt("fact(id, g, d_id, v, x1, x2, label): %zu rows, g uniform in "
               "[0,64), d_id uniform in [0,256), x1/x2 uniform in [0,10), "
               "label = 3*x1 - 2*x2 + 5 + U(-1,1); dim(id, grp, w): 256 rows; "
               "linear model m trained on a %zu-row sample; 8 literal variants "
               "per class selecting 50%% (join: 25%%) of fact",
               kRows, kTrainRows);
  }

  Status Setup(const std::string& /*dir*/, SetupTimes* t) override {
    db_.reset();
    if (fact_.empty()) Generate();
    auto t0 = Clock::now();
    db_ = std::make_unique<Database>();
    db_->SetDop(dop());
    AIDB_RETURN_NOT_OK(Exec(db_.get(),
        "CREATE TABLE fact (id INT, g INT, d_id INT, v INT, x1 DOUBLE, "
        "x2 DOUBLE, label DOUBLE)"));
    AIDB_RETURN_NOT_OK(Exec(db_.get(), "CREATE TABLE dim (id INT, grp INT, w DOUBLE)"));
    AIDB_RETURN_NOT_OK(Exec(db_.get(),
        "CREATE TABLE train (x1 DOUBLE, x2 DOUBLE, label DOUBLE)"));
    AIDB_RETURN_NOT_OK(LoadRows(db_.get(), "fact", kRows, [&](size_t i) {
      const Row& r = fact_[i];
      return Fmt("%zu, %" PRId64 ", %" PRId64 ", %" PRId64 ", %s, %s, %s", i, r.g,
                 r.d, r.v, DecimalText(r.x1_units, 4).c_str(),
                 DecimalText(r.x2_units, 4).c_str(),
                 DecimalText(r.label_units, 6).c_str());
    }, t));
    AIDB_RETURN_NOT_OK(LoadRows(db_.get(), "dim", kDimRows, [&](size_t i) {
      return Fmt("%zu, %zu, %zu.5", i, i % kDimGroups, i);
    }, t));
    AIDB_RETURN_NOT_OK(LoadRows(db_.get(), "train", kTrainRows, [&](size_t i) {
      return train_text_[i];
    }, t));
    t->load_s = SecondsSince(t0);
    auto t1 = Clock::now();
    AIDB_RETURN_NOT_OK(Exec(db_.get(), "ANALYZE fact"));
    AIDB_RETURN_NOT_OK(Exec(db_.get(), "ANALYZE dim"));
    t->index_s = SecondsSince(t1);
    auto t2 = Clock::now();
    AIDB_RETURN_NOT_OK(Exec(db_.get(),
        "CREATE MODEL m TYPE linear PREDICT label ON train FEATURES (x1, x2)"));
    t->train_s = SecondsSince(t2);
    t->total_s = SecondsSince(t0);
    return Status::OK();
  }

  Database* db() override { return db_.get(); }

  Status OpenClient(Client& c) override {
    c.session().set_dop(dop());
    return Status::OK();
  }

  void Round(Client& c) override {
    const size_t k = round_++ % kVariants;
    Run(c, kScan, k);
    Run(c, kGroup, k);
    Run(c, kJoin, k);
    Run(c, kPredict, k);
  }

  std::string SampleSql(size_t cls) override { return Sql(cls, 0); }

  std::string CheckAfterDrain(Client& c) override {
    auto r = c.Run("SELECT COUNT(*) FROM fact");
    if (!r.ok()) return "count: " + r.status().ToString();
    if (static_cast<size_t>(AsI(r.ValueOrDie().rows.at(0)[0])) != kRows) {
      return "count: fact lost rows";
    }
    return "";
  }

  std::string CloseAndReopen() override {
    db_.reset();
    return "";
  }

  void TraceExtras(std::map<std::string, double>* out) override {
    auto fn = db_->models().Resolve("m");
    if (!fn.ok()) return;
    const aidb::exec::PredictFn& predict = fn.ValueOrDie();
    const size_t n = 200'000;
    std::vector<double> x(2);
    std::vector<double> pred(n);
    auto t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      x[0] = fact_[i].x1;
      x[1] = fact_[i].x2;
      pred[i] = predict(x);
    }
    (*out)["db4ai.predict_us_per_row"] = MsSince(t0) * 1000.0 / static_cast<double>(n);
    // How far the trained model strays from Truth(); must stay below
    // kModelSlack for the predict_filter band to hold. Printed, not gated.
    double err = 0.0;
    for (size_t i = 0; i < n; ++i) {
      err = std::max(err, std::fabs(pred[i] - Truth(fact_[i].x1, fact_[i].x2)));
    }
    (*out)["db4ai.model_max_abs_error"] = err;
  }

 private:
  /// x1, x2 and label are the values of the decimal texts of their units
  /// (4, 4 and 6 digits after the point), which is what set-up inserts.
  struct Row {
    int64_t g, d, v;
    int64_t x1_units, x2_units, label_units;
    double x1, x2, label;
  };
  struct ScanExpect {
    int64_t count = 0, sum_v = 0;
    double sum_x2 = 0.0;
  };
  struct GroupExpect {
    std::vector<int64_t> count, sum_v;
  };

  /// units / 10^digits as a decimal text with `digits` digits after the
  /// point, from integers alone (set-up renders a million rows with it).
  static std::string DecimalText(int64_t units, int digits) {
    int64_t scale = 1;
    for (int i = 0; i < digits; ++i) scale *= 10;
    const uint64_t mag = static_cast<uint64_t>(units < 0 ? -units : units);
    return Fmt("%s%" PRIu64 ".%0*" PRIu64, units < 0 ? "-" : "", mag / scale, digits,
               mag % static_cast<uint64_t>(scale));
  }

  /// Renders a value the way it is inserted and reads it back, so the
  /// plain-C++ side uses exactly the value the engine parses.
  static double Decimal(int64_t units, int digits, std::string* text) {
    *text = DecimalText(units, digits);
    return std::strtod(text->c_str(), nullptr);
  }

  void Generate() {
    Rng rng(seed_ ^ 0x616e616cull);
    fact_.resize(kRows);
    std::string text;
    for (size_t i = 0; i < kRows; ++i) {
      Row& r = fact_[i];
      r.g = rng.Int(0, kGroups - 1);
      r.d = rng.Int(0, kDimRows - 1);
      r.v = rng.Int(0, 999);
      r.x1_units = rng.Int(0, 99'999);
      r.x2_units = rng.Int(0, 99'999);
      r.x1 = Decimal(r.x1_units, 4, &text);
      r.x2 = Decimal(r.x2_units, 4, &text);
      const double noise = rng.Uniform() * 2.0 - 1.0;
      r.label_units = std::llround((Truth(r.x1, r.x2) + noise) * 1e6);
      r.label = Decimal(r.label_units, 6, &text);
    }
    train_text_.resize(kTrainRows);
    for (size_t i = 0; i < kTrainRows; ++i) {
      std::string a, b, l;
      const double x1 = Decimal(rng.Int(0, 99'999), 4, &a);
      const double x2 = Decimal(rng.Int(0, 99'999), 4, &b);
      Decimal(std::llround((Truth(x1, x2) + rng.Uniform() * 2.0 - 1.0) * 1e6), 6, &l);
      train_text_[i] = a + ", " + b + ", " + l;
    }
    // Literal variants and their expected results. Variant k of a class
    // compares with (base + k) / 100, so the variants select almost the same
    // share of rows and a class's latencies form one cluster at any seed.
    const int64_t base[4] = {500, 500, 250, 500};
    for (size_t cls = 0; cls < 4; ++cls) {
      for (size_t k = 0; k < kVariants; ++k) {
        thresholds_[cls][k] = Decimal(base[cls] + static_cast<int64_t>(k), 2,
                                      &threshold_text_[cls][k]);
      }
    }
    for (size_t k = 0; k < kVariants; ++k) {
      ScanExpect& s = scan_[k];
      s = ScanExpect{};
      GroupExpect& g = group_[k];
      g.count.assign(kGroups, 0);
      g.sum_v.assign(kGroups, 0);
      GroupExpect& j = join_[k];
      j.count.assign(kDimGroups, 0);
      j.sum_v.assign(kDimGroups, 0);
      predict_lo_[k] = predict_hi_[k] = 0;
      for (const Row& r : fact_) {
        if (r.x1 < thresholds_[kScan][k]) {
          ++s.count;
          s.sum_v += r.v;
          s.sum_x2 += r.x2;
        }
        if (r.x2 < thresholds_[kGroup][k]) {
          ++g.count[r.g];
          g.sum_v[r.g] += r.v;
        }
        if (r.x1 < thresholds_[kJoin][k]) {
          ++j.count[r.d % kDimGroups];
          j.sum_v[r.d % kDimGroups] += r.v;
        }
        if (r.x2 < thresholds_[kPredict][k]) {
          const double noise = r.label - Truth(r.x1, r.x2);
          if (noise < -kModelSlack) ++predict_lo_[k];
          if (noise < kModelSlack) ++predict_hi_[k];
        }
      }
    }
  }

  std::string Sql(size_t cls, size_t k) const {
    const char* t = threshold_text_[cls][k].c_str();
    switch (cls) {
      case kScan:
        return Fmt("SELECT COUNT(*), SUM(v), SUM(x2) FROM fact WHERE x1 < %s", t);
      case kGroup:
        return Fmt("SELECT g, COUNT(*), SUM(v) FROM fact WHERE x2 < %s GROUP BY g", t);
      case kJoin:
        return Fmt("SELECT dim.grp, COUNT(*), SUM(fact.v) FROM fact JOIN dim ON "
                   "fact.d_id = dim.id WHERE fact.x1 < %s GROUP BY dim.grp", t);
      default:
        return Fmt("SELECT COUNT(*) FROM fact WHERE x2 < %s AND "
                   "label < PREDICT(m, x1, x2)", t);
    }
  }

  bool Check(size_t cls, size_t k, const QueryResult& r) const {
    switch (cls) {
      case kScan: {
        if (r.rows.size() != 1) return false;
        const auto& row = r.rows[0];
        const ScanExpect& e = scan_[k];
        if (AsI(row[0]) != e.count) return false;
        if (e.count == 0) return true;  // SUM over no rows may be NULL
        return AsI(row[1]) == e.sum_v && Near(AsD(row[2]), e.sum_x2, kSumTol);
      }
      case kGroup:
      case kJoin: {
        const GroupExpect& e = cls == kGroup ? group_[k] : join_[k];
        size_t nonempty = 0;
        for (int64_t n : e.count) nonempty += n > 0;
        if (r.rows.size() != nonempty) return false;
        for (const auto& row : r.rows) {
          const int64_t key = AsI(row[0]);
          if (key < 0 || static_cast<size_t>(key) >= e.count.size()) return false;
          if (AsI(row[1]) != e.count[key] || AsI(row[2]) != e.sum_v[key]) return false;
        }
        return true;
      }
      default: {
        if (r.rows.size() != 1) return false;
        const int64_t n = AsI(r.rows[0][0]);
        return n >= predict_lo_[k] && n <= predict_hi_[k];
      }
    }
  }

  void Run(Client& c, size_t cls, size_t k) {
    c.current = cls;
    const std::string sql = Sql(cls, k);
    auto t0 = Clock::now();
    auto r = c.Run(sql);
    const double ms = MsSince(t0);
    const bool ok = r.ok() && Check(cls, k, r.ValueOrDie());
    if (c.tracing) c.issued[cls].push_back(sql);
    c.Finish(cls, ms, ok);
  }

  const uint64_t seed_;
  std::unique_ptr<Database> db_;
  size_t round_ = 0;
  /// Generated once per process; every set-up loads the same rows.
  std::vector<Row> fact_;
  std::vector<std::string> train_text_;
  double thresholds_[4][kVariants] = {};
  std::string threshold_text_[4][kVariants];
  ScanExpect scan_[kVariants];
  GroupExpect group_[kVariants];
  GroupExpect join_[kVariants];
  int64_t predict_lo_[kVariants] = {};
  int64_t predict_hi_[kVariants] = {};
};

// ---------------------------------------------------------------------------
// lsm_cold: the LSM storage engine under reads and writes.

class LsmCold final : public Workload {
 public:
  enum Cls { kSelect, kUpdate, kInsert, kRange };
  static constexpr size_t kMemtable = 256;
  static constexpr int64_t kRangeWidth = 500;

  static constexpr size_t kRows = 100 * kMemtable;

  explicit LsmCold(const Options& o) : seed_(o.seed) {}

  std::vector<std::string> classes() const override {
    return {"point_select", "point_update", "insert", "range_count"};
  }
  std::vector<bool> read_classes() const override {
    return {true, false, false, true};
  }
  size_t sessions() const override { return 1; }
  size_t dop() const override { return 1; }
  size_t setups() const override { return 16; }
  size_t segment_rounds() const override { return 250; }
  bool fresh_segments() const override { return true; }
  size_t warm_rounds() const override { return 4; }
  size_t trace_rounds() const override { return 200; }
  std::string flush_policy() const override {
    return std::string(kDurablePolicy) +
           Fmt("; LSM memtable %zu entries, size ratio 4, leveling, bloom 8 "
               "bits/key, maintenance inline",
               kMemtable);
  }
  std::string inputs() const override {
    return Fmt("kv(id, v, pad): %zu rows (%zux the memtable), B-tree index on "
               "id, paged out to SSTs at the end of set-up; keys uniform over "
               "all ids; round = 4 point_select, 1 point_update, 1 insert, "
               "1 range_count over %" PRId64 " ids",
               kRows, kRows / kMemtable, kRangeWidth);
  }

  Status Setup(const std::string& dir, SetupTimes* t) override {
    db_.reset();
    RemoveDir(dir);
    dir_ = dir;
    Rng rng(seed_ ^ 0x6c736dull);
    v_.resize(kRows);
    for (auto& v : v_) v = rng.Int(0, 1'000'000);

    auto t0 = Clock::now();
    auto opened = Database::Open(dir, DbOptions());
    if (!opened.ok()) return opened.status();
    db_ = std::move(opened).ValueOrDie();
    AIDB_RETURN_NOT_OK(Exec(db_.get(), "CREATE TABLE kv (id INT, v INT, pad STRING)"));
    AIDB_RETURN_NOT_OK(LoadRows(db_.get(), "kv", kRows, [&](size_t i) {
      return Fmt("%zu, %" PRId64 ", '%s'", i, v_[i], Pad(i).c_str());
    }, t));
    t->load_s = SecondsSince(t0);
    auto t1 = Clock::now();
    AIDB_RETURN_NOT_OK(Exec(db_.get(), "CREATE INDEX kv_id ON kv(id)"));
    AIDB_RETURN_NOT_OK(Exec(db_.get(), "ANALYZE kv"));
    t->index_s = SecondsSince(t1);
    auto t2 = Clock::now();
    AIDB_RETURN_NOT_OK(db_->FlushColdStorage(/*force=*/true));
    t->page_out_s = SecondsSince(t2);
    t->total_s = SecondsSince(t0);
    return Status::OK();
  }

  Database* db() override { return db_.get(); }

  Status OpenClient(Client& /*c*/) override { return Status::OK(); }

  void Round(Client& c) override {
    Select(c);
    Select(c);
    Update(c);
    Select(c);
    Range(c);
    Select(c);
    Insert(c);
  }

  std::string SampleSql(size_t cls) override {
    switch (cls) {
      case kSelect: return "SELECT v, pad FROM kv WHERE id = 4242";
      case kUpdate: return "UPDATE kv SET v = 5 WHERE id = 4242";
      case kInsert: return "INSERT INTO kv VALUES (99999999, 5, 'pad')";
      default: return "SELECT COUNT(*), SUM(v) FROM kv WHERE id >= 4242 AND id < 4742";
    }
  }

  std::string CheckAfterDrain(Client& c) override {
    auto r = c.Run("SELECT id, v, pad FROM kv");
    if (!r.ok()) return "full scan: " + r.status().ToString();
    return CompareAll(r.ValueOrDie());
  }

  std::string CloseAndReopen() override {
    db_.reset();
    auto opened = Database::Open(dir_, DbOptions());
    if (!opened.ok()) return "reopen: " + opened.status().ToString();
    db_ = std::move(opened).ValueOrDie();
    auto r = db_->Execute("SELECT id, v, pad FROM kv");
    if (!r.ok()) return "reopen scan: " + r.status().ToString();
    std::string err = CompareAll(r.ValueOrDie());
    db_.reset();
    return err.empty() ? "" : "after reopen: " + err;
  }

  double SstBytes() const override {
    double bytes = 0.0;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(dir_ + "/lsm", ec)) {
      if (e.path().extension() == ".sst") {
        bytes += static_cast<double>(e.file_size(ec));
      }
    }
    return bytes;
  }

  void SetStatementAccounting(bool on) override { accounting_ = on; }

  void TraceExtras(std::map<std::string, double>* out) override {
    (*out)["lsm.sst_disk_mb"] = SstBytes() / (1024.0 * 1024.0);
  }

 private:
  static DurabilityOptions DbOptions() {
    DurabilityOptions o = DurableOptions();
    o.lsm = true;
    o.lsm_design.memtable_capacity = kMemtable;
    return o;
  }

  std::string Pad(size_t id) const {
    uint64_t x = seed_ * 0x100000001B3ull + id;
    return Fmt("%016" PRIx64, SplitMix(&x));
  }

  uint64_t Gets() const { return db_->lsm_engine()->StatsSnapshot().gets; }

  /// Runs one statement, timing only the call; with accounting on, charges
  /// its cold gets. `check` sees the result after the clock has stopped.
  /// Returns whether the operation passed.
  template <typename Check>
  bool Op(Client& c, Cls cls, const std::string& sql, Check check) {
    c.current = cls;
    const uint64_t g0 = accounting_ ? Gets() : 0;
    auto t0 = Clock::now();
    auto r = c.Run(sql);
    const double ms = MsSince(t0);
    if (accounting_) c.recs()[cls].cold_gets += static_cast<double>(Gets() - g0);
    const bool ok = r.ok() && check(r.ValueOrDie());
    c.Finish(cls, ms, ok);
    if (c.tracing) c.issued[cls].push_back(sql);
    return ok;
  }

  size_t AnyId(Client& c) {
    return static_cast<size_t>(c.rng().Int(0, static_cast<int64_t>(v_.size()) - 1));
  }

  void Select(Client& c) {
    const size_t id = AnyId(c);
    const int64_t v = v_[id];
    const std::string pad = Pad(id);
    Op(c, kSelect, Fmt("SELECT v, pad FROM kv WHERE id = %zu", id),
       [&](const QueryResult& r) {
         return r.rows.size() == 1 && AsI(r.rows[0][0]) == v && Str(r.rows[0][1]) == pad;
       });
  }

  void Update(Client& c) {
    const size_t id = AnyId(c);
    const int64_t v = c.rng().Int(0, 1'000'000);
    if (Op(c, kUpdate, Fmt("UPDATE kv SET v = %" PRId64 " WHERE id = %zu", v, id),
           [](const QueryResult& r) { return r.affected_rows == 1; })) {
      v_[id] = v;
    }
  }

  void Insert(Client& c) {
    const size_t id = v_.size();
    const int64_t v = c.rng().Int(0, 1'000'000);
    if (Op(c, kInsert,
           Fmt("INSERT INTO kv VALUES (%zu, %" PRId64 ", '%s')", id, v, Pad(id).c_str()),
           [](const QueryResult& r) { return r.affected_rows == 1; })) {
      v_.push_back(v);
    }
  }

  void Range(Client& c) {
    const int64_t hi_start = static_cast<int64_t>(v_.size()) - kRangeWidth;
    const int64_t lo = c.rng().Int(0, std::max<int64_t>(0, hi_start));
    const int64_t hi = lo + kRangeWidth;
    int64_t count = 0, sum = 0;
    for (int64_t id = lo; id < hi && id < static_cast<int64_t>(v_.size()); ++id) {
      ++count;
      sum += v_[id];
    }
    Op(c, kRange,
       Fmt("SELECT COUNT(*), SUM(v) FROM kv WHERE id >= %" PRId64 " AND id < %" PRId64,
           lo, hi),
       [&](const QueryResult& r) {
         return r.rows.size() == 1 && AsI(r.rows[0][0]) == count &&
                (count == 0 || AsI(r.rows[0][1]) == sum);
       });
  }

  std::string CompareAll(const QueryResult& r) const {
    if (r.rows.size() != v_.size()) {
      return Fmt("full scan: %zu rows, expected %zu", r.rows.size(), v_.size());
    }
    std::vector<bool> seen(v_.size(), false);
    for (const auto& row : r.rows) {
      const int64_t id = AsI(row[0]);
      if (id < 0 || static_cast<size_t>(id) >= v_.size() || seen[id]) {
        return Fmt("full scan: unexpected id %" PRId64, id);
      }
      seen[id] = true;
      if (AsI(row[1]) != v_[id] || Str(row[2]) != Pad(id)) {
        return Fmt("full scan: id %" PRId64 " differs", id);
      }
    }
    return "";
  }

  const uint64_t seed_;
  std::string dir_;
  std::unique_ptr<Database> db_;
  /// Shadow of v by id; ids are dense, inserts append.
  std::vector<int64_t> v_;
  bool accounting_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const Options& o) {
  if (name == "oltp") return std::make_unique<Oltp>(o);
  if (name == "analytic") return std::make_unique<Analytic>(o);
  if (name == "lsm_cold") return std::make_unique<LsmCold>(o);
  return nullptr;
}

}  // namespace e2e
