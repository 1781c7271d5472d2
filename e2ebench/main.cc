// aidb_e2ebench: end-to-end benchmark through server::Service.
//
//   aidb_e2ebench --workload oltp|analytic|lsm_cold --seed N --seconds S
//                 --trace 0|1 --dir DIR [--report FILE]
//
// --trace 0 (timed run): set up Workload::setups() times, then run timed
// segments until S seconds of them have passed. A segment is a fresh Service,
// a warm-up and Workload::segment_rounds() whole rounds per client with spans
// and tracing off; a workload with fresh_segments() set up again before each
// segment and checks the reopened database after it. Prints the end-to-end
// metrics: each a median over segments, setup_s the median of all set-ups.
//
// --trace 1 (traced run): set up once, warm up, run a fixed number of rounds
// untraced (phase A) and the same number with request spans on (phase B),
// then time the layers' public calls directly. Prints the per-layer metrics;
// the spans go to the report file.
//
// The process runs on sessions x dop CPUs (PinCpus). Either way the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. The exit code is 0 only when
// every check passed and no operation failed.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "bench.h"
#include "sql/parser.h"
#include "storage/engine/lsm_engine.h"

namespace e2e {
namespace {

using aidb::Database;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") o->workload = val;
    else if (key == "--seed") o->seed = std::stoull(val);
    else if (key == "--seconds") o->seconds = std::stod(val);
    else if (key == "--trace") o->trace = val == "1";
    else if (key == "--dir") o->dir = val;
    else if (key == "--report") o->report = val;
    else return false;
  }
  return argc % 2 == 1 && !o->workload.empty() && !o->dir.empty();
}

/// Runs rounds on every client in parallel, either `rounds` each or, with
/// rounds == 0, until `seconds` have passed (checked between rounds, so
/// every client finishes whole rounds). Returns the elapsed seconds.
double RunRounds(Workload& w, std::vector<std::unique_ptr<Client>>& clients,
                 size_t rounds, double seconds) {
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto body = [&](Client* c) {
    for (size_t r = 0; rounds == 0 ? Clock::now() < deadline : r < rounds; ++r) {
      w.Round(*c);
    }
  };
  std::vector<std::thread> threads;
  for (size_t i = 1; i < clients.size(); ++i) threads.emplace_back(body, clients[i].get());
  body(clients[0].get());
  for (auto& t : threads) t.join();
  return MsSince(start) / 1000.0;
}

struct ClassSummary {
  std::string name;
  uint64_t attempted = 0, failed = 0;
  std::vector<double> ms;
};

std::vector<ClassSummary> Summarize(const Workload& w,
                                    std::vector<std::unique_ptr<Client>>& clients) {
  std::vector<ClassSummary> out;
  const auto names = w.classes();
  for (size_t k = 0; k < names.size(); ++k) {
    ClassSummary s;
    s.name = names[k];
    for (auto& c : clients) {
      const ClassRec& r = c->recs()[k];
      s.attempted += r.attempted;
      s.failed += r.failed;
      s.ms.insert(s.ms.end(), r.ms.begin(), r.ms.end());
    }
    out.push_back(std::move(s));
  }
  return out;
}

void ClearTimings(std::vector<std::unique_ptr<Client>>& clients) {
  for (auto& c : clients) {
    for (ClassRec& r : c->recs()) r.ms.clear();
  }
}

std::map<std::string, double> MetricMap(const Database& db) {
  std::map<std::string, double> m;
  for (const auto& s : db.metrics().Snapshot()) m[s.name] = s.value;
  return m;
}

/// " v1 v2 ..." for a note.
std::string Joined(const std::vector<double>& v) {
  std::string out;
  for (double x : v) {
    out += ' ';
    out += JsonNumber(x);
  }
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Sums EXPLAIN ANALYZE self times (inclusive minus children) by kind.
void SelfTimes(const aidb::exec::TraceNode& n, std::map<std::string, double>* ms) {
  double child_us = 0.0;
  for (const auto& ch : n.children) {
    child_us += ch.time_us;
    SelfTimes(ch, ms);
  }
  std::string kind = "other";
  if (n.op.find("Scan") != std::string::npos) kind = "scan";
  else if (n.op.find("Filter") != std::string::npos) kind = "filter";
  else if (n.op.find("Join") != std::string::npos) kind = "join";
  else if (n.op.find("Aggregate") != std::string::npos) kind = "agg";
  (*ms)[kind] += std::max(0.0, n.time_us - child_us) / 1000.0;
}

/// Median of `reps` timed calls of `fn`, microseconds.
template <typename Fn>
double TimeUs(size_t reps, Fn fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (size_t i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    fn();
    us.push_back(MsSince(t0) * 1000.0);
  }
  return Median(std::move(us));
}

/// The traced run: phase A (untraced) and phase B (request spans on) run the
/// same number of rounds, then the layers' public calls are timed directly.
/// Fills `out` with the per-layer metrics.
void Trace(Workload& w, aidb::server::Service& svc,
           std::vector<std::unique_ptr<Client>>& clients,
           std::map<std::string, double>* out, std::string* spans_json,
           std::vector<std::string>* notes) {
  Database* db = w.db();
  const auto names = w.classes();
  const auto reads = w.read_classes();

  // Phase A: untraced.
  for (auto& c : clients) c->timing = true;
  RunRounds(w, clients, w.trace_rounds(), 0.0);
  std::vector<double> p50_a;
  for (const auto& s : Summarize(w, clients)) p50_a.push_back(Median(s.ms));
  ClearTimings(clients);

  // Phase B: request spans on, counters bracketed.
  const auto m0 = MetricMap(*db);
  const uint64_t hits0 = db->plan_cache().hits(), miss0 = db->plan_cache().misses();
  const aidb::DurabilityStats d0 = db->durability_stats();
  aidb::LsmStats l0;
  if (db->lsm_engine()) l0 = db->lsm_engine()->StatsSnapshot();
  db->spans().set_capacity(1u << 20);
  db->spans().Clear();
  db->EnableSpans(true);
  w.SetStatementAccounting(true);
  for (auto& c : clients) c->tracing = true;
  RunRounds(w, clients, w.trace_rounds(), 0.0);
  svc.Drain();
  db->EnableSpans(false);
  w.SetStatementAccounting(false);
  for (auto& c : clients) c->tracing = false;
  const auto m1 = MetricMap(*db);
  const aidb::DurabilityStats d1 = db->durability_stats();
  aidb::LsmStats l1;
  if (db->lsm_engine()) l1 = db->lsm_engine()->StatsSnapshot();
  const double hits = static_cast<double>(db->plan_cache().hits() - hits0);
  const double misses = static_cast<double>(db->plan_cache().misses() - miss0);

  // Attribute spans to classes: per session, request spans in start order
  // pair one-to-one with the statements the client issued.
  const std::vector<aidb::monitor::Span> spans = db->spans().Snapshot();
  *spans_json = "[";
  for (const auto& s : spans) {
    *spans_json += (spans_json->size() > 1 ? ",\n" : "") + aidb::monitor::SpanToJson(s);
  }
  *spans_json += "]";
  std::map<uint64_t, std::vector<const aidb::monitor::Span*>> requests;
  for (const auto& s : spans) {
    if (s.name == "request") requests[s.session_id].push_back(&s);
  }
  std::map<uint64_t, size_t> class_of_trace;
  for (auto& c : clients) {
    auto& req = requests[c->session().id()];
    std::sort(req.begin(), req.end(), [](const auto* a, const auto* b) {
      return a->start_us < b->start_us;
    });
    if (req.size() != c->statement_log.size()) {
      notes->push_back("span attribution: session " +
                       std::to_string(c->session().id()) + " has " +
                       std::to_string(req.size()) + " request spans for " +
                       std::to_string(c->statement_log.size()) + " statements");
      continue;
    }
    for (size_t i = 0; i < req.size(); ++i) {
      class_of_trace[req[i]->trace_id] = c->statement_log[i];
    }
  }
  std::map<std::string, std::vector<std::vector<double>>> by_class;
  std::map<std::string, std::vector<double>> by_name;
  for (const char* n : {"queue_wait", "parse", "plan", "execute", "commit", "wal_flush"}) {
    by_class[n].resize(names.size());
  }
  for (const auto& s : spans) {
    auto bc = by_class.find(s.name);
    if (bc == by_class.end()) continue;
    by_name[s.name].push_back(s.dur_us);
    auto it = class_of_trace.find(s.trace_id);
    if (it != class_of_trace.end()) bc->second[it->second].push_back(s.dur_us);
  }
  for (size_t k = 0; k < names.size(); ++k) {
    (*out)["server.queue_wait_p50_us." + names[k]] = Median(by_class["queue_wait"][k]);
    (*out)["exec.execute_p50_us." + names[k]] = Median(by_class["execute"][k]);
  }
  (*out)["txn.commit_p50_us"] = Median(by_name["commit"]);
  (*out)["wal.flush_p50_us"] = Median(by_name["wal_flush"]);
  (*out)["server.plan_cache_hit_ratio"] = Ratio(hits, hits + misses);

  // Span overhead: traced against untraced p50 of the same rounds.
  std::vector<double> overhead;
  const auto phase_b = Summarize(w, clients);
  for (size_t k = 0; k < names.size(); ++k) {
    const double b = Median(phase_b[k].ms);
    if (p50_a[k] > 0.0 && b > 0.0) overhead.push_back((b / p50_a[k] - 1.0) * 100.0);
    notes->push_back(names[k] + ": untraced p50 " + JsonNumber(p50_a[k]) +
                     " ms, traced p50 " + JsonNumber(b) + " ms");
  }
  (*out)["trace.span_overhead_pct"] = Median(overhead);

  // Work per returned row, writes and their costs.
  uint64_t writes = 0;
  for (auto& c : clients) writes += c->writes;
  for (size_t k = 0; k < names.size(); ++k) {
    if (!reads[k]) continue;
    double work = 0.0, rows = 0.0;
    for (auto& c : clients) {
      work += c->recs()[k].work;
      rows += c->recs()[k].rows;
    }
    (*out)["exec.rows_examined_per_row_returned." + names[k]] = Ratio(work, rows);
  }
  auto delta = [&](const char* name) {
    auto a = m0.find(name), b = m1.find(name);
    return (b == m1.end() ? 0.0 : b->second) - (a == m0.end() ? 0.0 : a->second);
  };
  const double wr = static_cast<double>(writes);
  (*out)["txn.conflicts"] = delta("txn.conflicts");
  (*out)["mvcc.versions_freed_per_write"] = Ratio(delta("mvcc.versions_freed"), wr);
  (*out)["wal.bytes_per_write"] =
      Ratio(static_cast<double>(d1.wal.bytes_written - d0.wal.bytes_written), wr);
  (*out)["wal.flushes_per_1k_writes"] =
      Ratio(static_cast<double>(d1.wal.flushes - d0.wal.flushes) * 1000.0, wr);
  (*out)["storage.checkpoints"] =
      static_cast<double>(d1.checkpoints_written - d0.checkpoints_written);

  if (db->lsm_engine()) {
    auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
    for (size_t k = 0; k < names.size(); ++k) {
      double gets = 0.0, stmts = 0.0;
      for (auto& c : clients) {
        gets += c->recs()[k].cold_gets;
        stmts += static_cast<double>(c->recs()[k].statements);
      }
      (*out)["lsm.cold_gets_per_stmt." + names[k]] = Ratio(gets, stmts);
    }
    (*out)["lsm.read_amp"] = Ratio(d(l0.runs_probed, l1.runs_probed), d(l0.gets, l1.gets));
    (*out)["lsm.bloom_negative_ratio"] =
        Ratio(d(l0.bloom_negatives, l1.bloom_negatives), d(l0.bloom_probes, l1.bloom_probes));
    (*out)["lsm.zone_prune_ratio"] =
        Ratio(d(l0.zone_prunes, l1.zone_prunes), d(l0.zone_checks, l1.zone_checks));
    (*out)["lsm.write_amp"] = Ratio(d(l0.entries_compacted, l1.entries_compacted),
                                    d(l0.entries_written, l1.entries_written));
    (*out)["lsm.flushes"] = d(l0.flushes, l1.flushes);
    (*out)["lsm.compactions"] = d(l0.compactions, l1.compactions);
    (*out)["lsm.materialized"] = d(l0.materialized, l1.materialized);
  }

  // Direct calls into the front end and planner, on the first class whose
  // statement is a plain SELECT.
  size_t sel = names.size();
  for (size_t k = 0; k < names.size(); ++k) {
    auto parsed = aidb::sql::Parser::Parse(w.SampleSql(k));
    if (parsed.ok() && parsed.ValueOrDie()->kind() == aidb::sql::StatementKind::kSelect) {
      sel = k;
      break;
    }
  }
  if (sel < names.size()) {
    const std::string sql = w.SampleSql(sel);
    (*out)["sql.parse_p50_us"] = TimeUs(2000, [&] {
      auto r = aidb::sql::Parser::Parse(sql);
      if (!r.ok()) std::abort();
    });
    auto parsed = std::move(aidb::sql::Parser::Parse(sql)).ValueOrDie();
    const auto& select = static_cast<const aidb::sql::SelectStatement&>(*parsed);
    (*out)["exec.plan_p50_us"] = TimeUs(500, [&] {
      auto r = db->PlanQuery(select);
      if (!r.ok()) std::abort();
    });
    // The same statements the service ran, replayed through the facade.
    std::vector<std::string> replay;
    for (auto& c : clients) {
      replay.insert(replay.end(), c->issued[sel].begin(), c->issued[sel].end());
    }
    std::vector<double> facade_us;
    for (const auto& s : replay) {
      auto t0 = Clock::now();
      auto r = db->Execute(s);
      facade_us.push_back(MsSince(t0) * 1000.0);
      if (!r.ok()) notes->push_back("facade replay failed: " + r.status().ToString());
    }
    (*out)["server.service_minus_facade_p50_us"] =
        p50_a[sel] * 1000.0 - Median(facade_us);
  }

  // Per-operator self time from EXPLAIN ANALYZE, one session, nothing else
  // running (the engine keeps one last trace for the whole database).
  for (size_t k = 0; k < names.size(); ++k) {
    if (!reads[k]) continue;
    std::map<std::string, std::vector<double>> reps;
    for (int rep = 0; rep < 3; ++rep) {
      auto r = clients[0]->Run("EXPLAIN ANALYZE " + w.SampleSql(k));
      const aidb::exec::TraceNode* root = db->last_trace();
      if (!r.ok() || root == nullptr) continue;
      if (rep == 0) {
        std::string plan;
        for (const auto& row : r.ValueOrDie().rows) {
          plan += (plan.empty() ? "" : " | ") + row[0].ToString();
        }
        notes->push_back("EXPLAIN ANALYZE " + names[k] + ": " + plan);
      }
      std::map<std::string, double> self;
      SelfTimes(*root, &self);
      for (const char* kind : {"scan", "filter", "join", "agg", "other"}) {
        reps[kind].push_back(self[kind]);
      }
    }
    for (auto& [kind, v] : reps) {
      (*out)["op." + kind + ".self_ms." + names[k]] = Median(v);
    }
  }
  w.TraceExtras(out);
}

}  // namespace

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: aidb_e2ebench --workload oltp|analytic|lsm_cold --seed N "
                 "--seconds S --trace 0|1 --dir DIR [--report FILE]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(o.workload, o);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const auto names = w->classes();
  auto profile = MachineProfile(o, *w);
  profile["cpus"] = PinCpus(w->sessions() * w->dop());
  for (const auto& [k, v] : profile) std::printf("profile %s: %s\n", k.c_str(), v.c_str());

  // Set-up, several times; the last one is kept.
  std::vector<SetupTimes> st;
  auto setup = [&] {
    st.emplace_back();
    SetupTimes& t = st.back();
    aidb::Status s = w->Setup(o.dir + "/db", &t);
    if (!s.ok()) std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
    t.load_s -= t.render_s;
    t.total_s -= t.render_s;
    return s.ok();
  };
  for (size_t i = 0; i < (o.trace ? 1 : w->setups()); ++i) {
    if (!setup()) return 1;
  }

  std::vector<std::string> notes;
  std::map<std::string, double> e2e_metrics, layer;
  std::string spans_json;
  std::vector<ClassSummary> summary;
  bool correct = true;
  double sst_mb = 0.0;
  std::vector<std::unique_ptr<Client>> clients;
  // Opens one session per client on `svc` (creating the clients the first
  // time) and runs `warm` untimed rounds.
  auto attach = [&](aidb::server::Service& svc, size_t warm) {
    for (size_t i = 0; i < w->sessions(); ++i) {
      if (clients.size() <= i) {
        clients.push_back(std::make_unique<Client>(&svc, svc.OpenSession(), i,
                                                   names.size(),
                                                   o.seed * 1'000'003ull + i));
      } else {
        clients[i]->Attach(&svc, svc.OpenSession());
      }
      aidb::Status s = w->OpenClient(*clients[i]);
      if (!s.ok()) {
        std::fprintf(stderr, "session set-up failed: %s\n", s.ToString().c_str());
        return false;
      }
    }
    RunRounds(*w, clients, warm, 0.0);
    return true;
  };
  auto check = [&](aidb::server::Service& svc) {
    svc.Drain();
    summary = Summarize(*w, clients);
    sst_mb = w->SstBytes() / (1024.0 * 1024.0);
    std::string err = w->CheckAfterDrain(*clients[0]);
    if (!err.empty()) {
      correct = false;
      notes.push_back("check after drain: " + err);
    }
  };

  if (o.trace) {
    aidb::server::Service svc(w->db());
    if (!attach(svc, w->warm_rounds())) return 1;
    for (const auto& n : PerLayerNames()) layer[n] = 0.0;
    layer["setup.load_s"] = st[0].load_s;
    layer["setup.index_s"] = st[0].index_s;
    layer["setup.train_s"] = st[0].train_s;
    layer["setup.page_out_s"] = st[0].page_out_s;
    Trace(*w, svc, clients, &layer, &spans_json, &notes);
    check(svc);
  } else {
    // Segments of a fixed number of rounds, each with a fresh Service and
    // sessions (so fresh worker threads); a class's p50 is the median of its
    // per-segment p50s, which keeps one slow stretch from moving the run.
    std::vector<std::vector<double>> seg_p50(names.size());
    std::vector<double> seg_ops, seg_rss;
    std::vector<std::vector<double>> all_ms(names.size());
    double timed_s = 0.0;
    for (size_t seg = 0; seg == 0 || timed_s < o.seconds; ++seg) {
      if (seg > 0 && w->fresh_segments() && !setup()) return 1;
      const bool fresh = seg == 0 || w->fresh_segments();
      {
        aidb::server::Service svc(w->db());
        if (!attach(svc, fresh ? w->warm_rounds() : 1)) return 1;
        for (auto& c : clients) c->timing = true;
        const double elapsed = RunRounds(*w, clients, w->segment_rounds(), 0.0);
        svc.Drain();
        for (auto& c : clients) c->timing = false;
        timed_s += elapsed;
        const auto part = Summarize(*w, clients);
        // Operations that failed their check keep no latency, so they count
        // in neither the throughput nor the p50s.
        double ops = 0.0;
        for (size_t k = 0; k < part.size(); ++k) {
          ops += static_cast<double>(part[k].ms.size());
          seg_p50[k].push_back(Median(part[k].ms));
          all_ms[k].insert(all_ms[k].end(), part[k].ms.begin(), part[k].ms.end());
        }
        seg_ops.push_back(ops / elapsed);
        // Freed heap pages go back to the OS first, so that memory the
        // set-ups freed but the allocator kept does not count.
        malloc_trim(0);
        seg_rss.push_back(CurrentRssMb());
        ClearTimings(clients);
        check(svc);
      }
      if (w->fresh_segments()) {
        std::string err = w->CloseAndReopen();
        if (!err.empty()) {
          correct = false;
          notes.push_back("check after reopen, segment " + std::to_string(seg + 1) +
                          ": " + err);
        }
      }
    }
    for (size_t k = 0; k < names.size(); ++k) {
      summary[k].ms = std::move(all_ms[k]);
      e2e_metrics["op" + std::to_string(k + 1) + "_p50_ms"] = Median(seg_p50[k]);
      notes.push_back(names[k] + " p50 per segment (ms):" + Joined(seg_p50[k]));
    }
    notes.push_back("ops_per_s per segment:" + Joined(seg_ops));
    notes.push_back("RSS at the end of each segment (MB):" + Joined(seg_rss));
    e2e_metrics["ops_per_s"] = Median(seg_ops);
    // Resident memory at the end of the timed segments, not the process
    // peak, which the set-ups may set. The smallest: heap freed with an
    // earlier database now and then stays mapped for a few segments, which
    // only ever adds to a segment's figure.
    e2e_metrics["rss_mb"] = *std::min_element(seg_rss.begin(), seg_rss.end());
    notes.push_back("peak RSS of the process (MB): " + JsonNumber(PeakRssMb()));
  }
  auto med = [&](double SetupTimes::*f) {
    std::vector<double> v;
    for (const auto& t : st) v.push_back(t.*f);
    return Median(v);
  };
  if (!o.trace) e2e_metrics["setup_s"] = med(&SetupTimes::total_s);
  std::printf("setup: %zu set-ups, median %.3f s (load %.3f, index %.3f, train %.3f, "
              "page-out %.3f), peak RSS %.1f MB\n",
              st.size(), med(&SetupTimes::total_s), med(&SetupTimes::load_s),
              med(&SetupTimes::index_s), med(&SetupTimes::train_s),
              med(&SetupTimes::page_out_s), PeakRssMb());
  std::vector<double> setup_s;
  for (const auto& t : st) setup_s.push_back(t.total_s);
  notes.push_back("set-up times (s):" + Joined(setup_s));
  if (o.trace || !w->fresh_segments()) {
    std::string err = w->CloseAndReopen();
    if (!err.empty()) {
      correct = false;
      notes.push_back("check after reopen: " + err);
    }
  }
  uint64_t attempted = 0, failed = 0;
  for (size_t k = 0; k < summary.size(); ++k) {
    const ClassSummary& s = summary[k];
    attempted += s.attempted;
    failed += s.failed;
    // A tail is printed only with at least ten samples beyond it.
    auto tail = [&](double p) {
      const double beyond = (1.0 - p) * static_cast<double>(s.ms.size());
      return beyond >= 10.0 ? JsonNumber(Percentile(s.ms, p)) + " ms" : std::string("n/a");
    };
    std::printf("class op%zu %-16s attempted %llu failed %llu timed %zu p50 %s ms "
                "p95 %s p99 %s\n",
                k + 1, s.name.c_str(), static_cast<unsigned long long>(s.attempted),
                static_cast<unsigned long long>(s.failed), s.ms.size(),
                JsonNumber(Median(s.ms)).c_str(), tail(0.95).c_str(), tail(0.99).c_str());
  }
  if (sst_mb > 0.0) std::printf("sst_disk_mb (end of run): %.6f\n", sst_mb);
  for (const auto& n : notes) std::printf("note: %s\n", n.c_str());

  const std::map<std::string, const char*> units = {
      {"setup_s", "s"}, {"ops_per_s", "1/s"}, {"rss_mb", "MB"}};
  auto unit_of = [&](const std::string& n) -> std::string {
    auto it = units.find(n);
    if (it != units.end()) return it->second;
    if (n.size() > 3 && n.compare(n.size() - 3, 3, "_ms") == 0) return "ms";
    if (n.find("_ms.") != std::string::npos) return "ms";
    if (n.find("_us") != std::string::npos) return "us";
    if (n.find("_pct") != std::string::npos) return "%";
    if (n.find("_mb") != std::string::npos) return "MB";
    if (n.size() > 2 && n.compare(n.size() - 2, 2, "_s") == 0) return "s";
    if (n.find("ratio") != std::string::npos || n.find("amp") != std::string::npos ||
        n.find("per_") != std::string::npos) {
      return "ratio";
    }
    return "count";
  };
  const auto& metrics = o.trace ? layer : e2e_metrics;
  std::string json_metrics;
  auto emit = [&](const std::string& n, double v) {
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += "\"" + n + "\": {\"value\": " + JsonNumber(v) + ", \"unit\": \"" +
                    unit_of(n) + "\"}";
  };
  if (o.trace) {
    for (const auto& n : PerLayerNames()) emit(n, layer.at(n));
  } else {
    for (const auto& [n, v] : metrics) emit(n, v);
  }
  for (const auto& [n, v] : metrics) {
    std::printf("metric %s = %s %s\n", n.c_str(), JsonNumber(v).c_str(),
                unit_of(n).c_str());
  }

  if (!o.report.empty()) {
    std::ofstream rep(o.report);
    rep << "{\"workload\": \"" << o.workload << "\", \"trace\": " << (o.trace ? 1 : 0)
        << ", \"correct\": " << (correct ? "true" : "false") << ", \"profile\": {";
    bool first = true;
    for (const auto& [k, v] : profile) {
      rep << (first ? "" : ", ") << "\"" << k << "\": \"" << JsonEscape(v) << "\"";
      first = false;
    }
    rep << "}, \"classes\": [";
    for (size_t k = 0; k < summary.size(); ++k) {
      const ClassSummary& s = summary[k];
      rep << (k ? ", " : "") << "{\"slot\": \"op" << k + 1 << "\", \"name\": \""
          << s.name << "\", \"attempted\": " << s.attempted
          << ", \"failed\": " << s.failed << ", \"timed\": " << s.ms.size()
          << ", \"p50_ms\": " << JsonNumber(Median(s.ms))
          << ", \"p95_ms\": " << JsonNumber(Percentile(s.ms, 0.95))
          << ", \"p99_ms\": " << JsonNumber(Percentile(s.ms, 0.99)) << "}";
    }
    rep << "], \"sst_disk_mb\": " << JsonNumber(sst_mb) << ", \"metrics\": {"
        << json_metrics << "}, \"notes\": [";
    for (size_t i = 0; i < notes.size(); ++i) {
      rep << (i ? ", " : "") << "\"" << JsonEscape(notes[i]) << "\"";
    }
    rep << "]";
    if (o.trace) rep << ", \"spans\": " << spans_json;
    rep << "}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json_metrics.c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
