// perfbench: the end-to-end benchmark of the PEB-tree location service.
//
//   perfbench --workload <t1_read|road200k_read> --seed <n>
//             --seconds <s> --trace <0|1> [--scale <d>] [--corrupt]
//             [--data-dir <dir>]
//
// One process builds the workload from the seed (data, policies, and the
// Bx-tree + filtering baseline that checks answers), sets the service up
// several times (policy encoding + engine load; the median, at the
// reference host speed of speed.h, is setup_s), and drives
// MovingObjectService with an open-loop Poisson PRQ/PkNN mix, then a
// capacity search, a write probe and a restart. --trace 0 prints the
// end-to-end metrics; --trace 1 repeats the fixed-rate phase with every
// request traced, calls each module directly, and prints the per-layer
// metrics. The last stdout line is the result object; the first records
// the environment, and an untraced run prints its set-up time as measured
// in between. Exit code 1 on any answer mismatch. --scale divides the
// population (the self-test's tiny runs); --corrupt alters one checked
// answer, which must fail the run.
#include <sys/resource.h>
#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common.h"
#include "engine/sharded_engine.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "layers.h"
#include "open_loop.h"
#include "service/service.h"
#include "speed.h"
#include "storage/page.h"
#include "telemetry/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using peb::Status;
using peb::UpdateEvent;
using peb::engine::ShardedPebEngine;
using peb::eval::Distribution;
using peb::eval::Workload;
using peb::service::MovingObjectService;

// --- the benchmark's fixed settings ----------------------------------------
// p99 limit of service.max_qps_at_slo, which therefore finds the onset of
// saturation. Lower limits crossed t1_read's p99 curve where it is flat or
// where it reads the host's preemption of virtual CPUs (3-17 ms at 400 qps
// between runs); at 5 ms the rate found moved by 30% between runs.
constexpr double kSloMs = 50.0;
// Offered rate of the fixed phase. At 400 qps the workers' overlap made the
// medians read the host's noise four times over: a run slowed 8% in
// set-up served its fixed phase 33% slower.
constexpr double kFixedQps = 200.0;
constexpr double kWarmupS = 0.5;     // Untimed open loop before phases.
// Share of --seconds for the fixed-rate phase; the capacity search gets
// the rest. The traced run adds a traced twin of the fixed phase.
constexpr double kFixedShare = 0.55;
constexpr size_t kShards = 4;
// Service workers; the engine runs shard tasks inline on them. With the
// spinning generator that keeps three of four cores busy: on a 4-core
// virtual machine, busying all four let kernel and host work preempt the
// generator (late by 9 ms at p99) and the workers mid-query.
constexpr size_t kServiceWorkers = 2;
constexpr size_t kCorpusQueries = 4096;  // Per kind.
// The traced run's query p99s are the median of the p99s of this many
// slices of the fixed phase (about 200 queries of each kind per slice).
constexpr size_t kP99Windows = 5;
// Write probe after the measured phases: 64 batches of 1,024 events. A
// batch lands 256 events per shard, so one in 16 carries a delta merge.
constexpr size_t kProbeBatchEvents = 1024;
constexpr size_t kProbeBatches = 64;
// Restarts timed in the traced run; the median counts. An in-memory
// restart re-encodes the policies, so it gets fewer reps than a durable
// Open(). The untraced run restarts once, for the answer check.
constexpr size_t kOpenReps = 5;
constexpr size_t kReloadReps = 3;
// The capacity search brackets the workers' saturation rate, estimated
// from the fixed phase as workers / mean execution time: 0.35x of it meets
// the SLO and 1.4x of it cannot. Bracket ratio 4 -> 5% in 5 halvings.
constexpr double kSearchLoShare = 0.35;
constexpr double kSearchHiShare = 1.4;
constexpr size_t kSearchTrials = 5;
constexpr double kSearchResolution = 0.05;
constexpr size_t kLayerCalls = 400;  // Direct calls per kind, traced run.
constexpr size_t kCheckPrq = 48;  // PRQ answers checked per check point.

struct WorkloadSpec {
  const char* name;
  size_t users;
  Distribution distribution;
  bool durable;  // File-backed mmap engine with a WAL.
  size_t setup_reps;
  size_t check_knn;  // PkNN answers checked per check point (the
                     // baseline's PkNN is slow: 36 ms at 60k, 180 at 200k).
};

constexpr WorkloadSpec kSpecs[] = {
    {"t1_read", 60000, Distribution::kUniform, false, 3, 16},
    {"road200k_read", 200000, Distribution::kNetwork, true, 2, 4},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  double scale = 1.0;
  bool corrupt = false;
  std::string data_dir = ".bench_build/perfbench-data";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <d>] [--corrupt] "
               "[--data-dir <dir>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) Usage("--trace takes 0 or 1");
    } else if (flag == "--scale") {
      a.scale = std::strtod(v, &end);
    } else if (flag == "--data-dir") {
      a.data_dir = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + flag).c_str());
  }
  if (!have_seed) Usage("--seed is required");
  if (!(a.seconds > 0.0)) Usage("--seconds must be positive");
  if (!(a.scale >= 1.0)) Usage("--scale must be >= 1");
  return a;
}

const Clock::time_point kProcessStart = Clock::now();

/// Progress line on stderr, stamped with seconds since start.
void Log(const char* what) {
  std::fprintf(stderr, "perfbench: [%6.2f s] %s\n",
               SecondsBetween(kProcessStart, Clock::now()), what);
}

/// The values behind a reported median, on stderr.
void LogValues(const char* what, const std::vector<double>& v) {
  std::string line = what;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), " %.4g", x);
    line += buf;
  }
  Log(line.c_str());
}

[[noreturn]] void Fatal(const std::string& what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

double PeakRssMb() {
  struct rusage u;
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs s;
  if (statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x01021994: return "tmpfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Args& args, Workload& workload)
      : spec_(spec),
        args_(args),
        w_(workload),
        checker_(&workload.spatial_service(), args.corrupt),
        db_path_(args.data_dir + "/" + spec.name + ".db"),
        phase_s_(kFixedShare * args.seconds) {}

  int Run();

 private:
  peb::engine::EngineOptions EngineOpts() const {
    peb::engine::EngineOptions o;
    o.num_shards = kShards;
    o.num_threads = 0;  // Shard tasks run on the calling service worker.
    o.buffer_pages = w_.params().buffer_pages;
    o.tree = peb::eval::PebOptionsFor(w_.params());
    o.telemetry.registry = registry_.get();
    if (spec_.durable) {
      o.durability.path = db_path_;
      o.durability.sync_each_batch = true;
      o.durability.use_mmap = true;
      o.durability.overwrite_existing = true;
      // Destroying the engine is then a kill: no closing checkpoint.
      o.durability.checkpoint_on_close = false;
    }
    return o;
  }

  void RemoveDbFiles() const {
    std::error_code ec;
    fs::remove(db_path_, ec);
    fs::remove(db_path_ + ".wal", ec);
  }

  /// The catalog's encoder run again on the same policies.
  std::shared_ptr<const peb::EncodingSnapshot> Encode() const {
    const peb::CatalogOptions& c = w_.catalog()->options();
    return std::make_shared<const peb::EncodingSnapshot>(
        peb::EncodingSnapshot::Build(w_.store(), c.num_users, c.compat, c.sv,
                                     peb::SvQuantizer(c.sv_scale, c.sv_bits),
                                     c.strategy));
  }

  std::unique_ptr<MovingObjectService> MakeService(size_t workers) const {
    peb::service::ServiceOptions o;
    o.num_workers = workers;
    o.time_domain = w_.params().time_domain;
    o.telemetry.registry = registry_.get();
    return std::make_unique<MovingObjectService>(engine_.get(), w_.catalog(),
                                                 o);
  }

  QueryCorpus MakeCorpus(size_t count, uint64_t salt) const {
    peb::eval::QuerySetOptions q;
    q.count = count;
    q.seed = args_.seed * 1000003 + salt;
    return {peb::eval::MakePrqQueries(w_, q),
            peb::eval::MakePknnQueries(w_, q)};
  }

  void Setup();
  void PrintEnv() const;
  /// Kill, then restart the service; returns the median restart time. A
  /// durable engine restarts with Open() and its WAL replay (traced:
  /// kOpenReps restarts from the same killed state); an in-memory one has
  /// lost everything and re-encodes the policies and reloads the current
  /// dataset (traced: kReloadReps times).
  double Restart();
  /// Checks a few fresh queries, at the workload's current time, against
  /// the baseline.
  void CheckFresh(const char* where, uint64_t salt);
  /// After the measured phases: back-to-back batches of the workload's own
  /// update stream (the baseline advances with them), then a check.
  void WriteProbe();

  const WorkloadSpec& spec_;
  const Args& args_;
  Workload& w_;
  AnswerChecker checker_;
  const std::string db_path_;
  const double phase_s_;

  std::vector<double> encode_s_, load_s_, setup_s_;
  // Host-speed probe times (speed.h) around the set-up reps.
  std::vector<double> setup_probe_ms_;
  std::unique_ptr<peb::telemetry::MetricsRegistry> registry_;
  std::unique_ptr<ShardedPebEngine> engine_;
  std::unique_ptr<MovingObjectService> svc_;

  // Write-probe and restart figures.
  std::vector<double> batch_ms_;
  size_t backlog_max_ = 0;
  size_t replayed_events_ = 0;
  double wal_bytes_per_update_ = 0.0;
  double recovery_s_ = 0.0;
  size_t attempted_ = 0;
  MetricSink out_;
};

void Bench::Setup() {
  // The last rep's encoding is the catalog's own (timed while the workload
  // was built); its engine serves the run. Earlier reps run the same
  // encoder on the same policies and are discarded.
  setup_probe_ms_.push_back(SpeedProbeMs());
  for (size_t rep = 0; rep < spec_.setup_reps; ++rep) {
    const bool last = rep + 1 == spec_.setup_reps;
    std::shared_ptr<const peb::EncodingSnapshot> snapshot;
    double encode_s = w_.preprocessing_seconds();
    if (last) {
      snapshot = w_.catalog()->snapshot();
    } else {
      const Clock::time_point t0 = Clock::now();
      snapshot = Encode();
      encode_s = SecondsBetween(t0, Clock::now());
    }
    engine_.reset();
    RemoveDbFiles();
    registry_ = std::make_unique<peb::telemetry::MetricsRegistry>();
    const Clock::time_point t0 = Clock::now();
    engine_ = std::make_unique<ShardedPebEngine>(EngineOpts(), &w_.store(),
                                                 &w_.roles(), snapshot);
    Status s = engine_->durability_status();
    if (s.ok()) s = engine_->LoadDataset(w_.dataset());
    const double load_s = SecondsBetween(t0, Clock::now());
    if (!s.ok()) Fatal("engine load", s);
    encode_s_.push_back(encode_s);
    load_s_.push_back(load_s);
    setup_s_.push_back(encode_s + load_s);
    setup_probe_ms_.push_back(SpeedProbeMs());
  }
  LogValues("setup_s reps:", setup_s_);
  LogValues("setup probe ms:", setup_probe_ms_);
}

void Bench::PrintEnv() const {
  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"users\": %zu, "
      "\"index_pages\": %zu, \"pool_pages\": %zu, \"shards\": %zu, "
      "\"nproc\": %u, \"threads\": {\"generator\": 1, \"service_workers\": "
      "%zu, \"engine_workers\": 0}, \"build_type\": \"%s\", \"durable_fs\": "
      "\"%s\", \"fixed_qps\": %g, \"slo_ms\": %g}}\n",
      spec_.name, static_cast<unsigned long long>(args_.seed),
      w_.params().num_users, engine_->pool()->disk()->live_pages(),
      w_.params().buffer_pages, kShards, std::thread::hardware_concurrency(),
      kServiceWorkers, PERFBENCH_BUILD_TYPE,
      spec_.durable ? FilesystemOf(args_.data_dir).c_str() : "in-memory",
      kFixedQps, kSloMs);
  std::fflush(stdout);
}

double Bench::Restart() {
  svc_.reset();
  engine_.reset();
  std::vector<double> seconds;
  const size_t reps =
      !args_.trace ? 1 : spec_.durable ? kOpenReps : kReloadReps;
  for (size_t rep = 0; !spec_.durable && rep < reps; ++rep) {
    engine_.reset();
    const Clock::time_point t0 = Clock::now();
    engine_ = std::make_unique<ShardedPebEngine>(EngineOpts(), &w_.store(),
                                                 &w_.roles(), Encode());
    const Status s = engine_->LoadDataset(w_.dataset());
    if (!s.ok()) Fatal("reload", s);
    seconds.push_back(SecondsBetween(t0, Clock::now()));
  }
  // Every Open() starts from the same killed state: the files are saved
  // once and put back before each rep.
  const std::string saved = db_path_ + ".killed";
  std::error_code ec;
  auto copy = [&ec](const std::string& from, const std::string& to) {
    if (!ec) fs::copy_file(from, to, fs::copy_options::overwrite_existing, ec);
  };
  if (spec_.durable) {
    copy(db_path_, saved);
    copy(db_path_ + ".wal", saved + ".wal");
    if (ec) Fatal("saving the killed files", Status::IOError(ec.message()));
  }
  for (size_t rep = 0; spec_.durable && rep < reps; ++rep) {
    engine_.reset();
    copy(saved, db_path_);
    copy(saved + ".wal", db_path_ + ".wal");
    if (ec) Fatal("restoring the killed files", Status::IOError(ec.message()));
    const Clock::time_point t0 = Clock::now();
    auto r = ShardedPebEngine::Open(EngineOpts(), &w_.store(), &w_.roles(),
                                    w_.catalog()->snapshot());
    if (!r.ok()) Fatal("recovery", r.status());
    seconds.push_back(SecondsBetween(t0, Clock::now()));
    engine_ = std::move(*r);
  }
  fs::remove(saved, ec);
  fs::remove(saved + ".wal", ec);
  svc_ = MakeService(0);
  LogValues("restart reps:", seconds);
  return Median(seconds);
}

void Bench::CheckFresh(const char* where, uint64_t salt) {
  checker_.CheckCorpus(*svc_, MakeCorpus(kCheckPrq, salt), kCheckPrq / 3,
                       spec_.check_knn / 3 + 1, where);
}

void Bench::WriteProbe() {
  svc_ = MakeService(0);
  // Events are drawn (and applied to the baseline) before any is timed, so
  // the timed batches run back to back.
  std::vector<std::vector<UpdateEvent>> batches(
      std::max<size_t>(1, static_cast<size_t>(kProbeBatches / args_.scale)));
  for (auto& batch : batches) {
    for (size_t i = 0; i < kProbeBatchEvents; ++i) {
      auto ev = w_.ApplyNextUpdate();
      if (!ev.ok()) Fatal("baseline update", ev.status());
      batch.push_back(*ev);
    }
  }
  const double wal0 = FileBytes(db_path_ + ".wal");
  for (const auto& batch : batches) {
    const Clock::time_point t0 = Clock::now();
    const Status s = svc_->ApplyBatch(batch);
    batch_ms_.push_back(MsBetween(t0, Clock::now()));
    if (!s.ok()) Fatal("probe batch", s);
    backlog_max_ =
        std::max(backlog_max_, engine_->delta_stats().buffered_records);
    ++attempted_;
  }
  const size_t events = batches.size() * kProbeBatchEvents;
  const Status s = engine_->MergeDeltas();
  if (!s.ok()) Fatal("merge", s);
  CheckFresh("after writes", 3);
  if (spec_.durable) {
    replayed_events_ = events;
    wal_bytes_per_update_ = (FileBytes(db_path_ + ".wal") - wal0) / events;
  }
}

int Bench::Run() {
  Log("workload built");
  Setup();
  Log("setup done");
  svc_ = MakeService(kServiceWorkers);
  const QueryCorpus corpus = MakeCorpus(kCorpusQueries, 1);
  PrintEnv();

  OpenLoopConfig fixed;
  fixed.rate_qps = kFixedQps;
  fixed.duration_s = kWarmupS;
  fixed.seed = args_.seed * 31 + 1;
  RunOpenLoop(*svc_, corpus, fixed);
  Log("warmup done");

  // --- the fixed-rate phase (traced: and its twin on the same seed).
  fixed.duration_s = phase_s_;
  fixed.seed = args_.seed * 31 + 2;
  // About kCheckPrq PRQ and check_knn PkNN answers are checked.
  const auto per_kind = static_cast<size_t>(kFixedQps * phase_s_ / 2.0);
  fixed.keep_prq_every = std::max<size_t>(1, per_kind / kCheckPrq);
  fixed.keep_knn_every = std::max<size_t>(1, per_kind / spec_.check_knn);
  const OpenLoopResult a = RunOpenLoop(*svc_, corpus, fixed);
  attempted_ += a.samples.size();
  size_t failed = a.failed();
  OpenLoopResult b;
  if (args_.trace) {
    OpenLoopConfig traced = fixed;
    traced.trace = true;
    traced.keep_prq_every = traced.keep_knn_every = 0;
    b = RunOpenLoop(*svc_, corpus, traced);
    attempted_ += b.samples.size();
    failed += b.failed();
  }
  Log("measured phases done");

  // Capacity: bisection over a bracket around the saturation rate.
  double max_qps = 0.0;
  {
    const double saturation_qps =
        static_cast<double>(kServiceWorkers) * 1000.0 /
        Mean(a.Field(&QuerySample::exec_ms, -1));
    const CapacityResult c = SearchCapacity(
        *svc_, corpus, kSearchLoShare * saturation_qps,
        kSearchHiShare * saturation_qps, kSearchResolution,
        kSearchTrials,
        (args_.seconds - phase_s_) / static_cast<double>(kSearchTrials),
        kSloMs, kServiceWorkers, args_.seed * 31 + 3);
    max_qps = c.max_qps;
    attempted_ += c.attempted;
    failed += c.failed;
    Log("capacity search done");
  }

  for (const KeptAnswer& k : a.kept) {
    checker_.Check(k.request, k.response, "open loop");
  }
  if (args_.trace) MeasureLayers(w_, *engine_, corpus, kLayerCalls, &out_);
  WriteProbe();
  // Read before recovery's own merges land in the histogram.
  const double merge_hold_p99 =
      registry_->histogram("engine.merge.lock_hold_ms")->Percentile(0.99);
  recovery_s_ = Restart();
  CheckFresh("after restart", 4);
  Log("checks and restart done");
  attempted_ += checker_.attempted();
  failed += checker_.failed();
  const bool correct = checker_.mismatches() == 0 && checker_.failed() == 0;

  if (!args_.trace) {
    const double setup_s = Median(setup_s_);
    const double setup_probe = Median(setup_probe_ms_);
    std::printf("{\"as_measured\": {\"setup_s\": %.17g, "
                "\"speed_probe_ms\": %.17g}}\n",
                setup_s, setup_probe);
    out_.Add("setup_s", TimeAtReferenceSpeed(setup_s, setup_probe), "s");
    out_.Add("peak_rss_mb", PeakRssMb(), "MB");
    out_.Add("prq_reads_per_query", Mean(a.Reads(0)), "count");
    out_.Add("pknn_reads_per_query", Mean(a.Reads(1)), "count");
  } else {
    // service: the untraced phase's own timings.
    out_.Add("service.queue_ms.p50",
             Quantile(a.Field(&QuerySample::queue_ms, -1), 0.5), "ms");
    out_.Add("service.queue_ms.p99",
             Quantile(a.Field(&QuerySample::queue_ms, -1), 0.99), "ms");
    out_.Add("service.exec_ms.p50",
             Quantile(a.Field(&QuerySample::exec_ms, -1), 0.5), "ms");
    out_.Add("service.exec_ms.p99",
             Quantile(a.Field(&QuerySample::exec_ms, -1), 0.99), "ms");
    out_.Add("service.prq_latency_ms.p50",
             Quantile(a.Field(&QuerySample::latency_ms, 0), 0.5), "ms");
    out_.Add("service.pknn_latency_ms.p50",
             Quantile(a.Field(&QuerySample::latency_ms, 1), 0.5), "ms");
    out_.Add("service.max_qps_at_slo", max_qps, "1/s");
    out_.Add("service.prq_latency_ms.p99",
             a.WindowedQuantile(&QuerySample::latency_ms, 0, 0.99, kP99Windows),
             "ms");
    out_.Add("service.pknn_latency_ms.p99",
             a.WindowedQuantile(&QuerySample::latency_ms, 1, 0.99, kP99Windows),
             "ms");
    out_.Add("service.batch_ms.p50", Quantile(batch_ms_, 0.5), "ms");
    out_.Add("service.batch_ms.p99", Quantile(batch_ms_, 0.99), "ms");
    out_.Add("service.gen_late_ms.p99",
             Quantile(a.Field(&QuerySample::late_ms, -1), 0.99), "ms");
    // Execution time the engine's shard spans (nested directly under the
    // service's root span in the traced twin) do not cover.
    std::vector<double> unattributed;
    for (size_t i = 0; i < b.traces.size() && i < b.samples.size(); ++i) {
      double covered = 0.0;
      for (const auto& span : b.traces[i].spans) {
        if (span.parent == 0) covered += span.dur_ms;
      }
      unattributed.push_back(b.samples[i].exec_ms - covered);
    }
    out_.Add("service.unattributed_ms", Mean(unattributed), "ms");
    out_.Add("trace.overhead_frac",
             Ratio(Mean(b.Field(&QuerySample::exec_ms, -1)),
                   Mean(a.Field(&QuerySample::exec_ms, -1))) - 1.0,
             "ratio");
    out_.Add("engine.delta.backlog_max", static_cast<double>(backlog_max_),
             "count");
    out_.Add("engine.merge.lock_hold_ms.p99", merge_hold_p99, "ms");
    out_.Add("engine.recovery_s", recovery_s_, "s");
    out_.Add("engine.recovery.replayed_events",
             static_cast<double>(replayed_events_), "count");
    peb::IoStats io;
    for (const QuerySample& s : a.samples) io += s.io;
    const double n = static_cast<double>(a.samples.size());
    out_.Add("storage.fetches_per_query",
             static_cast<double>(io.logical_fetches) / n, "count");
    out_.Add("storage.hit_ratio", io.HitRatio(), "ratio");
    out_.Add("storage.evictions_per_query",
             static_cast<double>(io.evictions) / n, "count");
    out_.Add("storage.wal_bytes_per_update", wal_bytes_per_update_, "B");
    out_.Add("storage.db_bytes_per_user",
             static_cast<double>(engine_->pool()->disk()->live_pages() *
                                 peb::kPageSize) /
                 static_cast<double>(w_.params().num_users),
             "B");
    out_.Add("policy.encode_s", Median(encode_s_), "s");
    out_.Add("setup.load_s", Median(load_s_), "s");
  }

  svc_.reset();
  engine_.reset();
  RemoveDbFiles();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted_, failed,
              out_.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) Usage(("unknown workload '" + args.workload + "'").c_str());
  std::error_code ec;
  fs::create_directories(args.data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.data_dir.c_str());
    return 1;
  }

  peb::eval::WorkloadParams params;
  params.num_users = std::max<size_t>(
      500, static_cast<size_t>(spec->users / args.scale));
  params.distribution = spec->distribution;
  params.seed = args.seed;
  Workload workload = Workload::Build(params);
  Bench bench(*spec, args, workload);
  const int rc = bench.Run();
  // The workload (oracle indexes and policies, gigabytes at 200k users)
  // would take seconds to free; nothing of it needs tearing down.
  std::fflush(nullptr);
  std::_Exit(rc);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
