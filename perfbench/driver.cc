// The repo benchmark's driver: replays a seeded, precomputed update
// schedule open-loop into the serving layer (BcService, or the cluster
// coordinator in front of four shard workers), then closed-loop to
// saturation, and checks the final published scores against from-scratch
// Brandes. README.md beside this file records why each workload exists and
// which layer metric should move which end-to-end metric.
//
//   sobc_perfbench --workload NAME --seed N --seconds S --work-dir DIR
//                  [--scores-out FILE]                      untraced run
//   sobc_perfbench ... --trace --reference FILE              traced run
//
// The untraced run prints the end-to-end metrics. The traced run replays
// the untraced run's consumed prefix (read from --reference) through the
// benchmark's own calls into each module's public functions, with spans
// around each call, and prints the per-layer metrics. Each run prints one
// JSON object as its last line; perfbench/run.py wraps both.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bc/bd_store_disk.h"
#include "bc/brandes.h"
#include "bc/dynamic_bc.h"
#include "bc/incremental.h"
#include "bc/source_prefilter.h"
#include "cluster/coordinator.h"
#include "cluster/shard_worker.h"
#include "cluster/transport.h"
#include "cluster/wire.h"
#include "common/rng.h"
#include "common/stats.h"
#include "gen/social_generator.h"
#include "gen/stream_generators.h"
#include "graph/csr_view.h"
#include "server/bc_service.h"
#include "server/score_snapshot.h"
#include "server/update_queue.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "trace.h"

namespace sobc::perfbench {
namespace {

/// Relative tolerance of every score comparison (exactness gate and the
/// traced-vs-untraced check); floating-point summation order differs
/// between serial, threaded and sharded apply.
constexpr double kRelTol = 1e-7;
/// Create/Connect repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Updates applied closed-loop before the fixed-rate segment: lazy set-up
/// (worker engines, traversal scratch, thread start-up) is paid once per
/// deployment, not per update, so it stays out of the latency samples.
constexpr std::size_t kWarmupUpdates = 64;
/// Share of --seconds spent in the fixed-rate segment; the rest is the
/// saturation segment.
constexpr double kFixedShare = 0.3;
/// Period of the observer/reader thread's snapshot poll while it stamps
/// fixed-rate latencies; it bounds their resolution.
constexpr auto kPollPeriod = std::chrono::microseconds(250);
/// Period of the reader's poll once every watched position is stamped: the
/// saturation segment needs no latency stamps, and a slow poll keeps the
/// reader from preempting the apply threads thousands of times a second.
constexpr auto kReaderPoll = std::chrono::milliseconds(5);
/// The traced run's serial decomposition replays the last batches of the
/// run that cover at least this many stream updates, starting from Step 1
/// on the graph at that batch boundary (the state exact maintenance holds
/// there). This bounds the traced run's length whatever the capacity.
constexpr std::size_t kDecomposedUpdates = 768;
/// The traced run's saturation segment ends at the untraced run's stream
/// position, not at a deadline.
constexpr double kNoDeadline = std::numeric_limits<double>::infinity();
/// Every deployment's queue waits this long after a batch's first update
/// for the batch to fill. A saturation round is submitted well within it,
/// so each round splits into the same full batches on every run, and
/// coalescing, WAL syncs and checkpoint triggers fall on the same stream
/// positions. In the fixed-rate segment it adds at most this much latency.
constexpr double kBatchBudgetSeconds = 0.002;
/// Seed of every workload's graph (see MakeSchedule).
constexpr std::uint64_t kGraphSeed = 1;
/// Sources the serial out-of-core drain hints ahead (DynamicBc's slab).
constexpr std::size_t kSerialPrefetchSlab = 128;

enum class Arrivals { kPoisson, kLogNormal };

struct Workload {
  const char* name;
  std::size_t n;
  BcVariant variant;
  RecordCodecId codec;
  std::size_t cache_mb;
  int threads;  // 0 = one per hardware thread
  bool durable;
  std::size_t checkpoint_every;  // op-count checkpoint trigger
  bool churn;                    // ChurnStream instead of MixedUpdateStream
  std::size_t churn_pool;
  std::size_t shards;  // 0 = single-process BcService
  Arrivals arrivals;
  /// Offered rate of the fixed-rate segment, updates/s. Pinned from seed
  /// calibration on a 4-vCPU host, never recomputed per run: about a third
  /// of capacity for mixed-mo and cluster-4, and about half of the
  /// saturated, coalescing capacity for churn-do-durable (README.md).
  double rate;
  /// Updates per closed-loop round of the saturation segment. A round
  /// takes 0.5 to 3 seconds at the calibration host's capacity, so a run
  /// holds several rounds for the median. A round of up to 256 updates is
  /// one queue batch; churn-do-durable's 2048 are eight full batches and
  /// one checkpoint interval, so every round does the same I/O.
  std::size_t round;
};

constexpr Workload kWorkloads[] = {
    {"mixed-mo", 2000, BcVariant::kMemory, RecordCodecId::kRaw, 0, 0, false,
     0, false, 0, 0, Arrivals::kPoisson, 40.0, 64},
    {"churn-do-durable", 1000, BcVariant::kOutOfCore, RecordCodecId::kDelta,
     1, 1, true, 2000, true, 48, 0, Arrivals::kLogNormal, 300.0, 2048},
    {"cluster-4", 2000, BcVariant::kMemory, RecordCodecId::kRaw, 0, 1, false,
     0, false, 0, 4, Arrivals::kPoisson, 60.0, 128},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string scores_out;
  std::string reference;
  std::string trace_out;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "sobc_perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

template <class T>
T Take(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(*result);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--scores-out") {
      args.scores_out = value();
    } else if (flag == "--reference") {
      args.reference = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.work_dir.empty()) Die("--work-dir is required");
  if (!(args.seconds > 0.0)) Die("--seconds must be positive");
  if (args.trace && args.reference.empty()) Die("--trace needs --reference");
  return args;
}

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  Die("unknown workload " + name);
}

int ApplyThreads(const Workload& w) {
  if (w.threads > 0) return w.threads;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

// --- schedule ---------------------------------------------------------------

/// Everything a run feeds the system, built from the seed before any timing:
/// the base graph and the update stream — warm-up, then fixed-rate, then
/// saturation updates — and the due time (seconds after the segment start)
/// of each fixed-rate update.
struct Schedule {
  Graph graph;
  EdgeStream stream;
  std::vector<double> due;
  std::size_t fixed = 0;  // fixed-rate updates: [kWarmupUpdates, fixed_end())
  std::size_t fixed_end() const { return kWarmupUpdates + fixed; }
};

Schedule MakeSchedule(const Workload& w, std::uint64_t seed, double seconds) {
  // The graph is the workload's fixed dataset; the seed draws the stream
  // and its arrival times. A graph drawn per seed would move capacity by
  // its own shape, which no change to the program explains.
  Rng graph_rng(kGraphSeed);
  Schedule s;
  s.graph = GenerateSocialGraph(w.n, SocialGraphParams::PaperDefaults(),
                                &graph_rng);
  Rng rng(seed);
  s.fixed = static_cast<std::size_t>(
      std::llround(w.rate * kFixedShare * seconds));
  // Generous bound on what the saturation segment can consume; a run that
  // exhausts it simply ends its saturation segment early.
  const std::size_t total = s.fixed_end() +
                            static_cast<std::size_t>(w.rate * 40.0 * seconds) +
                            1024;
  s.stream = w.churn ? ChurnStream(s.graph, total, w.churn_pool, &rng)
                     : MixedUpdateStream(s.graph, total, 0.5, &rng);
  if (s.stream.size() < s.fixed_end()) {
    Die("stream shorter than the fixed segment");
  }
  const double mean_gap = 1.0 / w.rate;
  if (w.arrivals == Arrivals::kPoisson) {
    double t = 0.0;
    for (std::size_t i = 0; i < s.fixed; ++i) {
      t += rng.Exponential(mean_gap);
      s.due.push_back(t);
    }
  } else {
    // Log-normal gaps with sigma 1 and the median set so the mean gap is
    // 1/rate: mean = exp(mu + sigma^2 / 2).
    ArrivalProcess process;
    process.lognormal_sigma = 1.0;
    process.lognormal_mu = std::log(mean_gap) - 0.5;
    EdgeStream stamped(s.stream.begin() + kWarmupUpdates,
                       s.stream.begin() + s.fixed_end());
    StampArrivalTimes(&stamped, process, 0.0, &rng);
    for (const EdgeUpdate& e : stamped) s.due.push_back(e.timestamp);
  }
  return s;
}

Graph GraphAt(const Schedule& s, std::size_t position) {
  Graph graph = s.graph;
  for (std::size_t i = 0; i < position; ++i) {
    Check(ApplyToGraph(&graph, s.stream[i]), "replay stream prefix");
  }
  return graph;
}

// --- score comparison ---------------------------------------------------------

struct FlatScores {
  std::vector<double> vbc;
  std::vector<std::pair<EdgeKey, double>> ebc;  // sorted by key
};

FlatScores Flatten(const std::vector<double>& vbc, const EbcMap& ebc) {
  FlatScores out;
  out.vbc = vbc;
  for (const auto& [key, value] : ebc) out.ebc.emplace_back(key, value);
  std::sort(out.ebc.begin(), out.ebc.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

bool Close(double a, double b) {
  return std::fabs(a - b) <=
         kRelTol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Number of vertex and edge scores that differ beyond kRelTol. An edge
/// present on one side only compares against 0 (a removed edge may leave
/// floating-point residue behind).
std::uint64_t CountMismatches(const FlatScores& a, const FlatScores& b) {
  std::uint64_t bad = 0;
  const std::size_t n = std::max(a.vbc.size(), b.vbc.size());
  for (std::size_t v = 0; v < n; ++v) {
    const double x = v < a.vbc.size() ? a.vbc[v] : 0.0;
    const double y = v < b.vbc.size() ? b.vbc[v] : 0.0;
    if (!Close(x, y)) ++bad;
  }
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.ebc.size() || j < b.ebc.size()) {
    if (j == b.ebc.size() ||
        (i < a.ebc.size() && a.ebc[i].first < b.ebc[j].first)) {
      if (!Close(a.ebc[i++].second, 0.0)) ++bad;
    } else if (i == a.ebc.size() || b.ebc[j].first < a.ebc[i].first) {
      if (!Close(0.0, b.ebc[j++].second)) ++bad;
    } else {
      if (!Close(a.ebc[i++].second, b.ebc[j++].second)) ++bad;
    }
  }
  return bad;
}

/// Mismatches of `got` against from-scratch Brandes on `graph`.
std::uint64_t ExactnessMismatches(const Graph& graph, const FlatScores& got) {
  const BcScores truth = ComputeBrandes(graph);
  return CountMismatches(got, Flatten(truth.vbc, truth.ebc));
}

void WriteScores(const std::string& path, std::uint64_t position,
                 const FlatScores& scores) {
  std::ofstream out(path);
  out.precision(17);
  out << position << ' ' << scores.vbc.size() << ' ' << scores.ebc.size()
      << '\n';
  for (double x : scores.vbc) out << x << '\n';
  for (const auto& [key, x] : scores.ebc) {
    out << key.u << ' ' << key.v << ' ' << x << '\n';
  }
  if (!out) Die("cannot write " + path);
}

FlatScores ReadScores(const std::string& path, std::uint64_t* position) {
  std::ifstream in(path);
  std::size_t n = 0;
  std::size_t m = 0;
  FlatScores scores;
  in >> *position >> n >> m;
  scores.vbc.resize(n);
  for (double& x : scores.vbc) in >> x;
  scores.ebc.resize(m);
  for (auto& [key, x] : scores.ebc) in >> key.u >> key.v >> x;
  if (!in) Die("cannot read reference scores " + path);
  return scores;
}

// --- deployment ---------------------------------------------------------------

DynamicBcOptions FrameworkOptions(const Workload& w, const std::string& dir) {
  DynamicBcOptions bc;
  bc.variant = w.variant;
  bc.num_threads = ApplyThreads(w);
  if (w.variant == BcVariant::kOutOfCore) {
    bc.storage_path = dir + "/bd.bin";
    bc.store_codec = w.codec;
    bc.cache_mb = w.cache_mb;
  }
  return bc;
}

UpdateQueueOptions QueueOptions() {
  UpdateQueueOptions queue;
  queue.batch_latency_budget_seconds = kBatchBudgetSeconds;
  return queue;
}

BcServiceOptions ServiceOptions(const Workload& w, const std::string& dir) {
  BcServiceOptions options;
  options.queue = QueueOptions();
  options.bc = FrameworkOptions(w, dir);
  if (w.durable) {
    options.durability.wal_dir = dir + "/wal";
    options.durability.checkpoint_dir = dir + "/checkpoints";
    options.durability.wal_fsync_every = 1;
    options.durability.checkpoint_every_updates = w.checkpoint_every;
  }
  return options;
}

/// Four in-process shard workers on loopback TCP plus the coordinator.
/// The transport is declared first so it outlives every user.
struct Cluster {
  TcpTransport transport;
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::unique_ptr<ClusterCoordinator> coordinator;

  Status Stop() {
    Status first = coordinator->Stop();
    for (auto& worker : workers) {
      const Status st = worker->Stop();
      if (first.ok()) first = st;
    }
    return first;
  }
};

std::unique_ptr<Cluster> StartCluster(const Workload& w, const Graph& graph) {
  auto cluster = std::make_unique<Cluster>();
  std::vector<std::string> addresses;
  for (std::size_t i = 0; i < w.shards; ++i) {
    ShardWorkerOptions options;
    options.shard_index = i;
    options.shard_count = w.shards;
    options.service.bc.num_threads = 1;
    cluster->workers.push_back(Take(
        ShardWorker::Start(Graph(graph), &cluster->transport, "127.0.0.1:0",
                           options),
        "shard start"));
    addresses.push_back(cluster->workers.back()->address());
  }
  ClusterCoordinatorOptions coordinator;
  coordinator.queue = QueueOptions();
  cluster->coordinator =
      Take(ClusterCoordinator::Connect(Graph(graph), addresses,
                                       &cluster->transport, coordinator),
           "coordinator connect");
  return cluster;
}

std::uint64_t CsrBuilds(const Graph& graph) {
  return graph.csr().stats().builds;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// --- load generation ---------------------------------------------------------

std::chrono::steady_clock::time_point AsTimePoint(double seconds) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds)));
}

struct LoadResult {
  double start = 0.0;  // absolute start of the fixed-rate segment
  std::vector<double> late;      // submit time minus due time, seconds
  std::uint64_t refused = 0;     // Submits the system did not accept
  std::size_t backlog_max = 0;   // max outstanding in the fixed segment
  std::size_t consumed = 0;      // stream position reached at the end
  double saturation_seconds = 0.0;
  std::vector<double> round_rates;  // updates/s of each saturation round
  Status drain_status;
};

/// The single generator thread. `submit(update)` offers one update,
/// `published()` reads the stream position covered by the newest
/// publication, `drain()` blocks until everything offered is published.
/// The fixed-rate segment submits each update at its due time whatever the
/// system's state (open loop). The saturation segment runs closed-loop
/// rounds: submit `round` updates at once, drain, repeat, until
/// `deadline_seconds` passed or the stream position reached `limit`. Each
/// round's rate is kept, so capacity can be their median: a host stall or a
/// rare costly update then moves one round, not the run's figure.
template <class Submit, class Published, class DrainFn>
LoadResult GenerateLoad(const Schedule& s, std::size_t round, Submit submit,
                        Published published, DrainFn drain,
                        double deadline_seconds, std::size_t limit) {
  LoadResult r;
  for (std::size_t i = 0; i < kWarmupUpdates; ++i) {
    if (!submit(s.stream[i])) ++r.refused;
  }
  r.drain_status = drain();
  r.start = NowSeconds() + 0.01;
  r.late.reserve(s.fixed);
  for (std::size_t j = 0; j < s.fixed; ++j) {
    const std::size_t i = kWarmupUpdates + j;
    const double due = r.start + s.due[j];
    std::this_thread::sleep_until(AsTimePoint(due));
    r.late.push_back(NowSeconds() - due);
    r.backlog_max = std::max<std::size_t>(r.backlog_max, i - published());
    if (!submit(s.stream[i])) ++r.refused;
  }
  if (const Status st = drain(); r.drain_status.ok()) r.drain_status = st;
  const double sat_start = NowSeconds();
  std::size_t i = s.fixed_end();
  double round_start = sat_start;
  while (i < limit && round_start - sat_start < deadline_seconds) {
    const std::size_t end = std::min(limit, i + round);
    const std::size_t submitted = end - i;
    for (; i < end; ++i) {
      if (!submit(s.stream[i])) ++r.refused;
    }
    const Status st = drain();
    if (r.drain_status.ok()) r.drain_status = st;
    const double now = NowSeconds();
    r.round_rates.push_back(submitted / (now - round_start));
    round_start = now;
  }
  r.saturation_seconds = round_start - sat_start;
  r.consumed = i;
  return r;
}

/// The one observer/reader thread: polls the published snapshot, stamps the
/// first time each stream position below `watched` is covered, and reads
/// the top-k leaderboard as a client would.
class Observer {
 public:
  template <class Server>
  Observer(Server* server, std::size_t watched)
      : covered_at_(watched, 0.0),
        thread_([this, server, watched] { Loop(server, watched); }) {}
  ~Observer() { Stop(); }
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Blocks until the first `count` positions (capped at `watched`) were
  /// seen covered.
  void WaitCovered(std::size_t count) const {
    count = std::min(count, covered_at_.size());
    while (covered_.load() < count) std::this_thread::sleep_for(kPollPeriod);
  }
  /// Valid after Stop(): when position i + 1 was first seen published.
  const std::vector<double>& covered_at() const { return covered_at_; }

 private:
  template <class Server>
  void Loop(Server* server, std::size_t watched) {
    double sink = 0.0;
    std::size_t covered = 0;
    while (!stop_.load()) {
      const std::shared_ptr<const ScoreSnapshot> snap = server->snapshot();
      const double now = NowSeconds();
      if (snap != nullptr) {
        const std::size_t position = std::min<std::size_t>(
            static_cast<std::size_t>(snap->stream_position), watched);
        for (; covered < position; ++covered) covered_at_[covered] = now;
        covered_.store(covered);
        if (!snap->top_vertices.empty()) sink += snap->top_vertices[0].second;
      }
      std::this_thread::sleep_for(covered < watched ? kPollPeriod
                                                    : kReaderPoll);
    }
    top_sum_ = sink;  // keeps the leaderboard reads observable
  }

  std::vector<double> covered_at_;
  std::atomic<std::size_t> covered_{0};
  std::atomic<bool> stop_{false};
  double top_sum_ = 0.0;
  std::thread thread_;
};

// --- JSON output --------------------------------------------------------------

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name.c_str(), value, unit);
    body_ += buf;
  }
  void AddRaw(const std::string& name, double value) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), ", \"%s\": %.17g", name.c_str(), value);
    extra_ += buf;
  }
  void Print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}%s}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), body_.c_str(),
        extra_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string body_;
  std::string extra_;
};

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : Summary(std::move(values)).Median();
}

double Quantile(std::vector<double> values, double q) {
  return values.empty() ? 0.0 : Summary(std::move(values)).Quantile(q);
}

// --- untraced run ---------------------------------------------------------------

struct ServedOutcome {
  LoadResult load;
  /// Due time to first covering publication, per fixed-rate update.
  std::vector<double> latencies;
  std::uint64_t failures = 0;  // refused + writer/Drain errors
};

template <class Server>
ServedOutcome Serve(Server* server, const Workload& w, const Schedule& s,
                    double saturation_s) {
  ServedOutcome out;
  Observer observer(server, s.fixed_end());
  auto submit = [server](const EdgeUpdate& e) { return server->Submit(e); };
  auto published = [server] {
    return static_cast<std::size_t>(server->final_position());
  };
  auto drain = [&] {
    Status st = server->Drain();
    // Let the observer stamp everything published, so no latency sample
    // runs on into the next segment.
    if (st.ok()) observer.WaitCovered(published());
    return st;
  };
  out.load = GenerateLoad(s, w.round, submit, published, drain, saturation_s,
                          s.stream.size());
  observer.Stop();
  for (std::size_t i = 0; i < s.fixed; ++i) {
    out.latencies.push_back(observer.covered_at()[kWarmupUpdates + i] -
                            (out.load.start + s.due[i]));
  }
  out.failures = out.load.refused + (out.load.drain_status.ok() ? 0 : 1);
  return out;
}

int RunUntraced(const Args& args, const Workload& w) {
  const Schedule s = MakeSchedule(w, args.seed, args.seconds);
  const double saturation_s = (1.0 - kFixedShare) * args.seconds;

  std::vector<double> setups;
  ServedOutcome served;
  std::uint64_t failures = 0;
  std::uint64_t csr_builds = 0;
  std::shared_ptr<const ScoreSnapshot> final_snapshot;
  if (w.shards == 0) {
    std::unique_ptr<BcService> service;
    for (int k = 0; k < kSetupRepeats; ++k) {
      if (service != nullptr) (void)service->Stop();
      service.reset();
      const std::string dir = args.work_dir + "/setup-" + std::to_string(k);
      std::filesystem::create_directories(dir);
      Graph graph = s.graph;
      const double t0 = NowSeconds();
      service = Take(BcService::Create(std::move(graph),
                                       ServiceOptions(w, dir)),
                     "service create");
      setups.push_back(NowSeconds() - t0);
    }
    served = Serve(service.get(), w, s, saturation_s);
    if (!service->Stop().ok()) ++failures;
    final_snapshot = service->snapshot();
    csr_builds = CsrBuilds(service->framework()->graph());
  } else {
    std::unique_ptr<Cluster> cluster;
    for (int k = 0; k < kSetupRepeats; ++k) {
      if (cluster != nullptr) (void)cluster->Stop();
      cluster.reset();
      const double t0 = NowSeconds();
      cluster = StartCluster(w, s.graph);
      setups.push_back(NowSeconds() - t0);
    }
    served = Serve(cluster->coordinator.get(), w, s, saturation_s);
    if (!cluster->Stop().ok()) ++failures;
    final_snapshot = cluster->coordinator->snapshot();
    for (auto& worker : cluster->workers) {
      csr_builds = std::max(
          csr_builds, CsrBuilds(worker->service()->framework()->graph()));
    }
  }
  failures += served.failures;

  // Exactness gate: the final publication must cover every consumed update
  // and equal from-scratch Brandes on the graph those updates produce.
  const std::size_t position = served.load.consumed;
  if (final_snapshot->stream_position != position) ++failures;
  const FlatScores got = Flatten(final_snapshot->vbc, final_snapshot->ebc);
  const std::uint64_t mismatches =
      ExactnessMismatches(GraphAt(s, position), got);
  failures += mismatches;
  if (csr_builds > 1) ++failures;
  if (!args.scores_out.empty()) WriteScores(args.scores_out, position, got);

  JsonMetrics json;
  json.Add("setup_s", Median(setups), "s");
  json.Add("capacity_ups", Median(served.load.round_rates), "updates/s");
  json.Add("rss_peak_mb", PeakRssMb(), "MB");
  // Open-loop latency swings with host interference far more than the
  // metrics above (README.md), so run.py reports it with the per-layer
  // metrics, which carry no bound.
  json.AddRaw("lat_p50_ms", 1e3 * Quantile(served.latencies, 0.5));
  json.AddRaw("lat_p99_ms", 1e3 * Quantile(served.latencies, 0.99));
  json.AddRaw("late_p99_ms", 1e3 * Quantile(served.load.late, 0.99));
  json.AddRaw("mismatches", static_cast<double>(mismatches));
  json.AddRaw("csr_builds", static_cast<double>(csr_builds));
  json.AddRaw("position", static_cast<double>(position));
  json.Print(failures == 0, position, failures);
  return failures == 0 ? 0 : 1;
}

// --- traced run -------------------------------------------------------------------

/// Bytes one published snapshot holds: score columns and leaderboards.
double SnapshotBytes(const ScoreSnapshot& snap) {
  return static_cast<double>(
      snap.vbc.size() * sizeof(double) +
      snap.ebc.size() * (sizeof(EdgeKey) + sizeof(double)) +
      snap.top_vertices.size() * sizeof(snap.top_vertices[0]) +
      snap.top_edges.size() * sizeof(snap.top_edges[0]));
}


/// The serving writer loop re-driven from the benchmark: the same public
/// calls BcService's writer makes, in the same order, each under a span —
/// UpdateQueue::PopBatch, WalWriter::Append/Sync, DynamicBc::ApplyBatch,
/// BuildSnapshot, and the op-count checkpoint policy. The WAL is opened
/// with fsync_every = 0 and synced explicitly after each append, which is
/// the I/O of fsync_every = 1 with append and sync timed apart.
class TracedWriter {
 public:
  TracedWriter(const Workload& w, const Schedule& s, const std::string& dir,
               Tracer* tracer)
      : w_(w), tracer_(tracer), queue_(QueueOptions()) {
    ScopedSpan setup(tracer_, "setup.create", 0);
    bc_ = Take(DynamicBc::Create(s.graph, FrameworkOptions(w, dir)),
               "framework create");
    if (w.durable) {
      checkpointer_ = std::make_unique<CheckpointWriter>(
          dir + "/checkpoints", dir + "/wal", 2);
      Check(checkpointer_->WriteNow(Capture(0, 0)), "initial checkpoint");
      WalOptions wal;
      wal.fsync_every = 0;
      wal_ = Take(WalWriter::Open(dir + "/wal", 1, wal), "wal open");
    }
  }

  ~TracedWriter() { (void)Finish(); }
  TracedWriter(const TracedWriter&) = delete;
  TracedWriter& operator=(const TracedWriter&) = delete;

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  /// Closes the queue and joins the writer; returns its status.
  Status Finish() {
    queue_.Close();
    if (thread_.joinable()) thread_.join();
    if (checkpointer_ != nullptr) {
      const Status st = checkpointer_->WaitIdle();
      if (status_.ok()) status_ = st;
    }
    return status_;
  }

  bool Push(const EdgeUpdate& e) {
    ScopedSpan span(tracer_, "server.queue.push", 0);
    return queue_.Push(e);
  }
  std::size_t published() const { return published_.load(); }
  Status Drain() {
    const std::size_t target = queue_.stats().received;
    while (published_.load() < target && !failed_.load()) {
      std::this_thread::sleep_for(kPollPeriod);
    }
    return failed_.load() ? Status::Internal("traced writer failed")
                          : Status::OK();
  }

  DynamicBc* framework() { return bc_.get(); }
  const UpdateQueue& queue() const { return queue_; }
  const WalWriter* wal() const { return wal_.get(); }
  const CheckpointWriter* checkpointer() const { return checkpointer_.get(); }
  /// One drained batch as the writer applied it.
  struct AppliedBatch {
    std::vector<EdgeUpdate> updates;  // post-coalescing
    std::size_t consumed = 0;         // raw stream elements it covers
    double apply_seconds = 0.0;
  };
  const std::vector<AppliedBatch>& batches() const { return batches_; }
  double snapshot_bytes_mean() const {
    return publishes_ == 0 ? 0.0 : snapshot_bytes_ / publishes_;
  }

 private:
  CheckpointWriter::Job Capture(std::uint64_t epoch, std::uint64_t position) {
    CheckpointWriter::Job job;
    job.epoch = epoch;
    job.stream_position = position;
    job.graph = bc_->graph();
    job.scores = bc_->scores();
    job.variant = w_.variant == BcVariant::kOutOfCore ? "do" : "mo";
    if (DiskBdStore* disk = bc_->disk_store(); disk != nullptr) {
      Check(disk->Flush(), "store flush");
      job.store_file = "bd-" + std::to_string(epoch) + ".bin";
      job.store_codec = RecordCodecName(disk->codec());
      Check(CopyFile(disk->path(),
                     checkpointer_->dir() + "/" + job.store_file,
                     &job.store_crc),
            "store copy");
    }
    return job;
  }

  Status Turn(const DrainedBatch& batch, Tracer::Id turn) {
    if (wal_ != nullptr) {
      {
        ScopedSpan span(tracer_, "storage.wal.append", turn);
        SOBC_RETURN_NOT_OK(wal_->Append(epoch_ + 1, position_ + batch.consumed,
                                        batch.updates));
      }
      ScopedSpan span(tracer_, "storage.wal.sync", turn);
      SOBC_RETURN_NOT_OK(wal_->Sync());
    }
    double apply_seconds = 0.0;
    if (!batch.updates.empty()) {
      ScopedSpan span(tracer_, "bc.apply", turn);
      const double t0 = NowSeconds();
      SOBC_RETURN_NOT_OK(bc_->ApplyBatch(batch.updates));
      apply_seconds = NowSeconds() - t0;
    }
    batches_.push_back({batch.updates, batch.consumed, apply_seconds});
    position_ += batch.consumed;
    ++epoch_;
    {
      ScopedSpan span(tracer_, "server.publish.build", turn);
      auto snapshot = BuildSnapshot(bc_->graph(), bc_->scores(), epoch_,
                                    position_, BcServiceOptions{}.top_k, true);
      snapshot_bytes_ += SnapshotBytes(*snapshot);
      ++publishes_;
      snapshots_.Publish(std::move(snapshot));
    }
    published_.store(position_);
    if (checkpointer_ != nullptr) {
      since_checkpoint_ += batch.consumed;
      if (since_checkpoint_ >= w_.checkpoint_every) {
        since_checkpoint_ = 0;
        if (checkpointer_->AdmitTrigger()) {
          ScopedSpan span(tracer_, "storage.checkpoint.capture", turn);
          if (checkpointer_->Enqueue(Capture(epoch_, position_))) {
            SOBC_RETURN_NOT_OK(wal_->Rotate(epoch_ + 1));
          }
        }
      }
    }
    return Status::OK();
  }

  void Loop() {
    DrainedBatch batch;
    while (true) {
      bool more = false;
      {
        ScopedSpan span(tracer_, "server.queue.pop", 0);
        more = queue_.PopBatch(&batch);
      }
      if (!more) return;
      ScopedSpan turn(tracer_, "server.batch", 0);
      if (Status st = Turn(batch, turn.id()); !st.ok()) {
        status_ = st;
        failed_.store(true);
        queue_.Close();
        return;
      }
    }
  }

  const Workload& w_;
  Tracer* tracer_;
  UpdateQueue queue_;
  std::unique_ptr<DynamicBc> bc_;
  std::unique_ptr<CheckpointWriter> checkpointer_;
  std::unique_ptr<WalWriter> wal_;
  SnapshotStore snapshots_;
  std::vector<AppliedBatch> batches_;
  std::uint64_t epoch_ = 0;
  std::uint64_t position_ = 0;
  std::uint64_t since_checkpoint_ = 0;
  double snapshot_bytes_ = 0.0;
  std::uint64_t publishes_ = 0;
  std::atomic<std::size_t> published_{0};
  std::atomic<bool> failed_{false};
  Status status_;
  std::thread thread_;
};

/// Serial decomposition of DynamicBc::ApplyBatch: per update
/// ApplyToGraph, SourcePrefilter::Build, then
/// IncrementalEngine::ApplyUpdateForSources through a timing BdStore
/// decorator (with the serial out-of-core drain's prefetch Hints), and the
/// batch-end removal of a net-removed edge's residue — the same serial path
/// the framework runs, one span per call.
struct Decomposition {
  Graph graph;
  std::unique_ptr<BdStore> store;
  DiskBdStore* disk = nullptr;
  std::unique_ptr<TimingBdStore> timed;
  IncrementalEngine engine;
  SourcePrefilter prefilter;
  BcScores scores;
  UpdateStats stats;
  std::uint64_t updates = 0;
  std::uint64_t sources = 0;
  std::uint64_t dirty = 0;
  double seconds = 0.0;  // wall time of Replay
};

void InitDecomposition(const Workload& w, Graph graph, const std::string& dir,
                       Tracer* tracer, Decomposition* d) {
  d->graph = std::move(graph);
  d->graph.csr();
  if (w.variant == BcVariant::kOutOfCore) {
    DiskBdStoreOptions options;
    options.codec = w.codec;
    options.cache_bytes = w.cache_mb << 20;
    options.prefetch = true;
    auto disk = Take(DiskBdStore::Create(dir + "/decomposition.bd",
                                         d->graph.NumVertices(), 0, 0,
                                         kInvalidVertex, options),
                     "decomposition store");
    d->disk = disk.get();
    d->store = std::move(disk);
  } else {
    d->store = std::make_unique<InMemoryBdStore>();
  }
  MsBfsOptions msbfs;
  msbfs.direction_optimizing = true;
  msbfs.alpha = DynamicBcOptions{}.do_switch_threshold;
  d->engine.ConfigureMsBfs(true, msbfs);
  d->prefilter.ConfigureMsBfs(true, msbfs);
  BrandesOptions brandes;
  brandes.msbfs = msbfs;
  {
    ScopedSpan span(tracer, "bc.brandes.init", 0);
    Check(InitializeFromScratch(d->graph, brandes, d->store.get(),
                                &d->scores),
          "InitializeFromScratch");
  }
  d->timed = std::make_unique<TimingBdStore>(d->store.get());
}

Status EngineCall(Decomposition* d, const EdgeUpdate& e,
                  std::span<const VertexId> sources, Tracer* tracer,
                  Tracer::Id parent) {
  ScopedSpan span(tracer, "bc.engine", parent);
  const Status st = d->engine.ApplyUpdateForSources(
      d->graph, e, sources, d->timed.get(), &d->scores, &d->stats);
  const TimingBdStore::Counters c = d->timed->TakeCounters();
  if (c.calls > 0) {
    tracer->AddAggregate("bc.store.view", span.id(), c.first_start,
                         c.last_end, c.view_seconds, c.calls);
    tracer->AddAggregate("bc.store.apply", span.id(), c.first_start,
                         c.last_end, c.apply_seconds, 0);
  }
  return st;
}

Status ReplayBatch(Decomposition* d, std::span<const EdgeUpdate> batch,
                   Tracer* tracer) {
  ScopedSpan batch_span(tracer, "bc.serial_batch", 0);
  std::vector<VertexId> worklist;
  const std::size_t n = d->graph.NumVertices();
  for (const EdgeUpdate& e : batch) {
    ScopedSpan update(tracer, "bc.serial_update", batch_span.id());
    {
      ScopedSpan span(tracer, "graph.patch", update.id());
      SOBC_RETURN_NOT_OK(ApplyToGraph(&d->graph, e));
    }
    {
      ScopedSpan span(tracer, "bc.prefilter.build", update.id());
      SOBC_RETURN_NOT_OK(d->prefilter.Build(d->graph, e, true, &worklist));
    }
    d->stats.msbfs_batches += d->prefilter.last_stats().batches;
    ++d->updates;
    d->sources += n;
    d->dirty += worklist.size();
    if (worklist.empty()) continue;
    const std::span<const VertexId> all = worklist;
    if (d->disk != nullptr && d->disk->prefetch_enabled() &&
        all.size() > kSerialPrefetchSlab) {
      d->timed->Hint(all.subspan(0, kSerialPrefetchSlab));
      for (std::size_t off = 0; off < all.size();
           off += kSerialPrefetchSlab) {
        const std::size_t count =
            std::min(kSerialPrefetchSlab, all.size() - off);
        const std::size_t next = off + count;
        if (next < all.size()) {
          d->timed->Hint(all.subspan(
              next, std::min(kSerialPrefetchSlab, all.size() - next)));
        }
        SOBC_RETURN_NOT_OK(EngineCall(d, e, all.subspan(off, count), tracer,
                                      update.id()));
      }
    } else {
      SOBC_RETURN_NOT_OK(EngineCall(d, e, all, tracer, update.id()));
    }
  }
  for (const EdgeUpdate& e : batch) {
    if (e.op == EdgeOp::kRemove && !d->graph.HasEdge(e.u, e.v)) {
      d->scores.ebc.erase(d->graph.MakeKey(e.u, e.v));
    }
  }
  return Status::OK();
}

void ReplayAll(Decomposition* d,
               const std::vector<std::vector<EdgeUpdate>>& batches,
               Tracer* tracer) {
  const double t0 = NowSeconds();
  for (const auto& batch : batches) {
    Check(ReplayBatch(d, batch, tracer), "serial decomposition");
  }
  d->seconds = NowSeconds() - t0;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double x : values) total += x;
  return total;
}

/// The stream position from which the decomposed tail must start: at least
/// kDecomposedUpdates before the end, never inside the fixed-rate segment.
std::size_t TailFrom(const Schedule& s, std::size_t limit) {
  return std::max(s.fixed_end(),
                  limit > kDecomposedUpdates ? limit - kDecomposedUpdates : 0);
}

/// What the traced deployment produced: the layer numbers it measured, its
/// final scores, and the tail of batches the serial decomposition replays
/// (see kDecomposedUpdates). Layers a workload does not exercise stay 0.
struct Deployed {
  LoadResult load;
  FlatScores scores;
  std::size_t tail_start = 0;  // stream position where the tail begins
  std::vector<std::vector<EdgeUpdate>> tail_batches;
  /// Time the deployment spent applying the tail: the threaded side of
  /// parallel.speedup.
  double tail_apply_s = 0.0;
  std::uint64_t failures = 0;
  std::uint64_t csr_builds = 0;
  int threads = 1;
  double apply_p50_ms = 0.0, apply_p99_ms = 0.0;  // deployed batches
  double wal_append_s = 0.0, wal_sync_s = 0.0, wal_bytes = 0.0;
  double checkpoints = 0.0, checkpoint_write_s = 0.0;
  double queue_batches = 0.0, queue_consumed = 0.0, queue_coalesced = 0.0;
  double publish_build_s = 0.0, snapshot_bytes = 0.0;
  double cluster_batch_p50_ms = 0.0, cluster_shard_p50_ms = 0.0;
  double cluster_apply_bytes = 0.0, cluster_ack_bytes = 0.0;
};

Deployed TraceService(const Workload& w, const Schedule& s, std::size_t limit,
                      const std::string& dir, Tracer* tracer) {
  Deployed out;
  TracedWriter writer(w, s, dir, tracer);
  writer.Start();
  out.load = GenerateLoad(
      s, w.round, [&](const EdgeUpdate& e) { return writer.Push(e); },
      [&] { return writer.published(); }, [&] { return writer.Drain(); },
      kNoDeadline, limit);
  if (!writer.Finish().ok() || !out.load.drain_status.ok()) ++out.failures;
  out.scores = Flatten(writer.framework()->vbc(), writer.framework()->ebc());
  out.csr_builds = CsrBuilds(writer.framework()->graph());
  out.threads = writer.framework()->num_threads();
  std::vector<double> apply_ms;
  const std::size_t tail_from = TailFrom(s, limit);
  std::size_t position = 0;
  for (const auto& batch : writer.batches()) {
    if (!batch.updates.empty()) apply_ms.push_back(1e3 * batch.apply_seconds);
    if (position <= tail_from) {  // the tail starts at the last such boundary
      out.tail_start = position;
      out.tail_batches.clear();
      out.tail_apply_s = 0.0;
    }
    out.tail_batches.push_back(batch.updates);
    out.tail_apply_s += batch.apply_seconds;
    position += batch.consumed;
  }
  out.apply_p50_ms = Quantile(apply_ms, 0.5);
  out.apply_p99_ms = Quantile(apply_ms, 0.99);
  const UpdateQueueStats q = writer.queue().stats();
  out.queue_batches = static_cast<double>(q.batches);
  out.queue_consumed = static_cast<double>(q.drained + q.coalesced);
  out.queue_coalesced = static_cast<double>(q.coalesced);
  out.publish_build_s = Sum(tracer->Durations("server.publish.build"));
  out.snapshot_bytes = writer.snapshot_bytes_mean();
  if (writer.wal() != nullptr) {
    out.wal_append_s = Sum(tracer->Durations("storage.wal.append"));
    out.wal_sync_s = Sum(tracer->Durations("storage.wal.sync"));
    out.wal_bytes = static_cast<double>(writer.wal()->stats().bytes);
    const CheckpointStats c = writer.checkpointer()->stats();
    out.checkpoints = static_cast<double>(c.written);
    out.checkpoint_write_s =
        c.write_seconds_total +
        Sum(tracer->Durations("storage.checkpoint.capture"));
  }
  return out;
}

Deployed TraceCluster(const Workload& w, const Schedule& s, std::size_t limit,
                      Tracer* tracer) {
  Deployed out;
  std::unique_ptr<Cluster> cluster;
  {
    ScopedSpan setup(tracer, "setup.create", 0);
    cluster = StartCluster(w, s.graph);
  }
  ClusterCoordinator* coordinator = cluster->coordinator.get();
  out.load = GenerateLoad(
      s, w.round,
      [&](const EdgeUpdate& e) {
        ScopedSpan span(tracer, "cluster.submit", 0);
        return coordinator->Submit(e);
      },
      [&] { return static_cast<std::size_t>(coordinator->final_position()); },
      [&] { return coordinator->Drain(); }, kNoDeadline, limit);
  if (!out.load.drain_status.ok()) ++out.failures;
  const ServeMetricsSnapshot cm = coordinator->metrics();
  out.cluster_batch_p50_ms = 1e3 * cm.p50_batch_apply_seconds;
  out.queue_batches = static_cast<double>(cm.batches);
  out.queue_consumed = static_cast<double>(limit);
  out.queue_coalesced = static_cast<double>(cm.coalesced);
  // The slowest shard sets each batch's time; bc.apply reports its
  // percentiles.
  for (auto& worker : cluster->workers) {
    const ServeMetricsSnapshot sm = worker->service()->metrics();
    out.apply_p50_ms =
        std::max(out.apply_p50_ms, 1e3 * sm.p50_batch_apply_seconds);
    out.apply_p99_ms =
        std::max(out.apply_p99_ms, 1e3 * sm.p99_batch_apply_seconds);
  }
  out.cluster_shard_p50_ms = out.apply_p50_ms;
  if (!cluster->Stop().ok()) ++out.failures;
  const std::shared_ptr<const ScoreSnapshot> snap = coordinator->snapshot();
  out.scores = Flatten(snap->vbc, snap->ebc);
  for (auto& worker : cluster->workers) {
    DynamicBc* shard = worker->service()->framework();
    out.csr_builds = std::max(out.csr_builds, CsrBuilds(shard->graph()));
    ApplyAckMsg ack;
    ack.partial = shard->scores();
    ScopedSpan span(tracer, "cluster.encode.ack", 0);
    out.cluster_ack_bytes +=
        static_cast<double>(EncodeApplyAck(ack).size()) / w.shards;
  }
  // An Apply frame of the mean batch size, cut from the stream.
  ApplyMsg apply;
  const std::size_t per_batch = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::llround(limit / std::max(1.0, out.queue_batches))),
      1, limit);
  apply.updates.assign(s.stream.begin(), s.stream.begin() + per_batch);
  {
    ScopedSpan span(tracer, "cluster.encode.apply", 0);
    out.cluster_apply_bytes = static_cast<double>(EncodeApply(apply).size());
  }
  // The coordinator publishes once per batch, out of sight; time one
  // publication of the merged final scores and scale by the batch count.
  const Graph final_graph = GraphAt(s, limit);
  BcScores merged;
  merged.vbc = snap->vbc;
  merged.ebc = snap->ebc;
  std::vector<double> builds;
  for (int k = 0; k < 5; ++k) {
    const double t0 = NowSeconds();
    const auto built = BuildSnapshot(final_graph, merged, snap->epoch, limit,
                                     BcServiceOptions{}.top_k, true);
    builds.push_back(NowSeconds() - t0);
    out.snapshot_bytes = SnapshotBytes(*built);
  }
  out.publish_build_s = Median(builds) * cm.batches;
  // Shards apply one thread each. The coordinator's batch boundaries are
  // not visible, so the decomposition replays one update per batch; its
  // threaded side is the cluster's own time per update in the saturation
  // segment.
  out.tail_start = TailFrom(s, limit);
  for (std::size_t i = out.tail_start; i < limit; ++i) {
    out.tail_batches.push_back({s.stream[i]});
  }
  out.tail_apply_s = (limit - out.tail_start) * out.load.saturation_seconds /
                     (limit - s.fixed_end());
  return out;
}

int RunTraced(const Args& args, const Workload& w) {
  const Schedule s = MakeSchedule(w, args.seed, args.seconds);
  std::uint64_t reference_position = 0;
  const FlatScores reference = ReadScores(args.reference, &reference_position);
  const std::size_t limit = static_cast<std::size_t>(reference_position);
  if (limit < s.fixed_end() || limit > s.stream.size()) {
    Die("reference position outside the schedule");
  }
  Tracer tracer;
  const Deployed dep = w.shards == 0
                           ? TraceService(w, s, limit, args.work_dir, &tracer)
                           : TraceCluster(w, s, limit, &tracer);

  // Serial decomposition of the tail batches, from Step 1 on the graph at
  // the tail's first boundary.
  Decomposition d;
  InitDecomposition(w, GraphAt(s, dep.tail_start), args.work_dir, &tracer,
                    &d);
  const RecordCache::Stats cache0 =
      d.disk != nullptr ? d.disk->cache_stats() : RecordCache::Stats{};
  const DiskIoStats io0 =
      d.disk != nullptr ? d.disk->io_stats() : DiskIoStats{};
  ReplayAll(&d, dep.tail_batches, &tracer);
  if (d.disk != nullptr) Check(d.disk->Flush(), "decomposition flush");

  // Both the deployment and the decomposition must end at the untraced
  // run's scores, which shows they replayed the same path.
  const std::uint64_t mismatches =
      CountMismatches(Flatten(d.scores.vbc, d.scores.ebc), reference) +
      CountMismatches(dep.scores, reference);
  const std::uint64_t csr_builds = std::max(dep.csr_builds, CsrBuilds(d.graph));
  const std::uint64_t failures =
      dep.failures + mismatches + (csr_builds > 1 ? 1 : 0);

  const auto totals = tracer.Summarize();
  auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? Tracer::Totals{} : it->second;
  };
  double cache_hit_frac = 0.0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
  if (d.disk != nullptr) {
    const RecordCache::Stats c = d.disk->cache_stats();
    const double hits = static_cast<double>(c.hits - cache0.hits);
    const double misses = static_cast<double>(c.misses - cache0.misses);
    cache_hit_frac = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    const DiskIoStats io = d.disk->io_stats();
    bytes_read = static_cast<double>(io.bytes_read - io0.bytes_read);
    bytes_written = static_cast<double>(io.bytes_written - io0.bytes_written);
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double affected = static_cast<double>(d.stats.sources_structural +
                                              d.stats.sources_non_structural);

  JsonMetrics json;
  json.Add("bc.engine.self_s", total("bc.engine").self, "s");
  json.Add("bc.engine.structural_frac",
           ratio(d.stats.sources_structural, affected), "frac");
  json.Add("bc.engine.touched_per_update",
           ratio(d.stats.vertices_touched, d.updates), "count");
  json.Add("bc.engine.msbfs_batches",
           static_cast<double>(d.stats.msbfs_batches), "count");
  json.Add("bc.store.view_s", total("bc.store.view").busy, "s");
  json.Add("bc.store.apply_s", total("bc.store.apply").busy, "s");
  json.Add("bc.store.calls", static_cast<double>(total("bc.store.view").calls),
           "count");
  json.Add("bc.store.cache_hit_frac", cache_hit_frac, "frac");
  json.Add("bc.store.bytes_read", bytes_read, "bytes");
  json.Add("bc.store.bytes_written", bytes_written, "bytes");
  json.Add("bc.prefilter.build_s", total("bc.prefilter.build").busy, "s");
  json.Add("bc.prefilter.skip_frac", 1.0 - ratio(d.dirty, d.sources), "frac");
  json.Add("storage.wal.append_s", dep.wal_append_s, "s");
  json.Add("storage.wal.sync_s", dep.wal_sync_s, "s");
  json.Add("storage.wal.bytes_per_update", ratio(dep.wal_bytes, limit),
           "bytes");
  json.Add("storage.checkpoint.count", dep.checkpoints, "count");
  json.Add("storage.checkpoint.write_s", dep.checkpoint_write_s, "s");
  json.Add("server.queue.batches", dep.queue_batches, "count");
  json.Add("server.queue.batch_size_mean",
           ratio(dep.queue_consumed, dep.queue_batches), "count");
  json.Add("server.queue.coalesced_frac",
           ratio(dep.queue_coalesced, dep.queue_consumed), "frac");
  json.Add("server.queue.backlog_max",
           static_cast<double>(dep.load.backlog_max), "count");
  json.Add("server.publish.build_s", dep.publish_build_s, "s");
  json.Add("server.publish.snapshot_bytes", dep.snapshot_bytes, "bytes");
  json.Add("graph.patch_s", total("graph.patch").busy, "s");
  json.Add("graph.csr_builds", static_cast<double>(csr_builds), "count");
  json.Add("bc.apply.batch_p50_ms", dep.apply_p50_ms, "ms");
  json.Add("bc.apply.batch_p99_ms", dep.apply_p99_ms, "ms");
  json.Add("parallel.threads", dep.threads, "count");
  json.Add("parallel.speedup", ratio(d.seconds, dep.tail_apply_s), "x");
  json.Add("bc.brandes.init_s", total("bc.brandes.init").busy, "s");
  json.Add("cluster.batch_p50_ms", dep.cluster_batch_p50_ms, "ms");
  json.Add("cluster.shard_apply_p50_ms", dep.cluster_shard_p50_ms, "ms");
  json.Add("cluster.overhead_frac",
           dep.cluster_batch_p50_ms > 0
               ? 1.0 - dep.cluster_shard_p50_ms / dep.cluster_batch_p50_ms
               : 0.0,
           "frac");
  json.Add("cluster.apply_msg_bytes", dep.cluster_apply_bytes, "bytes");
  json.Add("cluster.ack_bytes", dep.cluster_ack_bytes, "bytes");
  json.AddRaw("traced_capacity_ups",
              Median(dep.load.round_rates));
  json.AddRaw("mismatches", static_cast<double>(mismatches));
  if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
    Die("cannot write " + args.trace_out);
  }
  json.Print(failures == 0, limit, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sobc::perfbench

int main(int argc, char** argv) {
  using namespace sobc::perfbench;
  const Args args = ParseArgs(argc, argv);
  const Workload& w = FindWorkload(args.workload);
  std::filesystem::create_directories(args.work_dir);
  return args.trace ? RunTraced(args, w) : RunUntraced(args, w);
}
