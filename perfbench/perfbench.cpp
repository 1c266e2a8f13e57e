// The repository benchmark: the whole L = 48 user path in one process.
//
// Every workload runs the same path on inputs made from --seed:
//   set-up   generate the synthetic ESM ensemble (three times; median);
//   pipeline train -> save_emulator -> load_emulator -> emulate (twice;
//            median);
//   serving  open the FrozenModel and drive a SamplingService open-loop at
//            the workload's fixed arrival rate.
// Workloads differ only in that rate, so each one reports every end-to-end
// metric: train_s and emulate_s are the control on a serving-only change,
// and p50_ms is the control on a training-only change.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same path,
// then times calls into each layer's public functions on the same inputs,
// climbs a capacity ladder and sends an overload burst, and prints the
// per-layer metrics. Nothing is traced inside the library; its counters come
// from the reports it returns. Correctness gates fail the run (exit code 1)
// in both modes.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/dag_verify.hpp"
#include "climate/synthetic_esm.hpp"
#include "climate/validate.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/topology.hpp"
#include "core/consistency.hpp"
#include "core/emulator.hpp"
#include "core/serialize.hpp"
#include "linalg/kernels.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/solve.hpp"
#include "linalg/tile_matrix.hpp"
#include "runtime/sampling_dag.hpp"
#include "runtime/tiled_cholesky_rt.hpp"
#include "runtime/verify_mode.hpp"
#include "serve/sampler.hpp"
#include "serve/service.hpp"
#include "sht/packing.hpp"
#include "sht/sht.hpp"
#include "stats/covariance.hpp"

namespace {

using namespace exaclim;
using Clock = std::chrono::steady_clock;

// ---- fixed workload definition ---------------------------------------------

// Pipeline shape (ROADMAP item 1 scale). N = R (T - P) = 716 < L^2 = 2304, the
// paper's rank-deficient, jitter-repaired case; nlon = 96 takes the Bluestein
// FFT path. DP because DP/SP and DP/HP do not yet factor this shape.
constexpr index_t kBandLimit = 48;
constexpr index_t kNlat = 49;
constexpr index_t kNlon = 96;
constexpr index_t kStepsPerYear = 120;
constexpr index_t kYears = 3;
constexpr index_t kMembers = 2;
constexpr index_t kArOrder = 2;
constexpr index_t kHarmonics = 5;
constexpr index_t kTile = 256;
constexpr index_t kEmulateSteps = 360;
constexpr index_t kEmulateMembers = 3;
constexpr int kSetupRepeats = 3;
constexpr int kEmulateRepeats = 2;

// Serving: a frozen fp64 model (n = 2304) behind one SamplingService with
// max batch 16, no deadline, and a queue deep enough that a stall of the
// shared machine delays requests instead of shedding them.
constexpr index_t kMaxBatch = 16;
constexpr index_t kDeepQueue = 4096;
// p50 is taken per window of kWindowRequests completed requests (at most
// kMaxWindows windows, in send order) and the median window is reported, so
// one stall of the shared machine moves one window, not the metric.
constexpr std::size_t kWindowRequests = 500;
constexpr std::size_t kMaxWindows = 8;
constexpr index_t kMinPhaseRequests = 1000;

// Traced run only. These probe the service at and past its capacity, which
// on a shared box moves by up to 2x with the memory bandwidth other tenants
// leave free, so their results are per-layer figures, not bounded metrics.
// Capacity ladder: rates climbed in order until one misses the limit.
constexpr double kLadderRates[] = {1000.0, 2000.0, 5000.0};
constexpr double kLadderP99LimitMs = 100.0;
constexpr double kLadderRungSeconds = 1.0;
// A rung "keeps up" when requests complete at >= this share of the offered
// rate over the window from the first scheduled send to the last reply.
constexpr double kKeepUpShare = 0.95;
// Overload burst: ~1.5x capacity into a small queue with a deadline, so batch
// halving, the fp32 plane, shedding and deadline cancellation all engage.
constexpr double kOverloadRate = 4500.0;
constexpr double kOverloadDeadlineMs = 50.0;
constexpr index_t kOverloadQueue = 32;
constexpr double kOverloadSeconds = 2.0;

struct Workload {
  const char* name;
  double rate_rps;  ///< open-loop arrival rate
};

// light: the arrival interval (2.5 ms) is just below one K = 1 batch, so
// batches hold 1-2 requests and the fixed per-batch cost sets latency. A
// lower rate lets the workers park between batches, and on a shared VM the
// wake-up of a halted vCPU then dominates and swings with the host's load.
// heavy: ~3 per batch, so batching amortizes the factor stream. Higher rates
// amplify the machine's bandwidth swings through batching (a slower batch
// gathers more requests) beyond any usable bound.
constexpr Workload kWorkloads[] = {
    {"l48_light", 400.0},
    {"l48_heavy", 600.0},
};

// ---- small helpers ---------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample, with the number of samples
/// lying beyond it: a percentile is only meaningful with ten or more.
struct Percentile {
  double value = 0.0;
  std::size_t beyond = 0;
  bool supported() const { return beyond >= 10; }
};

Percentile percentile(const std::vector<double>& sorted, double p) {
  Percentile out;
  if (sorted.empty()) return out;
  const auto n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  out.value = sorted[rank - 1];
  out.beyond = n - rank;
  return out;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

template <typename F>
double seconds_of(F&& fn) {
  common::Timer t;
  fn();
  return t.seconds();
}

/// Collects failed correctness gates; any failure makes the run fail.
class Gates {
 public:
  void check(bool ok, const std::string& what) {
    std::printf("gate %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) failed_.push_back(what);
  }
  bool ok() const { return failed_.empty(); }

 private:
  std::vector<std::string> failed_;
};

/// Ordered metric map printed as the result line's "metrics" object.
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }

  std::string json() const {
    std::string out = "{";
    char buf[128];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

  void print_table() const {
    for (const auto& m : items_) {
      std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

// ---- open-loop load generator ----------------------------------------------

/// Outcome of one open-loop phase at a fixed rate.
struct PhaseResult {
  double rate_rps = 0.0;
  index_t sent = 0;
  index_t completed = 0;  ///< delivered a draw
  index_t shed = 0;       ///< OverloadError at admission
  index_t missed = 0;     ///< DeadlineError
  index_t failed = 0;     ///< any other error
  std::vector<double> latency_ms;  ///< completed only, send order, from intended send
  std::vector<double> late_ms;     ///< actual minus intended send time
  std::vector<double> submit_us;   ///< duration of submit()
  double window_s = 0.0;  ///< first intended send to last reply
  serve::ServiceCounters counters;  ///< after drain
  bool accounted = false;

  /// Median over windows of the per-window q-th latency percentile.
  double windowed(double q) const {
    const std::size_t n = latency_ms.size();
    const std::size_t w = std::clamp<std::size_t>(n / kWindowRequests, 1, kMaxWindows);
    std::vector<double> per_window;
    for (std::size_t i = 0; i < w; ++i) {
      std::vector<double> part(latency_ms.begin() + static_cast<std::ptrdiff_t>(i * n / w),
                               latency_ms.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / w));
      std::sort(part.begin(), part.end());
      per_window.push_back(percentile(part, q).value);
    }
    return median(per_window);
  }
  double completed_rps() const {
    return window_s > 0.0 ? static_cast<double>(completed) / window_s : 0.0;
  }
  double mean_batch() const {
    return counters.batches > 0 ? static_cast<double>(counters.completed +
                                                      counters.deadline_missed) /
                                      static_cast<double>(counters.batches)
                                : 0.0;
  }
};

/// Drives a fresh SamplingService with `count` requests on a fixed schedule
/// (request i is due at t0 + i / rate). One sender thread submits on the
/// schedule without waiting for replies; one collector thread resolves the
/// futures in submission order. Latency is measured from each request's
/// intended send time, so a stall also charges the requests it delayed.
PhaseResult run_phase(const core::FrozenModel& model,
                      const serve::ServiceOptions& options, double rate_rps,
                      index_t count, std::uint64_t first_id) {
  struct InFlight {
    Clock::time_point intended;
    std::future<serve::SampleResult> future;
  };

  PhaseResult r;
  r.rate_rps = rate_rps;
  r.latency_ms.reserve(static_cast<std::size_t>(count));
  r.late_ms.reserve(static_cast<std::size_t>(count));
  r.submit_us.reserve(static_cast<std::size_t>(count));

  serve::SamplingService service(model, options);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> pending;
  bool done_sending = false;
  Clock::time_point last_reply{};

  std::thread collector([&] {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || done_sending; });
        if (pending.empty()) return;
        item = std::move(pending.front());
        pending.pop_front();
      }
      try {
        item.future.get();
        const auto now = Clock::now();
        r.latency_ms.push_back(ms_between(item.intended, now));
        ++r.completed;
        last_reply = now;
      } catch (const serve::DeadlineError&) {
        ++r.missed;
        last_reply = Clock::now();
      } catch (...) {
        ++r.failed;
        last_reply = Clock::now();
      }
    }
  });

  // Ends and joins the collector on every way out of the sender loop.
  struct StopCollector {
    std::mutex& mu;
    std::condition_variable& cv;
    bool& done;
    std::thread& thread;
    ~StopCollector() {
      {
        std::lock_guard<std::mutex> lock(mu);
        done = true;
      }
      cv.notify_one();
      thread.join();
    }
  };

  const auto period = std::chrono::duration<double>(1.0 / rate_rps);
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  {
    const StopCollector stop{mu, cv, done_sending, collector};
    for (index_t i = 0; i < count; ++i) {
      const auto intended =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   period * static_cast<double>(i));
      std::this_thread::sleep_until(intended);
      const auto sent_at = Clock::now();
      r.late_ms.push_back(ms_between(intended, sent_at));
      serve::SampleRequest req;
      req.request_id = first_id + static_cast<std::uint64_t>(i);
      ++r.sent;
      try {
        std::future<serve::SampleResult> f = service.submit(req);
        r.submit_us.push_back(ms_between(sent_at, Clock::now()) * 1e3);
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back({intended, std::move(f)});
        cv.notify_one();
      } catch (const serve::OverloadError&) {
        r.submit_us.push_back(ms_between(sent_at, Clock::now()) * 1e3);
        ++r.shed;
      }
    }
  }
  service.drain();
  r.counters = service.counters();
  r.window_s = last_reply > t0
                   ? std::chrono::duration<double>(last_reply - t0).count()
                   : 0.0;
  const auto& c = r.counters;
  r.accounted = c.submitted == c.completed + c.shed + c.deadline_missed + c.failed &&
                c.queued == 0 && c.in_flight == 0 && c.submitted == r.sent &&
                c.completed == r.completed && c.shed == r.shed &&
                c.deadline_missed == r.missed && c.failed == r.failed;
  return r;
}

void print_phase(const char* label, const PhaseResult& r) {
  std::vector<double> sorted = r.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  const Percentile p50 = percentile(sorted, 0.50);
  const Percentile p99 = percentile(sorted, 0.99);
  const Percentile p999 = percentile(sorted, 0.999);
  char p99s[32] = "-";
  char p999s[32] = "-";
  if (p99.supported()) std::snprintf(p99s, sizeof(p99s), "%.3f", p99.value);
  if (p999.supported()) std::snprintf(p999s, sizeof(p999s), "%.3f", p999.value);
  std::printf(
      "  %-10s rate %6.0f/s sent %6lld ok %6lld shed %5lld missed %5lld "
      "failed %lld | p50 %.3f p99 %s p999 %s ms (n=%zu) | %.0f/s done, "
      "batch %.2f\n",
      label, r.rate_rps, static_cast<long long>(r.sent),
      static_cast<long long>(r.completed), static_cast<long long>(r.shed),
      static_cast<long long>(r.missed), static_cast<long long>(r.failed),
      p50.value, p99s, p999s, r.latency_ms.size(), r.completed_rps(),
      r.mean_batch());
}

// ---- per-layer probes (traced run only) --------------------------------------

/// Rebuilds the VAR innovations xi (N x L^2) exactly as training forms them,
/// from the trained model's public state and the training data, timing each
/// SHT analysis call.
linalg::Matrix innovations(const core::ClimateEmulator& em,
                           const climate::ClimateDataset& data,
                           std::span<const double> forcing,
                           std::vector<double>* analyze_ms) {
  const index_t L = em.config().band_limit;
  const index_t P = em.config().ar_order;
  const index_t T = data.num_steps();
  const index_t R = data.num_ensembles();
  const index_t np = data.grid().num_points();
  const index_t nc = sh_coeff_count(L);
  const sht::SHTPlan plan(L, data.grid());
  std::vector<std::vector<double>> trend(static_cast<std::size_t>(np));
  for (index_t p = 0; p < np; ++p) {
    trend[static_cast<std::size_t>(p)] =
        stats::trend_series(em.trend_models()[static_cast<std::size_t>(p)], T, forcing);
  }
  linalg::Matrix f(R * T, nc);
  std::vector<double> z(static_cast<std::size_t>(np));
  for (index_t rt = 0; rt < R * T; ++rt) {
    const auto obs = data.field(rt / T, rt % T);
    for (index_t p = 0; p < np; ++p) {
      const auto& tm = em.trend_models()[static_cast<std::size_t>(p)];
      z[static_cast<std::size_t>(p)] =
          (obs[static_cast<std::size_t>(p)] -
           trend[static_cast<std::size_t>(p)][static_cast<std::size_t>(rt % T)]) /
          tm.sigma;
    }
    common::Timer t;
    const std::vector<cplx> coeffs = plan.analyze(z);
    analyze_ms->push_back(t.milliseconds());
    const std::vector<double> packed = sht::pack_real(L, coeffs);
    std::copy(packed.begin(), packed.end(), f.row(rt).begin());
  }
  linalg::Matrix xi(R * (T - P), nc);
  for (index_t c = 0; c < nc; ++c) {
    const auto& phi = em.ar_models()[static_cast<std::size_t>(c)].phi;
    index_t row = 0;
    for (index_t r = 0; r < R; ++r) {
      for (index_t t = P; t < T; ++t) {
        double pred = 0.0;
        for (index_t a = 0; a < P; ++a) {
          pred += phi[static_cast<std::size_t>(a)] * f(r * T + t - 1 - a, c);
        }
        xi(row++, c) = f(r * T + t, c) - pred;
      }
    }
  }
  return xi;
}

linalg::TiledSymmetricMatrix tiles_of(const linalg::Matrix& u) {
  const index_t nt = (u.rows() + kTile - 1) / kTile;
  return linalg::TiledSymmetricMatrix::from_dense(
      u, kTile, linalg::make_band_policy(nt, linalg::PrecisionVariant::DP));
}

/// Median wall seconds of a fresh factorization under `mode`.
double cholesky_wall_under(const linalg::Matrix& u, runtime::VerifyMode mode,
                           int reps) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    linalg::TiledSymmetricMatrix t = tiles_of(u);
    runtime::RtCholeskyOptions opt;
    opt.verify = mode;
    s.push_back(seconds_of([&] { runtime::cholesky_tiled_parallel(t, opt); }));
  }
  return median(s);
}

struct BatchTiming {
  double wall_ms = 0.0;
  double dag_ms = 0.0;
};

/// Median wall and in-DAG time of BatchSampler::run_batch at width k.
BatchTiming run_batch_timing(const core::FrozenModel& model, index_t k,
                             runtime::VerifyMode mode, std::uint64_t seed,
                             int reps) {
  serve::SamplerOptions opt;
  opt.seed = seed;
  opt.verify = mode;
  serve::BatchSampler sampler(model, opt);
  std::vector<serve::SampleRequest> reqs(static_cast<std::size_t>(k));
  std::vector<double> wall, dag;
  for (int i = 0; i < reps + 1; ++i) {
    for (index_t j = 0; j < k; ++j) {
      reqs[static_cast<std::size_t>(j)].request_id =
          static_cast<std::uint64_t>(i * 64 + j);
    }
    common::Timer t;
    const serve::BatchOutcome out =
        sampler.run_batch(reqs, false, static_cast<std::uint64_t>(i));
    const double w = t.milliseconds();
    if (i == 0) continue;  // warm-up
    wall.push_back(w);
    dag.push_back(out.stats.seconds * 1e3);
  }
  return {median(wall), median(dag)};
}

// ---- the run ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8.0;
  bool trace = false;
  std::string workdir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 == argc) throw std::invalid_argument("flag " + key + " needs a value");
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--workdir") {
      a.workdir = val;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::string meta_json(const Args& args) {
  const auto& team = common::WorkerTeam::instance();
  const auto& topo = common::Topology::instance();
  const unsigned hc = std::thread::hardware_concurrency();
  const linalg::KernelTuning tuning = linalg::active_tuning();
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"meta\": {\"bench\": \"perfbench\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"hardware_concurrency\": %u, \"degraded_env\": %s, \"threads\": %u, "
      "\"pinned\": %d, \"numa_nodes\": %u, \"verify_mode\": \"%s\", "
      "\"tune_mode\": \"%s\", \"tune_probed\": %s, "
      "\"f64_kc\": %lld, \"f64_mc\": %lld, \"f64_nc\": %lld, "
      "\"f32_kc\": %lld, \"f32_mc\": %lld, \"f32_nc\": %lld, "
      "\"build_type\": \"%s\"}}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, hc, hc <= 1 ? "true" : "false",
      team.max_participants(), team.pinned() ? 1 : 0, topo.num_nodes(),
      runtime::verify_mode_name(
          runtime::resolve_verify_mode(runtime::VerifyMode::Default)),
      linalg::tune_mode_name(tuning.mode).c_str(),
      tuning.probed ? "true" : "false", static_cast<long long>(tuning.f64.kc),
      static_cast<long long>(tuning.f64.mc),
      static_cast<long long>(tuning.f64.nc),
      static_cast<long long>(tuning.f32.kc),
      static_cast<long long>(tuning.f32.mc),
      static_cast<long long>(tuning.f32.nc), PERFBENCH_BUILD_TYPE);
  return buf;
}

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  std::filesystem::create_directories(args.workdir);
  const std::string model_path = args.workdir + "/model-" + wl->name + ".bin";

  Gates gates;
  Metrics e2e;    // --trace 0
  Metrics layer;  // --trace 1

  // ---- set-up: data generation --------------------------------------------
  climate::SyntheticEsmConfig data_cfg;
  data_cfg.band_limit = kBandLimit;
  data_cfg.grid = {kNlat, kNlon};
  data_cfg.num_years = kYears;
  data_cfg.steps_per_year = kStepsPerYear;
  data_cfg.num_ensembles = kMembers;
  data_cfg.seed = args.seed;
  std::vector<double> setup_s;
  std::optional<climate::SyntheticEsm> esm;
  for (int i = 0; i < kSetupRepeats; ++i) {
    common::Timer t;
    climate::SyntheticEsm g = climate::generate_synthetic_esm(data_cfg);
    setup_s.push_back(t.seconds());
    if (esm) {
      gates.check(g.data.raw() == esm->data.raw(),
                  "set-up: generation is deterministic in the seed");
    } else {
      esm.emplace(std::move(g));
    }
  }
  e2e.set("setup_s", median(setup_s), "s");
  const climate::ClimateDataset& data = esm->data;
  const std::vector<double>& forcing = esm->forcing;

  // ---- pipeline: train -> save -> load -> emulate ---------------------------
  core::EmulatorConfig cfg;
  cfg.band_limit = kBandLimit;
  cfg.ar_order = kArOrder;
  cfg.harmonics = kHarmonics;
  cfg.steps_per_year = kStepsPerYear;
  cfg.tile_size = kTile;
  cfg.cholesky_variant = linalg::PrecisionVariant::DP;
  core::ClimateEmulator emulator(cfg);
  core::TrainReport rep;
  const double train_s = seconds_of([&] { rep = emulator.train(data, forcing); });
  e2e.set("train_s", train_s, "s");

  const double save_s = seconds_of(
      [&] { core::save_emulator(emulator, model_path, core::FactorStorage::FP64); });
  std::optional<core::ClimateEmulator> loaded;
  const double load_s =
      seconds_of([&] { loaded.emplace(core::load_emulator(model_path)); });
  climate::ClimateDataset emu;
  std::vector<double> emulate_s;
  for (int i = 0; i < kEmulateRepeats; ++i) {
    emulate_s.push_back(seconds_of([&] {
      emu = loaded->emulate(kEmulateSteps, kEmulateMembers, forcing,
                            args.seed ^ 0xE3u);
    }));
    std::printf("emulate %d: %.4f s\n", i, emulate_s.back());
  }
  e2e.set("emulate_s", median(emulate_s), "s");

  const linalg::Matrix& factor = loaded->cholesky_factor();
  gates.check(std::all_of(factor.data(),
                          factor.data() + factor.rows() * factor.cols(),
                          [](double v) { return std::isfinite(v); }),
              "pipeline: Cholesky factor is finite");
  const core::ConsistencyReport cons =
      core::evaluate_consistency(data, emu, kBandLimit);
  std::printf(
      "consistency: mean %.4f sd %.4f acf %.4f spectrum %.4f (tol 0.35)\n",
      cons.mean_field_rel_rmse, cons.sd_field_rel_rmse, cons.acf_mad,
      cons.spectrum_log10_mad);
  gates.check(cons.consistent(), "pipeline: emulation consistent with training data");

  // ---- serving ---------------------------------------------------------------
  std::optional<core::FrozenModel> model;
  const double open_s = seconds_of([&] { model.emplace(model_path); });
  // Lazy work users pay once per process: CRC of the factor section and the
  // fp32 plane of the degradation ladder.
  (void)model->factor();
  (void)model->degraded_factor();

  serve::ServiceOptions base;
  base.max_batch = kMaxBatch;
  base.queue_depth = kDeepQueue;
  base.sampler.seed = args.seed;

  // Gate: one request id served by the service equals the same id run
  // directly through BatchSampler, byte for byte.
  {
    const std::uint64_t probe_id = 777;
    serve::SampleResult via_service;
    {
      serve::SamplingService svc(*model, base);
      serve::SampleRequest req;
      req.request_id = probe_id;
      via_service = svc.submit(req).get();
      svc.drain();
    }
    serve::BatchSampler direct(*model, base.sampler);
    serve::SampleRequest req;
    req.request_id = probe_id;
    direct.run_batch({req}, false, 1);
    std::vector<double> col(static_cast<std::size_t>(direct.dim()));
    direct.extract_column(0, col.data());
    gates.check(via_service.values.size() == col.size() &&
                    std::memcmp(via_service.values.data(), col.data(),
                                col.size() * sizeof(double)) == 0,
                "serve: service draw byte-identical to BatchSampler");
  }

  // Warm-up: brings the worker team and the allocator to steady state.
  (void)run_phase(*model, base, 1000.0, 200, 1u << 30);

  const index_t count = std::max<index_t>(
      kMinPhaseRequests, static_cast<index_t>(std::ceil(wl->rate_rps * args.seconds)));
  const PhaseResult phase = run_phase(*model, base, wl->rate_rps, count, 0);
  std::printf("serving (%s):\n", wl->name);
  print_phase("workload", phase);
  gates.check(phase.accounted,
              "serve: submitted == completed+shed+missed+failed, queue empty");
  gates.check(phase.failed == 0 && phase.shed == 0 && phase.missed == 0,
              "serve: every request at the workload's rate completed");
  e2e.set("p50_ms", phase.windowed(0.50), "ms");

  // Operations: every request sent, the probe request, and the pipeline pass.
  index_t attempted = phase.sent + 2;
  index_t failed = phase.failed + phase.shed + phase.missed;

  // ---- traced run: per-layer metrics ------------------------------------------
  if (args.trace) {
    layer.set("core.train_s", train_s, "s");
    climate::ValidationOptions vopts;
    const double validate_s =
        seconds_of([&] { climate::validate_dataset(data, vopts); });
    layer.set("climate.validate_s", validate_s, "s");
    layer.set("stats.trend_s", rep.trend_seconds, "s");
    layer.set("sht.stage_s", rep.sht_seconds, "s");
    layer.set("stats.ar_s", rep.ar_seconds, "s");
    layer.set("stats.covariance_stage_s", rep.covariance_seconds, "s");
    layer.set("core.cholesky_stage_s", rep.cholesky_seconds, "s");
    layer.set("core.train_unattributed_s",
              train_s - (validate_s + rep.trend_seconds + rep.sht_seconds +
                         rep.ar_seconds + rep.covariance_seconds +
                         rep.cholesky_seconds),
              "s");

    std::vector<double> analyze_ms;
    const linalg::Matrix xi = innovations(emulator, data, forcing, &analyze_ms);
    layer.set("sht.analyze_ms", median(analyze_ms), "ms");
    linalg::Matrix cov;
    const double cov_s =
        seconds_of([&] { cov = stats::empirical_covariance_parallel(xi); });
    const double d = static_cast<double>(xi.cols());
    layer.set("stats.empirical_cov_s", cov_s, "s");
    layer.set("stats.empirical_cov_gflops",
              static_cast<double>(xi.rows()) * d * (d + 1.0) / cov_s * 1e-9,
              "GF/s");
    const stats::PreparedCovariance prepared =
        stats::prepare_covariance(xi, cfg.jitter_base);
    gates.check(prepared.was_deficient == rep.covariance_deficient &&
                    prepared.jitter == rep.covariance_jitter,
                "trace: rebuilt innovations reproduce training's repair");
    bool pd = false;
    layer.set("linalg.pd_check_s",
              seconds_of([&] { pd = linalg::is_positive_definite(prepared.u); }),
              "s");
    gates.check(pd, "trace: repaired covariance is positive definite");

    std::optional<linalg::TiledSymmetricMatrix> tiled;
    layer.set("linalg.tile_from_dense_s",
              seconds_of([&] { tiled.emplace(tiles_of(prepared.u)); }), "s");
    runtime::RtCholeskyResult rt;
    const double chol_wall =
        seconds_of([&] { rt = runtime::cholesky_tiled_parallel(*tiled); });
    layer.set("runtime.cholesky_wall_s", chol_wall, "s");
    layer.set("runtime.cholesky_dag_s", rt.run.seconds, "s");
    layer.set("runtime.cholesky_outside_dag_s", chol_wall - rt.run.seconds, "s");
    layer.set("runtime.cholesky_parallel_eff", rt.run.parallel_efficiency(), "ratio");
    layer.set("runtime.cholesky_tasks", static_cast<double>(rt.run.tasks_executed),
              "count");
    layer.set("runtime.cholesky_steals", static_cast<double>(rt.run.steals), "count");
    linalg::Matrix dense_factor;
    layer.set("linalg.tile_to_dense_s",
              seconds_of([&] { dense_factor = tiled->to_dense(true); }), "s");
    gates.check(dense_factor.rows() == emulator.cholesky_factor().rows() &&
                    std::memcmp(dense_factor.data(),
                                emulator.cholesky_factor().data(),
                                sizeof(double) * static_cast<std::size_t>(
                                    dense_factor.rows() * dense_factor.cols())) == 0,
                "trace: traced factorization equals the trained factor");
    layer.set("runtime.cholesky_wall_s_verify_static",
              cholesky_wall_under(prepared.u, runtime::VerifyMode::Static, 5), "s");
    layer.set("runtime.cholesky_wall_s_verify_off",
              cholesky_wall_under(prepared.u, runtime::VerifyMode::Off, 5), "s");
    {
      linalg::TiledSymmetricMatrix t = tiles_of(prepared.u);
      runtime::CholeskyGraph g(t, linalg::ConversionPlacement::Sender);
      analysis::VerifyReport vr;
      const double ms =
          seconds_of([&] { vr = analysis::verify_dag(g.graph()); }) * 1e3;
      layer.set("analysis.verify_static_ms_cholesky", ms, "ms");
      gates.check(vr.ok(), "trace: Cholesky DAG verifies");
    }

    // GEMM roof: f64 C -= A B^T at n = 256, the tile shape training uses.
    {
      const index_t n = kTile;
      std::vector<double> a(static_cast<std::size_t>(n * n)), b(a.size()),
          c(a.size(), 0.0);
      common::Rng rng(args.seed);
      for (auto& v : a) v = rng.normal();
      for (auto& v : b) v = rng.normal();
      std::vector<double> s;
      for (int i = 0; i < 21; ++i) {
        s.push_back(seconds_of(
            [&] { linalg::gemm_nt_minus_f64(a.data(), b.data(), c.data(), n, n, n); }));
      }
      const double nd = static_cast<double>(n);
      layer.set("linalg.gemm_f64_gflops", 2.0 * nd * nd * nd / median(s) * 1e-9,
                "GF/s");
    }

    // Emulate-side layers: one draw and one synthesis per step.
    {
      common::Rng rng(args.seed);
      std::vector<double> s;
      for (int i = 0; i < 21; ++i) {
        s.push_back(seconds_of([&] { (void)linalg::sample_mvn(factor, rng); }) * 1e3);
      }
      layer.set("linalg.sample_mvn_ms", median(s), "ms");
      layer.set("core.emulate_draws",
                static_cast<double>(kEmulateMembers *
                                    (kEmulateSteps + cfg.emulation_burn_in + kArOrder)),
                "count");
      const sht::SHTPlan plan(kBandLimit, data.grid());
      std::vector<double> packed(static_cast<std::size_t>(sh_coeff_count(kBandLimit)));
      std::vector<double> syn;
      for (int i = 0; i < 41; ++i) {
        for (auto& v : packed) v = rng.normal();
        const std::vector<cplx> coeffs = sht::unpack_real(kBandLimit, packed);
        syn.push_back(seconds_of([&] { (void)plan.synthesize(coeffs); }) * 1e3);
      }
      layer.set("sht.synthesize_ms", median(syn), "ms");
    }

    layer.set("core.save_s", save_s, "s");
    layer.set("core.load_s", load_s, "s");
    layer.set("core.frozen_open_s", open_s, "s");

    // Sampling DAG and batch timings, default verification and both modes.
    {
      const index_t n = model->factor_dim();
      std::vector<double> z(static_cast<std::size_t>(n * kMaxBatch), 0.5);
      std::vector<double> x(z.size(), 0.0);
      runtime::SamplingDagOptions dopt;
      const runtime::TaskGraph graph = runtime::build_sampling_dag(
          model->factor(), z.data(), x.data(), kMaxBatch, nullptr, dopt);
      analysis::VerifyReport vr;
      const double ms = seconds_of([&] { vr = analysis::verify_dag(graph); }) * 1e3;
      layer.set("analysis.verify_static_ms_sampling", ms, "ms");
      gates.check(vr.ok(), "trace: sampling DAG verifies");
    }
    constexpr int kBatchReps = 41;
    const auto def = runtime::VerifyMode::Default;
    const BatchTiming k1 = run_batch_timing(*model, 1, def, args.seed, kBatchReps);
    const BatchTiming k16 =
        run_batch_timing(*model, kMaxBatch, def, args.seed, kBatchReps);
    layer.set("serve.run_batch_ms_k1", k1.wall_ms, "ms");
    layer.set("serve.run_batch_outside_dag_ms_k1", k1.wall_ms - k1.dag_ms, "ms");
    layer.set("serve.run_batch_ms_k16", k16.wall_ms, "ms");
    layer.set("serve.run_batch_dag_ms_k16", k16.dag_ms, "ms");
    for (const auto mode : {runtime::VerifyMode::Static, runtime::VerifyMode::Off}) {
      const std::string suffix =
          std::string("_verify_") + runtime::verify_mode_name(mode);
      layer.set("serve.run_batch_ms_k1" + suffix,
                run_batch_timing(*model, 1, mode, args.seed, kBatchReps).wall_ms,
                "ms");
      layer.set("serve.run_batch_ms_k16" + suffix,
                run_batch_timing(*model, kMaxBatch, mode, args.seed, kBatchReps)
                    .wall_ms,
                "ms");
    }

    // Service at the workload's rate.
    std::vector<double> sorted = phase.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> late = phase.late_ms;
    std::sort(late.begin(), late.end());
    layer.set("serve.sent", static_cast<double>(phase.sent), "count");
    layer.set("serve.succeeded", static_cast<double>(phase.completed), "count");
    layer.set("serve.batches", static_cast<double>(phase.counters.batches), "count");
    layer.set("serve.mean_batch", phase.mean_batch(), "count");
    layer.set("serve.p90_ms", phase.windowed(0.90), "ms");
    layer.set("serve.p99_ms", percentile(sorted, 0.99).value, "ms");
    layer.set("serve.submit_us_p50", median(phase.submit_us), "us");
    layer.set("serve.gen_late_p99_ms", percentile(late, 0.99).value, "ms");

    // Capacity ladder, on the workload's service options.
    double max_rate = 0.0;
    std::uint64_t next_id = 1u << 20;
    for (const double rate : kLadderRates) {
      const auto n = static_cast<index_t>(std::max(1000.0, rate * kLadderRungSeconds));
      const PhaseResult rung = run_phase(*model, base, rate, n, next_id);
      next_id += static_cast<std::uint64_t>(n);
      attempted += rung.sent;
      failed += rung.failed;
      print_phase("ladder", rung);
      gates.check(rung.accounted, "serve: ladder rung accounted after drain");
      std::vector<double> rs = rung.latency_ms;
      std::sort(rs.begin(), rs.end());
      const Percentile p99 = percentile(rs, 0.99);
      const bool meets = rung.shed == 0 && rung.missed == 0 && rung.failed == 0 &&
                         p99.supported() && p99.value <= kLadderP99LimitMs &&
                         rung.completed_rps() >= kKeepUpShare * rate;
      if (!meets) break;
      max_rate = rung.completed_rps();
    }
    layer.set("serve.max_rate_rps", max_rate, "1/s");

    // Overload burst: shedding and deadline misses are its expected outcomes.
    serve::ServiceOptions oopt = base;
    oopt.queue_depth = kOverloadQueue;
    oopt.deadline_ms = kOverloadDeadlineMs;
    const PhaseResult over =
        run_phase(*model, oopt, kOverloadRate,
                  static_cast<index_t>(kOverloadRate * kOverloadSeconds), next_id);
    attempted += over.sent;
    failed += over.failed;
    print_phase("overload", over);
    gates.check(over.accounted, "serve: overload burst accounted after drain");
    const auto& c = over.counters;
    layer.set("serve.overload_goodput_rps", over.completed_rps(), "1/s");
    layer.set("serve.overload_p50_ms", over.windowed(0.50), "ms");
    layer.set("serve.overload_fail_frac",
              static_cast<double>(over.shed + over.missed + over.failed) /
                  static_cast<double>(over.sent),
              "ratio");
    layer.set("serve.shed", static_cast<double>(c.shed), "count");
    layer.set("serve.deadline_missed", static_cast<double>(c.deadline_missed), "count");
    layer.set("serve.failed", static_cast<double>(c.failed), "count");
    layer.set("serve.shrunk_batches", static_cast<double>(c.shrunk_batches), "count");
    layer.set("serve.degraded_batches", static_cast<double>(c.degraded_batches),
              "count");
    layer.set("serve.retries", static_cast<double>(c.transient_retries), "count");
  }

  std::filesystem::remove(model_path);

  std::printf("%s\n", meta_json(args).c_str());
  const Metrics& out = args.trace ? layer : e2e;
  std::printf("metrics (%s, %s):\n", wl->name, args.trace ? "traced" : "end-to-end");
  out.print_table();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              gates.ok() ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), out.json().c_str());
  std::fflush(stdout);
  return gates.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
