// pipebench — end-to-end and per-layer benchmark of the paper's pipeline
// (generate -> verification fault simulation -> critical/benign labelling
// -> dictionary, minimize, replay) on the three zoo models.
//
//   pipebench --prepare --cache DIR
//       Untimed, idempotent: trains or loads the three models and generates
//       the NMNIST and Gesture stimuli (bench_common.hpp::testgen_config)
//       into DIR.
//   pipebench --workload W --seed N --seconds S --trace 0|1 --cache DIR --out DIR
//       One closed-loop run: set up (timed, warm cache), then repeat the
//       workload's pipeline until S seconds have passed, check every result
//       against independent oracles, and print one JSON result line. With
//       --trace 1 it runs one untraced and one traced iteration plus per-layer
//       probes, writes the Chrome trace and the per-layer table to DIR, and
//       checks the traced outcome and result hashes equal the untraced ones.
//
// The seed selects the fault sample and the dataset samples; the library only
// receives the generated inputs. Exit code 0 = all checks passed, 1 = a check
// failed (the result line is still printed), 2 = usage or input error.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "campaign/engine.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/golden_cache.hpp"
#include "core/test_generator.hpp"
#include "coverage/fault_dictionary.hpp"
#include "coverage/incremental.hpp"
#include "coverage/minimize.hpp"
#include "fault/classifier.hpp"
#include "fault/coverage.hpp"
#include "fault/injector.hpp"
#include "fault/registry.hpp"
#include "obs/trace.hpp"
#include "snn/spike_train.hpp"
#include "tensor/simd.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "zoo/model_zoo.hpp"

using namespace snntest;

namespace {

// ---------------------------------------------------------------- clocks ---

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (all threads, including
/// pool threads that already exited).
double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Restart the resident-set high-water mark, so peak_rss_mb() covers only
/// what runs after this call (Linux /proc/self/clear_refs "5").
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

/// Peak resident set since the last reset_peak_rss() (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median wall seconds of `repeats` calls of fn.
double time_median(size_t repeats, const std::function<void()>& fn) {
  std::vector<double> t;
  for (size_t r = 0; r < repeats; ++r) {
    const double t0 = wall_now();
    fn();
    t.push_back(wall_now() - t0);
  }
  return median(t);
}

/// Span named after a per-layer metric. obs::record_span keeps the name
/// pointer, so names built at run time are interned for the process lifetime.
const char* span_name(const std::string& name) {
  static std::deque<std::string> interned;
  for (const auto& s : interned) {
    if (s == name) return s.c_str();
  }
  return interned.emplace_back(name).c_str();
}

// --------------------------------------------------------------- metrics ---

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Insertion-ordered name -> (value, unit) table.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& [n, m] : rows_) {
      if (n == name) {
        m = {value, unit};
        return;
      }
    }
    rows_.push_back({name, {value, unit}});
  }
  bool has(const std::string& name) const { return find(name) != nullptr; }
  double get(const std::string& name) const {
    const Metric* m = find(name);
    if (m == nullptr) throw std::logic_error("metric not recorded: " + name);
    return m->value;
  }
  const std::vector<std::pair<std::string, Metric>>& rows() const { return rows_; }

  /// The named rows, in the given order; every name must be recorded.
  template <size_t N>
  Metrics pick(const char* const (&names)[N]) const {
    Metrics out;
    for (const char* name : names) {
      const Metric* m = find(name);
      if (m == nullptr) throw std::logic_error(std::string("metric not recorded: ") + name);
      out.set(name, m->value, m->unit);
    }
    return out;
  }

  std::string json() const {
    std::string out = "{";
    for (size_t i = 0; i < rows_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", rows_[i].second.value);
      if (i) out += ",";
      out += "\"" + util::json_escape(rows_[i].first) + "\":{\"value\":" + buf + ",\"unit\":\"" +
             util::json_escape(rows_[i].second.unit) + "\"}";
    }
    return out + "}";
  }

 private:
  const Metric* find(const std::string& name) const {
    for (const auto& [n, m] : rows_) {
      if (n == name) return &m;
    }
    return nullptr;
  }
  std::vector<std::pair<std::string, Metric>> rows_;
};

// ------------------------------------------------------------- workloads ---

struct WorkloadSpec {
  const char* name;
  zoo::BenchmarkId model;
  /// Generate the stimulus live in the timed region (else: prepared one).
  bool live_generation;
  /// Cold/warm dictionary build, minimize and replay over the prepared
  /// chunks plus dataset samples (else: one verification campaign).
  bool dictionary;
  size_t num_faults;
  /// The classifier labels the first classify_faults of the sampled faults
  /// on classify_samples dataset samples (0 = no classification).
  size_t classify_faults;
  size_t classify_samples;
  /// Stimuli of the dictionary: prepared chunks + dataset samples.
  size_t dictionary_stimuli;
  /// Sampled (fault, stimulus) pairs / faults checked against the oracles.
  size_t oracle_pairs;
  size_t oracle_label_faults;
};

// Sizes follow the per-stage wall times in pipebench/README.md: each timed
// stage runs for seconds, not milliseconds, on a 4-core x86-64 host.
const WorkloadSpec kWorkloads[] = {
    {"shd-pipeline", zoo::BenchmarkId::kShd, true, false, 4000, 4000, 32, 0, 48, 8},
    {"nmnist-dictionary", zoo::BenchmarkId::kNmnist, false, true, 12000, 0, 0, 34, 64, 0},
    // Classifying Gesture costs ~0.3 ms per (fault, sample); 550 faults x 22
    // samples keep the stage at seconds but hold only ~20-40 critical faults.
    {"gesture-verify", zoo::BenchmarkId::kGesture, false, false, 3000, 550, 22, 0, 16, 8},
};

// Timed set-ups per untraced run (setup_s is their median).
constexpr size_t kMinSetups = 7;
constexpr size_t kMaxSetups = 31;
constexpr double kSetupSeconds = 4.0;

// Sizes of the per-layer probes: the traced run calls the modules a
// workload's pipeline does not (generation off shd-pipeline, classification
// on nmnist-dictionary, the dictionary stages off nmnist-dictionary) once at
// this size, so every workload reports every per-layer metric.
constexpr size_t kProbeFaults = 1000;
constexpr size_t kProbeClassifyFaults = 300;
constexpr size_t kProbeClassifySamples = 10;
constexpr size_t kProbeGenIterations = 2;

// The result line's metrics, in BENCHMARK.json's order. Every workload
// prints all of them, so stage times (testgen_s, verify_s, classify_s,
// dict_build_s, replay_s) and workload-specific outcomes (fc_critical,
// schedule_frames, escape_acc_drop, oracle_mismatch_share) are in the
// report file only.
const char* const kEndToEnd[] = {"setup_s",    "wall_s",      "cpu_s",
                                 "peak_rss_mb", "fc_overall", "t_test_steps"};
const char* const kPerLayer[] = {
    "zoo.load_s",
    "fault.enumerate_s",
    "core.generate_s",
    "core.iterations",
    "core.iter_s_mean",
    "fault.classify_s",
    "fault.classify_evals",
    "fault.classify_evals_per_s",
    "snn.network.forward_s",
    "campaign.golden_s",
    "campaign.run_s",
    "campaign.pairs_per_s",
    "campaign.forward_savings",
    "campaign.faults_pruned",
    "campaign.lane_occupancy",
    "campaign.lanes_retired_early",
    "campaign.golden_cache_bytes",
    "campaign.fault_layer.0.run_s",
    "campaign.fault_layer.0.faults",
    "campaign.fault_layer.0.pairs_per_s",
    "campaign.fault_layer.1.run_s",
    "campaign.fault_layer.1.faults",
    "campaign.fault_layer.1.pairs_per_s",
    "campaign.fault_layer.2.run_s",
    "campaign.fault_layer.2.faults",
    "campaign.fault_layer.2.pairs_per_s",
    "campaign.fault_layer.sum_s",
    "campaign.fault_layer.whole_s",
    "snn.layer.0.forward_s",
    "snn.layer.1.forward_s",
    "snn.layer.2.forward_s",
    "coverage.build_s",
    "coverage.save_s",
    "coverage.load_s",
    "coverage.dict_bytes",
    "coverage.warm_s",
    "coverage.warm_pairs_reused",
    "coverage.minimize_s",
    "coverage.replay_s",
    "coverage.replay_simulated",
    "coverage.replay_dropped",
    "obs.trace_overhead_s",
    "obs.spans_recorded",
    "obs.spans_dropped",
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Which end-to-end metric, on which workload, each per-layer metric is
/// expected to move. Written next to the per-layer table.
const std::pair<const char*, const char*> kLayerMoves[] = {
    {"zoo.load_s", "setup_s on all workloads"},
    {"fault.enumerate_s", "setup_s on all workloads"},
    {"core.",
     "wall_s on shd-pipeline (its testgen_s stage); a probe outside the timed region elsewhere"},
    {"fault.classify_",
     "wall_s on shd-pipeline and gesture-verify (their classify_s stage); a probe outside the "
     "timed region on nmnist-dictionary"},
    {"snn.network.forward_s", "wall_s via classify_s on shd-pipeline and gesture-verify"},
    {"campaign.golden_s",
     "wall_s via dict_build_s and replay_s on nmnist-dictionary (one golden cache per stimulus "
     "and replay step); one golden cache per run elsewhere"},
    {"campaign.run_s",
     "wall_s via dict_build_s on nmnist-dictionary and verify_s on gesture-verify; a small share "
     "of wall_s on shd-pipeline"},
    {"campaign.pairs_per_s", "same as campaign.run_s"},
    {"campaign.forward_savings", "same as campaign.run_s"},
    {"campaign.faults_pruned", "same as campaign.run_s"},
    {"campaign.lane_occupancy", "same as campaign.run_s"},
    {"campaign.lanes_retired_early", "same as campaign.run_s"},
    {"campaign.golden_cache_bytes", "same as campaign.run_s"},
    {"campaign.fault_layer.",
     "wall_s via verify_s on gesture-verify (deep conv stack) and shd-pipeline (recurrent first "
     "layer); compare fault_layer.sum_s with campaign.fault_layer.whole_s"},
    {"snn.layer.",
     "wall_s via classify_s and verify_s; conv layers dominate on gesture-verify, the recurrent "
     "layer on shd-pipeline"},
    {"coverage.",
     "wall_s and peak_rss_mb on nmnist-dictionary; a probe outside the timed region elsewhere"},
    {"coverage.replay_",
     "wall_s via replay_s on nmnist-dictionary; a probe outside the timed region elsewhere"},
    {"obs.", "bookkeeping only; end-to-end metrics come from the untraced run"},
};

const char* expected_move(const std::string& metric) {
  const char* best = "";
  size_t best_len = 0;
  for (const auto& [prefix, moves] : kLayerMoves) {
    const size_t n = std::strlen(prefix);
    if (n > best_len && metric.compare(0, n, prefix) == 0) {
      best = moves;
      best_len = n;
    }
  }
  return best;
}

// --------------------------------------------------------------- options ---

struct Options {
  bool prepare = false;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;
  std::string out_dir;
};

Options parse_options(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  auto to_u64 = [](const std::string& flag, const std::string& s) {
    size_t pos = 0;
    const unsigned long long v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument("bad value for " + flag + ": " + s);
    return static_cast<uint64_t>(v);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--prepare") {
      o.prepare = true;
    } else if (a == "--workload") {
      o.workload = need(i);
    } else if (a == "--seed") {
      o.seed = to_u64(a, need(i));
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(to_u64(a, need(i)));
    } else if (a == "--trace") {
      const std::string v = need(i);
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--cache") {
      o.cache_dir = need(i);
    } else if (a == "--out") {
      o.out_dir = need(i);
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.cache_dir.empty()) throw std::invalid_argument("--cache is required");
  if (!o.prepare) {
    if (find_workload(o.workload) == nullptr) {
      throw std::invalid_argument("unknown --workload '" + o.workload +
                                  "' (shd-pipeline|nmnist-dictionary|gesture-verify)");
    }
    if (o.out_dir.empty()) throw std::invalid_argument("--out is required");
    if (o.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  }
  return o;
}

/// Threads for every parallel stage: min(4, CPUs this process may run on).
size_t bench_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  size_t cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = std::max(1, CPU_COUNT(&set));
  return std::min<size_t>(4, cpus);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  }
  return "unknown";
}

// ----------------------------------------------------------------- inputs ---

/// The seeded dataset samples, materialized once so the library sees plain
/// inputs (classify_faults labels against the first N samples it is given).
/// The choice is class-balanced: it walks a seeded permutation and keeps a
/// sample while its class is under quota. Spike activity, and with it the
/// classifier's cost, differs by class, so an unbalanced draw would make
/// classify_s swing from seed to seed.
class SampleSet final : public data::Dataset {
 public:
  SampleSet(const data::Dataset& base, size_t count, util::Rng& rng)
      : name_(base.name() + "-sampled"),
        classes_(base.num_classes()),
        inputs_(base.input_size()),
        steps_(base.num_steps()) {
    std::vector<size_t> taken(classes_, 0);
    for (size_t i : rng.permutation(base.size())) {
      if (samples_.size() == count) break;
      data::Sample sample = base.get(i);
      const size_t quota = count / classes_ + (sample.label < count % classes_ ? 1 : 0);
      if (taken.at(sample.label) < quota) {
        ++taken[sample.label];
        samples_.push_back(std::move(sample));
      }
    }
  }
  std::string name() const override { return name_; }
  size_t size() const override { return samples_.size(); }
  size_t num_classes() const override { return classes_; }
  size_t input_size() const override { return inputs_; }
  size_t num_steps() const override { return steps_; }
  data::Sample get(size_t index) const override { return samples_.at(index); }

 private:
  std::string name_;
  size_t classes_, inputs_, steps_;
  std::vector<data::Sample> samples_;
};

struct NamedStimulus {
  std::string name;
  tensor::Tensor data;
};

/// Everything set-up produces; the timed iterations only read it.
struct Inputs {
  zoo::BenchmarkBundle bundle;
  std::vector<fault::FaultDescriptor> faults;
  std::vector<fault::FaultDescriptor> classify_faults;  // prefix of `faults`
  std::optional<SampleSet> samples;        // classification samples
  std::optional<core::TestStimulus> prepared;  // generated during --prepare
  std::vector<NamedStimulus> dict_stimuli;     // dictionary workload
  double load_s = 0.0;
  double enumerate_s = 0.0;
};

zoo::ZooOptions zoo_options(const std::string& cache_dir) {
  zoo::ZooOptions z;
  z.cache_dir = cache_dir;
  z.verbose = false;
  return z;
}

Inputs set_up(const WorkloadSpec& spec, const Options& opt) {
  Inputs in;
  double t0 = wall_now();
  {
    OBS_SPAN("zoo.load_s");
    in.bundle = zoo::load_or_train(spec.model, zoo_options(opt.cache_dir));
  }
  in.load_s = wall_now() - t0;
  if (!in.bundle.from_cache) {
    throw std::runtime_error("model cache was cold; run --prepare first");
  }
  util::Rng rng(util::mix_seed(opt.seed, 0x5EED, 0));
  t0 = wall_now();
  {
    OBS_SPAN("fault.enumerate_s");
    const auto universe = fault::enumerate_faults(in.bundle.network);
    in.faults = fault::sample_faults(universe, std::min(spec.num_faults, universe.size()), rng);
  }
  in.enumerate_s = wall_now() - t0;

  const data::Dataset& test = *in.bundle.test;
  if (spec.classify_samples > 0) {
    in.classify_faults.assign(in.faults.begin(),
                              in.faults.begin() + std::min(spec.classify_faults, in.faults.size()));
    in.samples.emplace(test, spec.classify_samples, rng);
  }
  if (!spec.live_generation) {
    const std::string path = bench::stimulus_cache_path(spec.model);
    if (!std::filesystem::exists(path)) {
      throw std::runtime_error("prepared stimulus " + path + " missing; run --prepare first");
    }
    in.prepared = core::TestStimulus::load(path);
  }
  if (spec.dictionary) {
    const auto& chunks = in.prepared->chunks();
    for (size_t c = 0; c < chunks.size() && c < spec.dictionary_stimuli; ++c) {
      in.dict_stimuli.push_back({"chunk" + std::to_string(c), chunks[c]});
    }
    const size_t extra = spec.dictionary_stimuli - in.dict_stimuli.size();
    for (size_t i : rng.sample_without_replacement(test.size(), extra)) {
      in.dict_stimuli.push_back({"sample" + std::to_string(i), test.get(i).input});
    }
  }
  return in;
}

// ----------------------------------------------------------- result hashes ---

uint64_t hash_detections(const std::vector<fault::DetectionResult>& rs, uint64_t h) {
  for (const auto& r : rs) {
    const uint8_t d = r.detected;
    h = util::fnv1a(&d, 1, h);
    h = util::fnv1a(&r.output_l1, sizeof(r.output_l1), h);
    h = util::fnv1a(&r.first_detection_frame, sizeof(r.first_detection_frame), h);
    if (!r.class_count_diff.empty()) {
      h = util::fnv1a(r.class_count_diff.data(), r.class_count_diff.size() * sizeof(long), h);
    }
  }
  return h;
}

uint64_t hash_labels(const std::vector<fault::FaultClassification>& ls) {
  uint64_t h = util::kFnvOffsetBasis;
  for (const auto& l : ls) {
    const uint8_t c = l.critical;
    h = util::fnv1a(&c, 1, h);
    h = util::fnv1a(&l.prediction_changes, sizeof(l.prediction_changes), h);
    h = util::fnv1a(&l.accuracy_drop, sizeof(l.accuracy_drop), h);
  }
  return h;
}

std::string hex64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// -------------------------------------------------------------- iteration ---

/// One pass of the workload's pipeline. Stage times are wall seconds of the
/// library calls; the artifacts are kept for the oracle checks.
struct Iteration {
  double wall_s = 0.0, cpu_s = 0.0;
  Metrics stages;   // testgen_s, verify_s, classify_s, dict_build_s, replay_s
  Metrics layer;    // per-layer numbers this iteration produced
  Metrics outcome;  // deterministic quality metrics
  std::vector<std::pair<std::string, uint64_t>> hashes;

  tensor::Tensor stimulus;  // the verified stimulus (generated or prepared)
  std::vector<tensor::Tensor> chunks;  // the generated stimulus's chunks
  std::vector<fault::DetectionResult> detections;
  std::vector<fault::FaultClassification> labels;
  std::vector<std::vector<fault::DetectionResult>> cold, warm;  // per dictionary stimulus
  std::optional<coverage::FaultDictionary> built, loaded;
  coverage::TestSchedule schedule;
  coverage::ScheduleReplayResult replay;

  /// Drop everything but the timings, outcome and hashes, so an earlier
  /// iteration's results do not count toward the next one's peak RSS.
  void release_artifacts() {
    detections = {};
    labels = {};
    cold = {};
    warm = {};
    built.reset();
    loaded.reset();
    replay = {};
  }
};

campaign::EngineConfig engine_config(size_t threads) {
  campaign::EngineConfig c;
  c.num_threads = threads;
  return c;
}

void record_engine_stats(Metrics& m, const campaign::EngineStats& s, double run_s, size_t pairs) {
  m.set("campaign.run_s", run_s, "s");
  m.set("campaign.pairs_per_s", run_s > 0 ? static_cast<double>(pairs) / run_s : 0.0, "1/s");
  m.set("campaign.forward_savings", s.forward_savings(), "ratio");
  m.set("campaign.faults_pruned", static_cast<double>(s.faults_pruned), "count");
  const double lanes =
      static_cast<double>(s.lane_batches * std::max<size_t>(1, s.lane_width_effective));
  m.set("campaign.lane_occupancy",
        lanes > 0 ? static_cast<double>(s.lane_batched_faults) / lanes : 0.0, "ratio");
  m.set("campaign.lanes_retired_early", static_cast<double>(s.lanes_retired_early), "count");
  m.set("campaign.golden_cache_bytes", static_cast<double>(s.golden_cache_bytes), "bytes");
}

/// Sum of engine counters over several campaigns (the dictionary build runs
/// one per stimulus).
void accumulate(campaign::EngineStats& acc, const campaign::EngineStats& s) {
  acc.faults_pruned += s.faults_pruned;
  acc.layer_forwards += s.layer_forwards;
  acc.layer_forwards_naive += s.layer_forwards_naive;
  acc.lane_batches += s.lane_batches;
  acc.lane_batched_faults += s.lane_batched_faults;
  acc.lanes_retired_early += s.lanes_retired_early;
  acc.lane_width_effective = s.lane_width_effective;
  acc.golden_cache_bytes = std::max(acc.golden_cache_bytes, s.golden_cache_bytes);
}

/// Test generation on a copy of net; records the core.* metrics.
core::TestGenReport generate(const snn::Network& net, const core::TestGenConfig& cfg,
                             Metrics& layer) {
  snn::Network gen_net(net);
  const double t0 = wall_now();
  core::TestGenReport report;
  {
    OBS_SPAN("core.generate_s");
    report = core::TestGenerator(gen_net, cfg).generate();
  }
  const double gen_s = wall_now() - t0;
  layer.set("core.generate_s", gen_s, "s");
  layer.set("core.iterations", static_cast<double>(report.iterations.size()), "count");
  double iter_s = 0.0;
  for (const auto& r : report.iterations) iter_s += r.seconds;
  const size_t n_iter = report.iterations.size();
  layer.set("core.iter_s_mean", n_iter ? iter_s / static_cast<double>(n_iter) : 0.0, "s");
  return report;
}

/// Critical/benign labelling on every given sample; records the
/// fault.classify_* metrics and returns the stage's wall seconds.
double classify(const snn::Network& net, const std::vector<fault::FaultDescriptor>& faults,
                const data::Dataset& samples, size_t threads, Metrics& layer,
                std::vector<fault::FaultClassification>& labels) {
  fault::ClassifierConfig cc;
  cc.max_samples = 0;  // every sample of the seeded subset
  cc.num_threads = threads;
  const double t0 = wall_now();
  fault::ClassificationOutcome classes;
  {
    OBS_SPAN("fault.classify_s");
    classes = fault::classify_faults(net, faults, samples, cc);
  }
  const double classify_s = wall_now() - t0;
  const double evals = static_cast<double>(faults.size() * samples.size());
  layer.set("fault.classify_s", classify_s, "s");
  layer.set("fault.classify_evals", evals, "count");
  layer.set("fault.classify_evals_per_s", evals / classify_s, "1/s");
  labels = std::move(classes.labels);
  return classify_s;
}

void run_verify_and_classify(const Inputs& in, size_t threads, Iteration& it) {
  const snn::Network& net = in.bundle.network;
  double t0 = wall_now();
  campaign::CampaignResult verify;
  {
    OBS_SPAN("campaign.run_s");
    verify = campaign::run_campaign(net, it.stimulus, in.faults, engine_config(threads));
  }
  const double verify_s = wall_now() - t0;
  it.stages.set("verify_s", verify_s, "s");
  record_engine_stats(it.layer, verify.stats, verify_s, in.faults.size());
  it.detections = std::move(verify.results);

  it.stages.set("classify_s",
                classify(net, in.classify_faults, *in.samples, threads, it.layer, it.labels), "s");

  const std::vector<fault::DetectionResult> classified_detections(
      it.detections.begin(), it.detections.begin() + in.classify_faults.size());
  const fault::CoverageReport report =
      fault::build_coverage_report(in.classify_faults, classified_detections, it.labels);
  const size_t crit_total = report.critical_neuron.total + report.critical_synapse.total;
  const size_t crit_detected = report.critical_neuron.detected + report.critical_synapse.detected;
  it.outcome.set("fc_critical",
                 crit_total ? static_cast<double>(crit_detected) / static_cast<double>(crit_total)
                            : 1.0,
                 "ratio");
  it.outcome.set("fc_overall", fault::fault_coverage(it.detections), "ratio");
  it.outcome.set("escape_acc_drop",
                 std::max(report.max_escape_accuracy_drop_neuron,
                          report.max_escape_accuracy_drop_synapse),
                 "ratio");
  it.hashes.push_back({"detections", hash_detections(it.detections, util::kFnvOffsetBasis)});
  it.hashes.push_back({"labels", hash_labels(it.labels)});
}

void run_dictionary(const snn::Network& net, const std::vector<NamedStimulus>& stimuli,
                    const std::vector<fault::FaultDescriptor>& faults, size_t threads,
                    const std::string& dict_path, Iteration& it) {
  coverage::FaultDictionary dict = coverage::make_dictionary(net, faults);
  coverage::IncrementalConfig ic;
  ic.engine = engine_config(threads);

  // Cold build: every pair simulated and recorded.
  campaign::EngineStats cold_stats;
  double t0 = wall_now();
  for (const auto& s : stimuli) {
    ic.stimulus_name = s.name;
    OBS_SPAN("campaign.run_s");
    auto r = coverage::run_incremental_campaign(net, s.data, faults, dict, ic);
    accumulate(cold_stats, r.campaign.stats);
    it.cold.push_back(std::move(r.campaign.results));
  }
  const double build_s = wall_now() - t0;
  it.stages.set("dict_build_s", build_s, "s");
  it.layer.set("coverage.build_s", build_s, "s");
  record_engine_stats(it.layer, cold_stats, build_s, faults.size() * stimuli.size());

  t0 = wall_now();
  {
    OBS_SPAN("coverage.save_s");
    dict.save_atomic(dict_path);
  }
  it.layer.set("coverage.save_s", wall_now() - t0, "s");
  it.layer.set("coverage.dict_bytes", static_cast<double>(std::filesystem::file_size(dict_path)),
               "bytes");
  t0 = wall_now();
  {
    OBS_SPAN("coverage.load_s");
    it.loaded = coverage::FaultDictionary::load(dict_path);
  }
  it.layer.set("coverage.load_s", wall_now() - t0, "s");
  if (!it.loaded) throw std::runtime_error("dictionary " + dict_path + " did not load back");
  it.built = std::move(dict);

  // Warm re-run against the loaded dictionary: every pair is a lookup.
  size_t reused = 0;
  t0 = wall_now();
  for (const auto& s : stimuli) {
    ic.stimulus_name = s.name;
    OBS_SPAN("coverage.warm_s");
    auto r = coverage::run_incremental_campaign(net, s.data, faults, *it.loaded, ic);
    reused += r.coverage.pairs_reused;
    it.warm.push_back(std::move(r.campaign.results));
  }
  it.layer.set("coverage.warm_s", wall_now() - t0, "s");
  it.layer.set("coverage.warm_pairs_reused", static_cast<double>(reused), "count");

  t0 = wall_now();
  std::optional<coverage::FaultDictionary> schedule_dict;
  {
    OBS_SPAN("coverage.minimize_s");
    it.schedule = coverage::minimize_schedule(*it.loaded);
    schedule_dict = coverage::schedule_as_dictionary(*it.loaded, it.schedule);
  }
  it.layer.set("coverage.minimize_s", wall_now() - t0, "s");

  coverage::ScheduleReplayConfig rc;
  rc.engine = engine_config(threads);
  t0 = wall_now();
  {
    OBS_SPAN("coverage.replay_s");
    it.replay = coverage::replay_schedule(net, *schedule_dict, faults, rc);
  }
  const double replay_s = wall_now() - t0;
  it.stages.set("replay_s", replay_s, "s");
  it.layer.set("coverage.replay_s", replay_s, "s");
  size_t simulated = 0, dropped = 0;
  for (const auto& st : it.replay.steps) {
    simulated += st.faults_simulated;
    dropped += st.faults_dropped;
  }
  it.layer.set("coverage.replay_simulated", static_cast<double>(simulated), "count");
  it.layer.set("coverage.replay_dropped", static_cast<double>(dropped), "count");

  it.outcome.set("fc_overall",
                 static_cast<double>(it.loaded->detectable_count()) /
                     static_cast<double>(faults.size()),
                 "ratio");
  it.outcome.set("t_test_steps", static_cast<double>(it.schedule.all_stimuli_frames), "steps");
  it.outcome.set("schedule_frames", static_cast<double>(it.schedule.scheduled_frames), "steps");

  uint64_t h = util::kFnvOffsetBasis;
  for (const auto& rs : it.cold) h = hash_detections(rs, h);
  it.hashes.push_back({"cold_detections", h});
  uint64_t sh = util::kFnvOffsetBasis;
  for (const auto& st : it.schedule.steps) {
    sh = util::fnv1a(&st.stimulus, sizeof(st.stimulus), sh);
    sh = util::fnv1a(&st.cumulative_detected, sizeof(st.cumulative_detected), sh);
  }
  it.hashes.push_back({"schedule", sh});
  it.hashes.push_back(
      {"replay_detected", util::fnv1a(it.replay.detected.data(), it.replay.detected.size())});
}

Iteration run_iteration(const WorkloadSpec& spec, const Inputs& in, size_t threads,
                        const std::string& dict_path) {
  Iteration it;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  OBS_SPAN("pipebench.iteration");
  if (spec.live_generation) {
    core::TestGenConfig cfg = bench::testgen_config(spec.model);
    cfg.num_threads = 1;  // restarts = 1: the generator runs on one thread
    const core::TestGenReport report = generate(in.bundle.network, cfg, it.layer);
    if (report.hit_time_limit) {
      throw std::runtime_error(
          "test generation hit its time limit; the stimulus is not reproducible");
    }
    it.stages.set("testgen_s", it.layer.get("core.generate_s"), "s");
    it.stimulus = report.stimulus.assemble();
    it.chunks = report.stimulus.chunks();
  } else {
    it.stimulus = in.prepared->assemble();
  }

  if (spec.dictionary) {
    run_dictionary(in.bundle.network, in.dict_stimuli, in.faults, threads, dict_path, it);
  } else {
    run_verify_and_classify(in, threads, it);
    it.outcome.set("t_test_steps", static_cast<double>(it.stimulus.shape().dim(0)), "steps");
  }
  it.hashes.insert(it.hashes.begin(), {"stimulus", campaign::hash_stimulus(it.stimulus, 0)});
  it.wall_s = wall_now() - w0;
  it.cpu_s = cpu_now() - c0;
  return it;
}

// ----------------------------------------------------------------- oracle ---

/// Counts oracle-checked operations and the ones whose result differs.
struct Checks {
  size_t attempted = 0;
  size_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
    }
  }
};

bool same_detection(const fault::DetectionResult& a, const fault::DetectionResult& b) {
  return a.detected == b.detected && a.output_l1 == b.output_l1 &&
         a.first_detection_frame == b.first_detection_frame &&
         a.class_count_diff == b.class_count_diff;
}

/// Plain loop: one clone, one ScopedFault and one Network::forward per pair,
/// with Eq. (3)'s L1, the first frame whose cumulative L1 exceeds 0, and
/// per-class spike-count differences computed here, not by the engine.
class DetectionOracle {
 public:
  explicit DetectionOracle(const snn::Network& net) : worker_(net) {
    snn::Network probe(net);
    injector_.emplace(worker_, fault::compute_weight_stats(probe));
  }

  fault::DetectionResult evaluate(const tensor::Tensor& stimulus,
                                  const fault::FaultDescriptor& f) {
    if (golden_for_ != &stimulus) {
      golden_ = worker_.forward(stimulus).output();
      golden_for_ = &stimulus;
    }
    fault::ScopedFault scoped(*injector_, f);
    const tensor::Tensor out = worker_.forward(stimulus).output();
    const size_t T = golden_.shape().dim(0), C = golden_.shape().dim(1);
    fault::DetectionResult r;
    r.output_l1 = snn::output_distance(golden_, out);
    r.detected = r.output_l1 > 0.0;
    double acc = 0.0;
    for (size_t t = 0; t < T && r.first_detection_frame < 0; ++t) {
      for (size_t c = 0; c < C; ++c) {
        acc += std::abs(static_cast<double>(golden_[t * C + c]) -
                        static_cast<double>(out[t * C + c]));
      }
      if (acc > 0.0) r.first_detection_frame = static_cast<int64_t>(t);
    }
    r.class_count_diff.resize(C);
    for (size_t c = 0; c < C; ++c) {
      long g = 0, o = 0;
      for (size_t t = 0; t < T; ++t) {
        g += golden_[t * C + c] != 0.0f;
        o += out[t * C + c] != 0.0f;
      }
      r.class_count_diff[c] = o - g;
    }
    return r;
  }

 private:
  snn::Network worker_;
  std::optional<fault::FaultInjector> injector_;
  tensor::Tensor golden_;
  const tensor::Tensor* golden_for_ = nullptr;
};

void check_against_oracles(const WorkloadSpec& spec, const Inputs& in, const Iteration& it,
                           uint64_t seed, Checks& checks) {
  const snn::Network& net = in.bundle.network;
  util::Rng rng(util::mix_seed(seed, 0x0AC1E, 0));
  DetectionOracle oracle(net);

  if (spec.dictionary) {
    const size_t S = in.dict_stimuli.size();
    // Sampled pairs in stimulus order so each golden forward is reused.
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t p = 0; p < spec.oracle_pairs; ++p) {
      pairs.push_back({rng.uniform_index(S), rng.uniform_index(in.faults.size())});
    }
    std::sort(pairs.begin(), pairs.end());
    for (const auto& [s, f] : pairs) {
      const auto expected = oracle.evaluate(in.dict_stimuli[s].data, in.faults[f]);
      checks.expect(same_detection(it.cold[s][f], expected),
                    "cold campaign vs oracle at stimulus " + in.dict_stimuli[s].name + " fault " +
                        std::to_string(f));
    }
    bool warm_equal = it.warm.size() == it.cold.size();
    for (size_t s = 0; warm_equal && s < S; ++s) {
      warm_equal = it.warm[s].size() == it.cold[s].size();
      for (size_t f = 0; warm_equal && f < it.cold[s].size(); ++f) {
        warm_equal = same_detection(it.warm[s][f], it.cold[s][f]);
      }
    }
    checks.expect(warm_equal, "warm re-run results equal cold results");
    checks.expect(it.replay.total_detected == it.schedule.covered_faults,
                  "replay total_detected (" + std::to_string(it.replay.total_detected) +
                      ") equals schedule covered_faults (" +
                      std::to_string(it.schedule.covered_faults) + ")");
    checks.expect(it.built->serialize() == it.loaded->serialize(),
                  "dictionary after load equals dictionary before save");
    return;
  }

  for (size_t p = 0; p < spec.oracle_pairs; ++p) {
    const size_t f = rng.uniform_index(in.faults.size());
    checks.expect(same_detection(it.detections[f], oracle.evaluate(it.stimulus, in.faults[f])),
                  "verification campaign vs oracle at fault " + std::to_string(f));
  }

  // Classification labels: golden predictions, then one forward per
  // (fault, sample) on a faulty clone.
  snn::Network worker(net);
  snn::Network probe(net);
  fault::FaultInjector injector(worker, fault::compute_weight_stats(probe));
  const size_t n = in.samples->size();
  std::vector<data::Sample> samples;
  std::vector<size_t> golden_pred(n);
  size_t golden_correct = 0;
  for (size_t i = 0; i < n; ++i) {
    samples.push_back(in.samples->get(i));
    golden_pred[i] = worker.forward(samples[i].input).predicted_class(snn::Decoding::kRate);
    golden_correct += golden_pred[i] == samples[i].label;
  }
  const double golden_acc = static_cast<double>(golden_correct) / static_cast<double>(n);
  for (size_t p = 0; p < spec.oracle_label_faults; ++p) {
    const size_t f = rng.uniform_index(in.classify_faults.size());
    fault::FaultClassification ref;
    size_t correct = 0;
    {
      fault::ScopedFault scoped(injector, in.faults[f]);
      for (size_t i = 0; i < n; ++i) {
        const size_t pred = worker.forward(samples[i].input).predicted_class(snn::Decoding::kRate);
        if (pred != golden_pred[i]) {
          ref.critical = true;
          ++ref.prediction_changes;
        }
        correct += pred == samples[i].label;
      }
    }
    ref.accuracy_drop =
        std::max(0.0, golden_acc - static_cast<double>(correct) / static_cast<double>(n));
    const auto& got = it.labels[f];
    checks.expect(got.critical == ref.critical &&
                      got.prediction_changes == ref.prediction_changes &&
                      got.accuracy_drop == ref.accuracy_drop,
                  "classification label vs oracle at fault " + std::to_string(f));
  }
}

/// Outcome metrics and result hashes must repeat exactly.
void check_same_results(const Iteration& a, const Iteration& b, const std::string& what,
                        Checks& checks) {
  for (const auto& [name, m] : a.outcome.rows()) {
    checks.expect(b.outcome.has(name) && b.outcome.get(name) == m.value,
                  what + ": outcome " + name);
  }
  checks.expect(a.hashes == b.hashes, what + ": result hashes");
}

// ------------------------------------------------------------ per-layer ---

/// Probes run after the traced iteration: golden-cache build, the
/// verification campaign split by fault layer, and one forward per network
/// layer on its golden input.
void probe_layers(const Inputs& in, const Iteration& it, size_t threads, Metrics& m) {
  const snn::Network& net = in.bundle.network;
  const tensor::Tensor& stim = it.stimulus;
  const auto cfg = engine_config(threads);

  // run_campaign returns before building the golden cache when the fault
  // list is empty, so the cache the engine builds is timed directly.
  m.set("campaign.golden_s", time_median(3, [&] {
          OBS_SPAN("campaign.golden_s");
          campaign::build_golden_cache(net, stim, cfg.kernel_mode);
        }),
        "s");

  std::vector<std::vector<fault::FaultDescriptor>> by_layer(net.num_layers());
  for (const auto& f : in.faults) by_layer.at(campaign::fault_layer(f)).push_back(f);
  double sum_s = 0.0;
  for (size_t k = 0; k < by_layer.size(); ++k) {
    const std::string p = "campaign.fault_layer." + std::to_string(k);
    const double t0 = wall_now();
    {
      obs::SpanScope span(span_name(p + ".run_s"));
      campaign::run_campaign(net, stim, by_layer[k], cfg);
    }
    const double s = wall_now() - t0;
    sum_s += s;
    m.set(p + ".run_s", s, "s");
    m.set(p + ".faults", static_cast<double>(by_layer[k].size()), "count");
    m.set(p + ".pairs_per_s", s > 0 ? static_cast<double>(by_layer[k].size()) / s : 0.0, "1/s");
  }
  m.set("campaign.fault_layer.sum_s", sum_s, "s");
  const double t0 = wall_now();
  {
    OBS_SPAN("campaign.fault_layer.whole_s");
    campaign::run_campaign(net, stim, in.faults, cfg);
  }
  m.set("campaign.fault_layer.whole_s", wall_now() - t0, "s");

  snn::Network clone(net);
  m.set("snn.network.forward_s", time_median(5, [&] {
          OBS_SPAN("snn.network.forward_s");
          clone.forward(stim);
        }),
        "s");
  const auto golden = clone.forward(stim);
  for (size_t k = 0; k < clone.num_layers(); ++k) {
    const tensor::Tensor& input = k == 0 ? stim : golden.layer_outputs[k - 1];
    const char* name = span_name("snn.layer." + std::to_string(k) + ".forward_s");
    m.set(name, time_median(5, [&] {
            obs::SpanScope span(name);
            clone.layer(k).forward(input, false);
          }),
          "s");
  }
}

/// The modules the workload's pipeline does not call, run once at the probe
/// sizes on the workload's model, inputs and stimulus chunks. They run after
/// the traced iteration, outside any timed region.
void probe_modules(const WorkloadSpec& spec, const Inputs& in, const Iteration& it,
                   size_t threads, const std::string& dict_path, uint64_t seed, Metrics& m) {
  const snn::Network& net = in.bundle.network;
  if (!spec.live_generation) {
    core::TestGenConfig cfg = bench::testgen_config(spec.model);
    cfg.num_threads = 1;
    cfg.max_iterations = kProbeGenIterations;
    cfg.steps_stage1 = std::max<size_t>(8, cfg.steps_stage1 / 10);
    generate(net, cfg, m);
  }
  if (spec.classify_samples == 0) {
    util::Rng rng(util::mix_seed(seed, 0xC1A55, 0));
    const SampleSet samples(*in.bundle.test, kProbeClassifySamples, rng);
    const std::vector<fault::FaultDescriptor> faults(
        in.faults.begin(), in.faults.begin() + std::min(kProbeClassifyFaults, in.faults.size()));
    std::vector<fault::FaultClassification> labels;
    classify(net, faults, samples, threads, m, labels);
  }
  if (!spec.dictionary) {
    const auto& chunks = in.prepared ? in.prepared->chunks() : it.chunks;
    std::vector<NamedStimulus> stimuli;
    for (size_t c = 0; c < chunks.size(); ++c) {
      stimuli.push_back({"chunk" + std::to_string(c), chunks[c]});
    }
    const std::vector<fault::FaultDescriptor> faults(
        in.faults.begin(), in.faults.begin() + std::min(kProbeFaults, in.faults.size()));
    Iteration probe;
    run_dictionary(net, stimuli, faults, threads, dict_path, probe);
    for (const auto& [name, metric] : probe.layer.rows()) {
      if (name.rfind("coverage.", 0) == 0) m.set(name, metric.value, metric.unit);
    }
  }
}

// ----------------------------------------------------------------- output ---

struct Pins {
  uint64_t model = 0, stimulus = 0, faults = 0;
};

std::string pins_json(const Pins& p, uint64_t seed) {
  return "{\"model_fingerprint\":\"" + hex64(p.model) + "\",\"stimulus_hash\":\"" +
         hex64(p.stimulus) + "\",\"fault_list_hash\":\"" + hex64(p.faults) +
         "\",\"seed\":" + std::to_string(seed) + "}";
}

std::string provenance_json(size_t threads) {
  return std::string("{\"threads\":") + std::to_string(threads) + ",\"simd_backend\":\"" +
         tensor::simd::backend_name(tensor::simd::active_backend()) +
         "\",\"hardware_threads\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu_model\":\"" + util::json_escape(cpu_model()) + "\",\"build_type\":\"" +
         PIPEBENCH_BUILD_TYPE + "\",\"compiler\":\"" + util::json_escape(PIPEBENCH_COMPILER) +
         "\"}";
}

std::string hashes_json(const Iteration& it) {
  std::string out = "{";
  for (size_t i = 0; i < it.hashes.size(); ++i) {
    if (i) out += ",";
    out += "\"" + it.hashes[i].first + "\":\"" + hex64(it.hashes[i].second) + "\"";
  }
  return out + "}";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

void print_table(const char* title, const Metrics& m) {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& [name, metric] : m.rows()) {
    std::fprintf(stderr, "  %-36s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
}

// ------------------------------------------------------------------- runs ---

int prepare(const Options& opt) {
  setenv("SNNTEST_CACHE_DIR", opt.cache_dir.c_str(), 1);
  for (const auto& w : kWorkloads) {
    auto bundle = zoo::load_or_train(w.model, zoo_options(opt.cache_dir));
    if (w.live_generation) continue;
    const auto stim = bench::get_stimulus(w.model, bundle.network);
    if (stim.report.hit_time_limit) {
      throw std::runtime_error(std::string("generation for ") + w.name +
                               " hit its time limit; the prepared stimulus is not reproducible");
    }
    std::fprintf(stderr, "prepared %s: model %s, stimulus %zu chunks / %zu steps%s\n", w.name,
                 hex64(campaign::model_fingerprint(bundle.network)).c_str(),
                 stim.report.stimulus.num_chunks(), stim.report.stimulus.total_steps(),
                 stim.from_cache ? " (cached)" : "");
  }
  return 0;
}

int run(const Options& opt) {
  setenv("SNNTEST_CACHE_DIR", opt.cache_dir.c_str(), 1);
  const WorkloadSpec& spec = *find_workload(opt.workload);
  const size_t threads = bench_threads();
  std::filesystem::create_directories(opt.out_dir);
  const std::string tag = std::string(spec.name) + ".seed" + std::to_string(opt.seed);
  const std::string dict_path = opt.out_dir + "/" + tag + ".snfd";

  std::vector<double> setup_s;
  double t0 = wall_now();
  const Inputs in = set_up(spec, opt);
  setup_s.push_back(wall_now() - t0);

  Checks checks;
  std::vector<Iteration> iters;
  // peak_rss_mb covers the first iteration only. Memory a finished iteration
  // freed stays resident in the allocator's per-thread arenas, in amounts
  // that vary from run to run, so later iterations start from a different
  // resident set each time.
  double rss_mb = 0.0;
  reset_peak_rss();
  const double start = wall_now();
  do {
    if (!iters.empty()) iters.back().release_artifacts();
    iters.push_back(run_iteration(spec, in, threads, dict_path));
    if (iters.size() == 1) rss_mb = peak_rss_mb();
    if (opt.trace) break;  // one untraced iteration to compare the traced one against
  } while (wall_now() - start < opt.seconds);
  const Iteration& last = iters.back();

  for (size_t i = 1; i < iters.size(); ++i) {
    check_same_results(iters[0], iters[i], "iteration " + std::to_string(i) + " vs 0", checks);
  }
  check_against_oracles(spec, in, last, opt.seed, checks);

  // More timed set-ups for the setup_s median: at least seven, and on for
  // kSetupSeconds where one is cheap, because single set-ups vary by a third
  // with the host's load. They run after the timed iterations, so the timed
  // region starts from the process state a single set-up leaves, as it does
  // for a user.
  const double setup_start = wall_now();
  while (!opt.trace && setup_s.size() < kMaxSetups &&
         (setup_s.size() < kMinSetups || wall_now() - setup_start < kSetupSeconds)) {
    t0 = wall_now();
    set_up(spec, opt);
    setup_s.push_back(wall_now() - t0);
  }

  Pins pins;
  pins.model = campaign::model_fingerprint(in.bundle.network);
  pins.stimulus = campaign::hash_stimulus(last.stimulus, 0);
  pins.faults = campaign::hash_fault_list(in.faults, 0);

  Metrics e2e;
  e2e.set("setup_s", median(setup_s), "s");
  std::vector<double> wall, cpu;
  for (const auto& it : iters) {
    wall.push_back(it.wall_s);
    cpu.push_back(it.cpu_s);
  }
  e2e.set("wall_s", median(wall), "s");
  e2e.set("cpu_s", median(cpu), "s");
  e2e.set("peak_rss_mb", rss_mb, "MB");
  for (const auto& [name, m] : last.stages.rows()) {
    std::vector<double> v;
    for (const auto& it : iters) v.push_back(it.stages.get(name));
    e2e.set(name, median(v), m.unit);
  }
  for (const auto& [name, m] : last.outcome.rows()) e2e.set(name, m.value, m.unit);
  // Every iteration's timings, so the medians above can be audited.
  std::string samples = "{";
  for (const auto& [name, m] : e2e.rows()) {
    if (m.unit != "s") continue;
    std::vector<double> v = setup_s;
    if (name != "setup_s") {
      v.clear();
      for (const auto& it : iters) {
        v.push_back(name == "wall_s"  ? it.wall_s
                    : name == "cpu_s" ? it.cpu_s
                                      : it.stages.get(name));
      }
    }
    std::string row;
    for (double x : v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.6g", row.empty() ? "" : ",", x);
      row += buf;
    }
    samples += (samples.size() > 1 ? ",\"" : "\"") + name + "\":[" + row + "]";
  }
  samples += "}";

  Metrics layer;
  std::string trace_path, layer_path;
  if (opt.trace) {
    obs::reset_trace();
    obs::set_telemetry_enabled(true);
    Inputs traced_in = set_up(spec, opt);
    layer.set("zoo.load_s", traced_in.load_s, "s");
    layer.set("fault.enumerate_s", traced_in.enumerate_s, "s");
    Iteration traced = run_iteration(spec, traced_in, threads, dict_path);
    check_same_results(last, traced, "traced vs untraced", checks);
    for (const auto& [name, m] : traced.layer.rows()) layer.set(name, m.value, m.unit);
    probe_layers(traced_in, traced, threads, layer);
    probe_modules(spec, traced_in, traced, threads, dict_path, opt.seed, layer);
    layer.set("obs.trace_overhead_s", traced.wall_s - last.wall_s, "s");
    layer.set("obs.spans_recorded", static_cast<double>(obs::spans_recorded()), "count");
    layer.set("obs.spans_dropped", static_cast<double>(obs::spans_dropped()), "count");
    obs::set_telemetry_enabled(false);

    trace_path = opt.out_dir + "/" + tag + ".trace.json";
    if (!obs::write_chrome_trace(trace_path)) {
      throw std::runtime_error("cannot write " + trace_path);
    }
    std::string table = "{\"workload\":\"" + std::string(spec.name) + "\",\"layers\":[";
    for (size_t i = 0; i < layer.rows().size(); ++i) {
      const auto& [name, m] = layer.rows()[i];
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      if (i) table += ",";
      table += "{\"name\":\"" + name + "\",\"value\":" + buf + ",\"unit\":\"" + m.unit +
               "\",\"moves\":\"" + util::json_escape(expected_move(name)) + "\"}";
    }
    layer_path = opt.out_dir + "/" + tag + ".layers.json";
    write_file(layer_path, table + "]}\n");
  }
  std::filesystem::remove(dict_path);

  // The result line holds exactly the manifest's metrics; a missing one
  // fails the run here, before anything is printed.
  const Metrics result = opt.trace ? layer.pick(kPerLayer) : e2e.pick(kEndToEnd);
  Metrics all = e2e;
  all.set("oracle_mismatch_share",
          checks.attempted
              ? static_cast<double>(checks.failed) / static_cast<double>(checks.attempted)
              : 0.0,
          "ratio");
  const std::string report =
      "{\"workload\":\"" + std::string(spec.name) + "\",\"seed\":" + std::to_string(opt.seed) +
      ",\"trace\":" + (opt.trace ? "1" : "0") + ",\"iterations\":" + std::to_string(iters.size()) +
      ",\"pins\":" + pins_json(pins, opt.seed) + ",\"provenance\":" + provenance_json(threads) +
      ",\"iteration_samples\":" + samples + ",\"result_hashes\":" + hashes_json(last) +
      ",\"oracle\":{\"attempted\":" + std::to_string(checks.attempted) +
      ",\"failed\":" + std::to_string(checks.failed) + "},\"metrics\":" + all.json() +
      (opt.trace ? ",\"per_layer\":" + layer.json() : "") + "}";
  const std::string report_path =
      opt.out_dir + "/" + tag + (opt.trace ? ".traced" : "") + ".report.json";
  write_file(report_path, report + "\n");

  std::fprintf(stderr, "%s seed %llu: %zu iteration(s), %zu threads, simd %s\n", spec.name,
               static_cast<unsigned long long>(opt.seed), iters.size(), threads,
               tensor::simd::backend_name(tensor::simd::active_backend()));
  print_table("end-to-end (untraced):", all);
  if (opt.trace) {
    print_table("per-layer (traced):", layer);
    std::fprintf(stderr, "trace: %s\nper-layer table: %s\n", trace_path.c_str(),
                 layer_path.c_str());
  }
  std::printf("%s\n", report.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
              checks.failed == 0 ? "true" : "false", checks.attempted, checks.failed,
              result.json().c_str());
  std::fflush(stdout);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 2;
  }
  try {
    return opt.prepare ? prepare(opt) : run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 2;
  }
}
