#include "harness/knobs.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "fl/adversary.h"
#include "fl/aggregation.h"
#include "fl/codec.h"
#include "tensor/kernels.h"

namespace fedtiny::harness {

namespace {

constexpr KnobCheck kNonNegative{[](double v) { return v >= 0.0; }, nullptr, ">= 0"};
constexpr KnobCheck kPositive{[](double v) { return v > 0.0; }, nullptr, "> 0"};
constexpr KnobCheck kAtLeastOne{[](double v) { return v >= 1.0; }, nullptr, ">= 1"};
constexpr KnobCheck kProbability{[](double v) { return v >= 0.0 && v <= 1.0; }, nullptr,
                                 "in [0, 1]"};
constexpr KnobCheck kFraction{[](double v) { return v > 0.0 && v <= 1.0; }, nullptr,
                              "in (0, 1]"};

// `#m` and `&s.m` come from one token sequence, so a knob's member name
// cannot drift from the member it sets.
#define KNOB_FIELD(m) #m, [](RunSpec& s) -> KnobField { return &s.m; }

const Knob kKnobs[] = {
    // ---- Experiment (CLI only). ----
    {KNOB_FIELD(method), nullptr, "--method",
     "fedavg|snip|synflow|flpqsu|prunefl|feddst|lotteryfl|fedtiny|fedtiny_vanilla|adaptive_bn|"
     "vanilla|small_model"},
    {KNOB_FIELD(dataset), nullptr, "--dataset", "cifar10s|cifar100s|cinic10s|svhns"},
    {KNOB_FIELD(model), nullptr, "--model", "resnet18|vgg11"},
    {KNOB_FIELD(density), nullptr, "--density", "target density", kFraction},
    {KNOB_FIELD(dirichlet_alpha), nullptr, "--alpha", "Dirichlet non-iid alpha", kPositive},
    {KNOB_FIELD(seed), nullptr, "--seed", "RNG seed"},
    {KNOB_FIELD(pool_size), nullptr, "--pool", "candidate pool size (-1 = C* = 0.1/density)",
     kAtLeastOne},
    // ---- Round scheduler and sparse engine. ----
    {KNOB_FIELD(num_clients), nullptr, "--num-clients", "federation size K", kAtLeastOne},
    {KNOB_FIELD(clients_per_round), "FEDTINY_CLIENTS_PER_ROUND", "--clients-per-round",
     "clients sampled per round (0 = all K)", kNonNegative},
    {KNOB_FIELD(parallel_clients), "FEDTINY_PARALLEL_CLIENTS", "--workers",
     "client-training lanes (0 = executor auto)", kNonNegative},
    {KNOB_FIELD(on_demand_samples_per_client), "FEDTINY_ON_DEMAND_SAMPLES", nullptr,
     "generate client data on demand, N samples per client (0 = off; plain-trainer methods)",
     kNonNegative},
    {KNOB_FIELD(sparse_exchange), "FEDTINY_SPARSE_EXCHANGE", "--sparse-exchange",
     "ship real serialized payloads (measured comm bytes)"},
    {KNOB_FIELD(sparse_exec_max_density), "FEDTINY_SPARSE_EXEC", "--sparse-exec",
     "CSR forward below this density at eval (0 = dense)", kProbability},
    {KNOB_FIELD(sparse_training), "FEDTINY_SPARSE_TRAINING", "--sparse-train",
     "masked sparse local SGD (needs --sparse-exec > 0)"},
    {KNOB_FIELD(kernels), "FEDTINY_KERNELS", "--kernels",
     "kernel engine (\"\" = the process mode)",
     {nullptr, [](const std::string& s) { (void)kernels::parse_mode(s.c_str()); },
      kernels::kModeNames}},
    // ---- Payload codec (needs sparse_exchange). ----
    {KNOB_FIELD(codec), "FEDTINY_CODEC", "--codec",
     "sparse-exchange payload codec (\"\" = none, the v1 fp32 wire)",
     {nullptr, [](const std::string& s) { (void)fl::codec::config_from_name(s); },
      fl::codec::kCodecNames}},
    {KNOB_FIELD(quant_bits), "FEDTINY_QUANT_BITS", "--quant-bits",
     "top-k value quantization width (0 = per codec)",
     {[](double v) { return v == 4.0 || v == 8.0; }, nullptr, "4 or 8"}},
    {KNOB_FIELD(topk_frac), "FEDTINY_TOPK_FRAC", "--topk-frac",
     "top-k kept fraction (0 = 0.08)", kFraction},
    // ---- Robust aggregation and adversaries. ----
    {KNOB_FIELD(aggregation), "FEDTINY_AGGREGATION", "--aggregation",
     "server aggregation policy (\"\" = fedavg)",
     {nullptr, [](const std::string& s) { (void)fl::aggregation_config_from_name(s); },
      fl::kAggregationNames}},
    {KNOB_FIELD(trim_frac), "FEDTINY_TRIM_FRAC", "--trim-frac",
     "trimmed_mean per-coordinate trim fraction (0 = 0.3)",
     {[](double v) { return v > 0.0 && v < 0.5; }, nullptr, "in (0, 0.5)"}},
    {KNOB_FIELD(clip_tau), "FEDTINY_CLIP_TAU", "--clip-tau",
     "fixed norm_clip threshold (0 = adaptive median)", kNonNegative},
    {KNOB_FIELD(adversary_frac), "FEDTINY_ADVERSARY_FRAC", "--adversary-frac",
     "fraction of clients marked adversarial", kProbability},
    {KNOB_FIELD(adversary_mode), "FEDTINY_ADVERSARY_MODE", "--adversary-mode",
     "adversary behavior (\"\" = none)",
     {nullptr, [](const std::string& s) { (void)fl::adversary_mode_from_name(s); },
      fl::kAdversaryModeNames}},
    {KNOB_FIELD(adversary_scale), "FEDTINY_ADVERSARY_SCALE", "--adversary-scale",
     "update scaling for adversary mode scale (0 = -10)"},
    // ---- Simulated deployment (fl::SimConfig; defaults are the ideal fleet). ----
    {KNOB_FIELD(sim.device_flops_per_s), "FEDTINY_SIM_DEVICE_FLOPS", "--sim-device-flops",
     "mean device speed, FLOP/s (0 = infinite)", kNonNegative},
    {KNOB_FIELD(sim.bandwidth_bps), "FEDTINY_SIM_BANDWIDTH", "--sim-bandwidth",
     "mean link bandwidth, bytes/s (0 = infinite)", kNonNegative},
    {KNOB_FIELD(sim.latency_s), "FEDTINY_SIM_LATENCY", "--sim-latency",
     "per-transfer link latency, seconds", kNonNegative},
    {KNOB_FIELD(sim.het_spread), "FEDTINY_SIM_HET", "--sim-het",
     "log-uniform per-client spread factor (1 = none)", kAtLeastOne},
    {KNOB_FIELD(sim.straggler_fraction), "FEDTINY_SIM_STRAGGLERS", "--sim-stragglers",
     "straggler fraction", kProbability},
    {KNOB_FIELD(sim.straggler_slowdown), "FEDTINY_SIM_SLOWDOWN", "--sim-slowdown",
     "straggler slowdown factor", kAtLeastOne},
    {KNOB_FIELD(sim.availability), "FEDTINY_SIM_AVAILABILITY", "--availability",
     "per-round check-in probability", kProbability},
    {KNOB_FIELD(sim.dropout), "FEDTINY_SIM_DROPOUT", "--dropout",
     "mid-round dropout probability", kProbability},
    {KNOB_FIELD(sim.deadline_s), "FEDTINY_SIM_DEADLINE", "--deadline",
     "round deadline, simulated seconds (0 = none)", kNonNegative},
    {KNOB_FIELD(sim.async_rounds), "FEDTINY_ASYNC", "--async",
     "async overlapping rounds (FedBuff-style)"},
    {KNOB_FIELD(sim.async_aggregate_m), "FEDTINY_ASYNC_M", "--async-m",
     "arrivals aggregated per async round (0 = half the cohort)", kNonNegative},
    {KNOB_FIELD(sim.staleness_alpha), "FEDTINY_STALENESS_ALPHA", "--staleness-alpha",
     "async staleness discount exponent", kNonNegative},
};

#undef KNOB_FIELD

/// The member of a read-only spec: the accessor only forms a pointer, and
/// callers read through it.
KnobField read(const Knob& knob, const RunSpec& spec) {
  return knob.field(const_cast<RunSpec&>(spec));
}

const RunSpec& defaults() {
  static const RunSpec spec{};
  return spec;
}

template <typename T>
const T& default_of(const Knob& knob) {
  return *std::get<T*>(read(knob, defaults()));
}

/// Strict text -> value: the whole text must parse, numbers must be finite,
/// booleans are 0 or 1.
template <typename T>
T parse(const char* text) {
  const std::string s = text;
  if constexpr (std::is_same_v<T, std::string>) {
    return s;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (s != "0" && s != "1") throw std::invalid_argument("'" + s + "' is not 0 or 1");
    return s == "1";
  } else {
    // Floats parse as double then narrow, as atof did.
    using Parsed = std::conditional_t<std::is_floating_point_v<T>, double, T>;
    Parsed v{};
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (s.empty() || ec != std::errc{} || end != s.data() + s.size()) {
      throw std::invalid_argument("'" + s + "' is not " +
                                  (std::is_integral_v<T> ? "an integer" : "a number"));
    }
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(v)) throw std::invalid_argument("'" + s + "' is not finite");
    }
    return static_cast<T>(v);
  }
}

template <typename T>
void accept(const Knob& knob, const T& v) {
  if (v == default_of<T>(knob)) return;
  if constexpr (std::is_same_v<T, std::string>) {
    if (knob.check.parse_name != nullptr) knob.check.parse_name(v);
  } else if constexpr (!std::is_same_v<T, bool>) {
    const auto x = static_cast<double>(v);
    if (!std::isfinite(x)) throw std::invalid_argument(std::string(knob.member) + " must be finite");
    if (knob.check.in_range != nullptr && !knob.check.in_range(x)) {
      throw std::invalid_argument(std::string(knob.member) + " must be " + knob.check.valid);
    }
  }
}

template <typename T>
std::string format(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v.empty() ? "\"\"" : v;
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
}

const char* metavar(const Knob& knob) {
  return std::visit(
      [](auto* p) -> const char* {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, std::string>) return "NAME";
        if constexpr (std::is_floating_point_v<T>) return "F";
        return "N";
      },
      read(knob, defaults()));
}

}  // namespace

void Knob::set(RunSpec& spec, const char* text) const {
  std::visit(
      [&](auto* p) {
        using T = std::remove_pointer_t<decltype(p)>;
        T v = parse<T>(text);
        accept(*this, v);
        *p = std::move(v);
      },
      field(spec));
}

bool Knob::is_default(const RunSpec& spec) const {
  return std::visit(
      [&](auto* p) {
        using T = std::remove_pointer_t<decltype(p)>;
        return *p == default_of<T>(*this);
      },
      read(*this, spec));
}

std::string Knob::value(const RunSpec& spec) const {
  return std::visit([](auto* p) { return format(*p); }, read(*this, spec));
}

bool Knob::takes_value() const { return !std::holds_alternative<bool*>(read(*this, defaults())); }

std::span<const Knob> knobs() { return kKnobs; }

void validate_knobs(const RunSpec& spec) {
  for (const Knob& knob : kKnobs) {
    std::visit([&](auto* p) { accept(knob, *p); }, read(knob, spec));
  }
}

bool consume_flag(RunSpec& spec, int argc, const char* const* argv, int& i) {
  for (const Knob& knob : kKnobs) {
    if (knob.flag == nullptr || std::strcmp(argv[i], knob.flag) != 0) continue;
    if (!knob.takes_value()) {
      knob.set(spec, "1");
    } else if (i + 1 < argc) {
      knob.set(spec, argv[++i]);
    } else {
      throw std::invalid_argument("missing value");
    }
    return true;
  }
  return false;
}

void print_knob_help(std::FILE* out) {
  for (const Knob& knob : kKnobs) {
    std::string left = knob.flag != nullptr ? knob.flag : knob.env;
    if (knob.takes_value()) left += std::string(knob.flag != nullptr ? " " : "=") + metavar(knob);
    std::string help = knob.help;
    if (knob.check.valid != nullptr) help += std::string(", ") + knob.check.valid;
    std::string tail = "(default " + knob.value(defaults());
    if (knob.flag != nullptr && knob.env != nullptr) tail += std::string("; env ") + knob.env;
    // An environment-only knob's long left column gets a line of its own.
    if (left.size() > 22) {
      std::fprintf(out, "  %s\n", left.c_str());
      left.clear();
    }
    std::fprintf(out, "  %-22s %s\n  %-22s %s)\n", left.c_str(), help.c_str(), "", tail.c_str());
  }
}

std::string describe_knobs(const RunSpec& spec) {
  std::string out;
  for (const Knob& knob : kKnobs) {
    if (knob.is_default(spec)) continue;
    if (!out.empty()) out += ' ';
    out += std::string(knob.member) + "=" + knob.value(spec);
  }
  return out;
}

void warn_ambient(const char* name, const char* value, const std::string& why) {
  static std::mutex mu;
  static std::set<std::pair<std::string, std::string>> warned;
  std::lock_guard<std::mutex> lock(mu);
  if (warned.emplace(name, value).second) {
    std::fprintf(stderr, "%s=%s ignored: %s\n", name, value, why.c_str());
  }
}

}  // namespace fedtiny::harness
