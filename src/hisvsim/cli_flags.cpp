#include "hisvsim/cli_flags.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"

namespace hisim::cli {
namespace {

/// Strict unsigned parse: the whole value must be digits and fit `max`
/// (no silent truncation at the narrowing casts below).
unsigned long long parse_uint(
    const std::string& flag, const std::string& value,
    unsigned long long max = std::numeric_limits<unsigned>::max()) {
  HISIM_CHECK_MSG(!value.empty(), flag << " needs a value");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  HISIM_CHECK_MSG(end && *end == '\0' && value[0] != '-',
                  flag << "=" << value << " is not a non-negative integer");
  HISIM_CHECK_MSG(errno != ERANGE && v <= max,
                  flag << "=" << value << " is out of range (max " << max
                       << ")");
  return v;
}

partition::Strategy parse_strategy(const std::string& s) {
  if (s == "nat") return partition::Strategy::Nat;
  if (s == "dfs") return partition::Strategy::Dfs;
  if (s == "dagp") return partition::Strategy::DagP;
  throw Error("unknown strategy '" + s + "' (expected dagp, dfs, nat)");
}

/// Strict finite-double parse (whole value must be consumed). Overflow
/// yields ±inf and is rejected by the isfinite check; underflow to a
/// subnormal (which sets ERANGE on glibc) is a representable finite value
/// and accepted.
double parse_double(const std::string& flag, const std::string& value) {
  HISIM_CHECK_MSG(!value.empty(), flag << " needs a value");
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  HISIM_CHECK_MSG(end && *end == '\0' && std::isfinite(v),
                  flag << ": '" << value << "' is not a finite number");
  return v;
}

/// `--bind name=value`: fixed parameter value for this run.
void parse_bind(Flags& f, const std::string& spec) {
  const std::size_t eq = spec.find('=');
  HISIM_CHECK_MSG(eq != std::string::npos && eq > 0,
                  "--bind expects name=value, got '" << spec << "'");
  const std::string name = spec.substr(0, eq);
  HISIM_CHECK_MSG(!f.bindings.count(name),
                  "--bind " << name << " given twice (each parameter takes "
                                       "exactly one value)");
  f.bindings[name] = parse_double("--bind " + name, spec.substr(eq + 1));
}

/// `--noise kind=value`: one noise channel (or readout confusion).
void parse_noise(Flags& f, const std::string& spec) {
  const std::size_t eq = spec.find('=');
  HISIM_CHECK_MSG(eq != std::string::npos && eq > 0,
                  "--noise expects kind=value, got '" << spec << "'");
  const std::string kind = spec.substr(0, eq);
  HISIM_CHECK_MSG(kind == "depolarizing" || kind == "bitflip" ||
                      kind == "phaseflip" || kind == "damping" ||
                      kind == "readout",
                  "unknown noise kind '"
                      << kind
                      << "' (expected depolarizing, bitflip, phaseflip, "
                         "damping, readout)");
  // Same policy as --bind/--sweep: a repeated kind would silently double
  // the channel strength (or last-win for readout) — reject it.
  for (const auto& [prev, value] : f.noise)
    HISIM_CHECK_MSG(prev != kind,
                    "--noise " << kind << " given twice (each kind takes "
                                          "exactly one probability)");
  f.noise.emplace_back(kind,
                       parse_double("--noise " + kind, spec.substr(eq + 1)));
}

/// `--sweep name=start:stop:steps`: one grid axis.
void parse_sweep(Flags& f, const std::string& spec) {
  const std::size_t eq = spec.find('=');
  HISIM_CHECK_MSG(eq != std::string::npos && eq > 0,
                  "--sweep expects name=start:stop:steps, got '" << spec
                                                                 << "'");
  SweepSpec s;
  s.name = spec.substr(0, eq);
  const std::string range = spec.substr(eq + 1);
  const std::size_t c1 = range.find(':');
  const std::size_t c2 = c1 == std::string::npos ? std::string::npos
                                                 : range.find(':', c1 + 1);
  HISIM_CHECK_MSG(c1 != std::string::npos && c2 != std::string::npos,
                  "--sweep " << s.name
                             << " expects start:stop:steps, got '" << range
                             << "'");
  s.start = parse_double("--sweep " + s.name, range.substr(0, c1));
  s.stop = parse_double("--sweep " + s.name, range.substr(c1 + 1, c2 - c1 - 1));
  s.steps = static_cast<unsigned>(
      parse_uint("--sweep " + s.name, range.substr(c2 + 1)));
  HISIM_CHECK_MSG(s.steps >= 1, "--sweep " << s.name << " needs steps >= 1");
  HISIM_CHECK_MSG(s.steps > 1 || s.start == s.stop,
                  "--sweep " << s.name << ": steps=1 pins a single value, "
                                          "so start must equal stop");
  for (const SweepSpec& prev : f.sweeps)
    HISIM_CHECK_MSG(prev.name != s.name,
                    "--sweep " << s.name << " given twice (combine into one "
                                            "axis)");
  f.sweeps.push_back(std::move(s));
}

}  // namespace

Flags parse_flags(const std::vector<std::string>& args) {
  Flags f;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto val = [&a](const char* name) -> const char* {
      const std::size_t n = std::char_traits<char>::length(name);
      return a.rfind(name, 0) == 0 ? a.c_str() + n : nullptr;
    };
    // Repeatable parameter flags, in both `--bind=name=value` and
    // `--bind name=value` (two-argument) spellings.
    const auto two_token = [&](const char* name) -> const char* {
      if (a != name) return nullptr;
      HISIM_CHECK_MSG(i + 1 < args.size(), name << " needs an argument");
      return args[++i].c_str();
    };
    // Sibling `if` + continue rather than an else-if chain: each branch
    // declares its own `v` without nesting inside the previous branch's
    // scope (an else-if chain would shadow, which -Wshadow rejects).
    if (const char* v = val("--bind=")) {
      parse_bind(f, v);
      continue;
    }
    if (const char* v = two_token("--bind")) {
      parse_bind(f, v);
      continue;
    }
    if (const char* v = val("--sweep=")) {
      parse_sweep(f, v);
      continue;
    }
    if (const char* v = two_token("--sweep")) {
      parse_sweep(f, v);
      continue;
    }
    if (const char* v = val("--noise=")) {
      parse_noise(f, v);
      continue;
    }
    if (const char* v = two_token("--noise")) {
      parse_noise(f, v);
      continue;
    }
    if (const char* v = val("--observable=")) {
      f.observables.emplace_back(v);
      continue;
    }
    if (const char* v = two_token("--observable")) {
      f.observables.emplace_back(v);
      continue;
    }
    if (const char* v = val("--trajectories=")) {
      f.trajectories = static_cast<std::size_t>(parse_uint(
          "--trajectories", v, std::numeric_limits<std::size_t>::max()));
      HISIM_CHECK_MSG(f.trajectories >= 1, "--trajectories needs >= 1");
      continue;
    }
    if (const char* v = val("--noise-seed=")) {
      f.noise_seed = parse_uint(
          "--noise-seed", v, std::numeric_limits<std::uint64_t>::max());
      continue;
    }
    if (const char* v = val("--qubits=")) {
      f.qubits = static_cast<unsigned>(parse_uint("--qubits", v));
      continue;
    }
    if (const char* v = val("--limit=")) {
      f.limit = static_cast<unsigned>(parse_uint("--limit", v));
      continue;
    }
    if (const char* v = val("--opt-level=")) {
      f.opt_level = static_cast<unsigned>(parse_uint("--opt-level", v, 1));
      continue;
    }
    if (const char* v = val("--ranks=")) {
      const unsigned long long r = parse_uint("--ranks", v);
      HISIM_CHECK_MSG(r > 0 && (r & (r - 1)) == 0,
                      "--ranks=" << r
                                 << " is not a power of two: ranks are "
                                    "simulated as 2^p processes (use e.g. "
                                 << std::bit_ceil(std::max(r, 2ull)) << ")");
      unsigned p = 0;
      while ((1ull << p) < r) ++p;
      f.ranks_p = p;
      continue;
    }
    if (const char* v = val("--level2=")) {
      f.level2 = static_cast<unsigned>(parse_uint("--level2", v));
      continue;
    }
    if (const char* v = val("--shots=")) {
      f.shots = static_cast<std::size_t>(parse_uint(
          "--shots", v, std::numeric_limits<std::size_t>::max()));
      continue;
    }
    if (const char* v = val("--dot=")) {
      f.dot = v;
      continue;
    }
    if (const char* v = val("--trace=")) {
      HISIM_CHECK_MSG(*v != '\0', "--trace needs an output path");
      f.trace = v;
      continue;
    }
    if (const char* v = val("--strategy=")) {
      f.strategy = parse_strategy(v);
      continue;
    }
    if (const char* v = val("--backend=")) {
      f.backend = dist::parse_backend(v);
      f.has_backend = true;
      continue;
    }
    if (const char* v = val("--target=")) {
      f.target = parse_target(v);
      f.has_target = true;
      continue;
    }
    if (const char* v = val("--kernel=")) {
      f.kernel = sv::parse_kernel_tier(v);
      continue;
    }
    if (a == "--json") {
      f.json = true;
      continue;
    }
    if (a == "--exact") {
      f.exact = true;
      continue;
    }
    throw Error("unknown flag: " + a);
  }
  // Order-independent contradiction checks: a parameter cannot be both
  // pinned and swept, whichever flag came first, and sweep runs are
  // report-per-point only — silently dropping --shots would be the same
  // "fix it quietly" failure mode the rest of this parser rejects.
  for (const SweepSpec& s : f.sweeps)
    HISIM_CHECK_MSG(!f.bindings.count(s.name),
                    "parameter '" << s.name
                                  << "' is both --bind and --sweep (drop "
                                     "one of the two)");
  HISIM_CHECK_MSG(f.sweeps.empty() || f.shots == 0,
                  "--shots has no effect with --sweep (per-point output "
                  "carries no samples); run the chosen point separately "
                  "with --bind");
  // Noise and trajectories come as a pair: a model without a trajectory
  // count would silently run the ideal circuit, and a trajectory count
  // without a model has nothing to sample.
  HISIM_CHECK_MSG(f.noise.empty() || f.trajectories > 0,
                  "--noise requires --trajectories=N (stochastic "
                  "trajectory runs sample the channels)");
  HISIM_CHECK_MSG(f.trajectories == 0 || !f.noise.empty(),
                  "--trajectories requires at least one --noise channel");
  HISIM_CHECK_MSG(f.trajectories == 0 || f.sweeps.empty(),
                  "--trajectories cannot be combined with --sweep (pin "
                  "the parameters with --bind and run one noisy point)");
  return f;
}

noise::NoiseModel noise_model(const Flags& f) {
  noise::NoiseModel model;
  for (const auto& [kind, value] : f.noise) {
    if (kind == "depolarizing") {
      model.after_all_gates(noise::Channel::depolarizing(value));
    } else if (kind == "bitflip") {
      model.after_all_gates(noise::Channel::bit_flip(value));
    } else if (kind == "phaseflip") {
      model.after_all_gates(noise::Channel::phase_flip(value));
    } else if (kind == "damping") {
      model.after_all_gates(noise::Channel::amplitude_damping(value));
    } else {  // "readout" — the parser admits no other spelling
      model.readout(noise::ReadoutError{value, value});
    }
  }
  return model;
}

std::vector<ParamBinding> sweep_points(const Flags& f) {
  if (f.sweeps.empty()) return {};
  // Cap the grid so a typo'd steps value fails loudly instead of
  // OOM-aborting while materializing the points (same reject-bad-input
  // policy as the parser). 10^6 points is far beyond any real sweep.
  constexpr std::size_t kMaxPoints = 1'000'000;
  std::size_t total = 1;
  for (const SweepSpec& s : f.sweeps) {
    HISIM_CHECK_MSG(s.steps <= kMaxPoints / total,
                    "sweep grid exceeds " << kMaxPoints
                                          << " points (multiply the --sweep "
                                             "steps together); shrink an "
                                             "axis");
    total *= s.steps;
  }
  std::vector<ParamBinding> points;
  points.reserve(total);
  // Cartesian product, last axis fastest (odometer order).
  std::vector<unsigned> idx(f.sweeps.size(), 0);
  for (std::size_t p = 0; p < total; ++p) {
    ParamBinding binding = f.bindings;
    for (std::size_t ax = 0; ax < f.sweeps.size(); ++ax) {
      const SweepSpec& s = f.sweeps[ax];
      binding[s.name] =
          s.steps == 1
              ? s.start
              : s.start + (s.stop - s.start) * idx[ax] / (s.steps - 1);
    }
    points.push_back(std::move(binding));
    for (std::size_t ax = f.sweeps.size(); ax-- > 0;) {
      if (++idx[ax] < f.sweeps[ax].steps) break;
      idx[ax] = 0;
    }
  }
  return points;
}

Target effective_target(const Flags& f) {
  if (f.has_target) {
    // Reject contradictions instead of silently ignoring a flag — the
    // same policy that turned the old --ranks rounding into an error.
    HISIM_CHECK_MSG(!target_is_distributed(f.target) || f.ranks_p > 0,
                    "--target=" << target_name(f.target)
                                << " requires --ranks=R with R >= 2 a power "
                                   "of two (--ranks=1 means single-node)");
    HISIM_CHECK_MSG(target_is_distributed(f.target) || f.ranks_p == 0,
                    "--ranks has no effect with --target="
                        << target_name(f.target));
    if (f.has_backend) {
      HISIM_CHECK_MSG(f.target == Target::DistributedSerial ||
                          f.target == Target::DistributedThreaded,
                      "--backend has no effect with --target="
                          << target_name(f.target));
      HISIM_CHECK_MSG(f.target == target_for_backend(f.backend),
                      "--target=" << target_name(f.target)
                                  << " contradicts --backend="
                                  << dist::backend_kind_name(f.backend)
                                  << " (drop one of the two)");
    }
    HISIM_CHECK_MSG(f.level2 == 0 || f.target == Target::DistributedSerial ||
                        f.target == Target::DistributedThreaded,
                    "--level2 has no effect with --target="
                        << target_name(f.target));
    return f.target;
  }
  HISIM_CHECK_MSG(!f.has_backend || f.ranks_p > 0,
                  "--backend requires --ranks=R (or a distributed --target)");
  HISIM_CHECK_MSG(f.level2 == 0 || f.ranks_p > 0,
                  "--level2 requires --ranks=R: only the distributed targets "
                  "run a second partitioning level");
  if (f.ranks_p > 0) return target_for_backend(f.backend);
  return Target::Hierarchical;
}

Options engine_options(const Flags& f) {
  Options o;
  o.target = effective_target(f);
  o.strategy = f.strategy;
  o.limit = f.limit;
  o.opt_level = f.opt_level;
  o.level2_limit = f.level2;
  o.kernel_tier = f.kernel;
  o.process_qubits = f.ranks_p;
  o.noise = noise_model(f);
  o.trace = !f.trace.empty();
  return o;
}

}  // namespace hisim::cli
