#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace hisim::bench {

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--qubits-delta=", 0) == 0) {
      args.qubits_delta = std::atoi(a.c_str() + 15);
    } else if (a.rfind("--ranks=", 0) == 0) {
      args.process_qubits.clear();
      std::stringstream ss(a.substr(8));
      std::string tok;
      while (std::getline(ss, tok, ','))
        args.process_qubits.push_back(
            static_cast<unsigned>(std::atoi(tok.c_str())));
    } else if (a.rfind("--seed=", 0) == 0) {
      args.seed = std::strtoull(a.c_str() + 7, nullptr, 10);
    } else if (a.rfind("--backend=", 0) == 0) {
      args.backend = dist::parse_backend(a.substr(10));
    } else if (a == "--quick") {
      args.quick = true;
    } else if (a == "--json") {
      args.json = true;
    } else if (a == "--help") {
      std::printf("flags: --qubits-delta=N --ranks=p1,p2 --seed=N --quick "
                  "--json --backend=serial|threaded\n");
      std::exit(0);
    }
  }
  if (args.quick) {
    args.qubits_delta -= 2;
    if (args.process_qubits.size() > 2) args.process_qubits.resize(2);
  }
  return args;
}

std::vector<SuiteEntry> scaled_suite(const Args& args) {
  std::vector<SuiteEntry> out;
  for (const auto& b : circuits::qasmbench_suite()) {
    const int n = static_cast<int>(b.default_qubits) + args.qubits_delta;
    const unsigned qubits = static_cast<unsigned>(std::max(8, n));
    Circuit c = b.make(qubits);
    c.set_name(b.name);
    out.push_back(SuiteEntry{b, std::move(c)});
  }
  return out;
}

namespace {

/// Single report sink for every bench run: the table columns read
/// Result::metrics keys, and --json dumps the full serialized report.
hisim::Result finish(const Args& args, hisim::Result r) {
  if (args.json) std::printf("%s\n", r.to_json().c_str());
  return r;
}

/// Benches read only the report fields: skip the O(2^n) state gather.
ExecOptions report_only() {
  ExecOptions x;
  x.want_state = false;
  return x;
}

}  // namespace

hisim::Result run_hisvsim(const Args& args, const Circuit& c, unsigned p,
                          partition::Strategy strategy, unsigned level2_limit,
                          dist::BackendKind backend) {
  Options opt;
  opt.target = target_for_backend(backend);
  opt.strategy = strategy;
  opt.level2_limit = level2_limit;
  opt.process_qubits = p;
  opt.seed = args.seed;
  return finish(args, Engine::compile(c, opt).execute(report_only()));
}

hisim::Result run_iqs(const Args& args, const Circuit& c, unsigned p) {
  Options opt;
  opt.target = Target::IqsBaseline;
  opt.process_qubits = p;
  opt.seed = args.seed;
  return finish(args, Engine::compile(c, opt).execute(report_only()));
}

double measured_or_zero(const hisim::Result& r, const std::string& key) {
  const auto it = r.metrics.find(key);
  return it == r.metrics.end() ? 0.0 : it->second;
}

double comm_share(const hisim::Result& r) {
  const double total = r.total_seconds();
  return total > 0.0 ? r.metrics.at("exchange.modeled_seconds.sum") / total
                     : 0.0;
}

double geomean(const std::vector<double>& xs) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (x <= 0) continue;
    log_sum += std::log(x);
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s ", w, cells[i].c_str());
  }
  std::printf("\n");
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace hisim::bench
