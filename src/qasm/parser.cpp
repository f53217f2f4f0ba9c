#include "qasm/parser.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/check.hpp"
#include "qasm/lexer.hpp"

namespace hisim::qasm {
namespace {

/// A user-defined gate: formal parameter names, formal qubit argument
/// names, and the body as raw statements to be re-expanded per call.
struct GateDef {
  std::vector<std::string> params;
  std::vector<std::string> args;
  struct Call {
    std::string name;
    std::vector<std::vector<Token>> param_exprs;  // token slices
    std::vector<std::string> arg_names;           // formal qubit names
  };
  std::vector<Call> body;
};

struct Reg {
  unsigned offset;  // first flattened qubit index
  unsigned size;
};

using KindMap = std::unordered_map<std::string, GateKind>;

const KindMap& builtin_gates() {
  static const KindMap m = {
      {"id", GateKind::I},    {"x", GateKind::X},     {"y", GateKind::Y},
      {"z", GateKind::Z},     {"h", GateKind::H},     {"s", GateKind::S},
      {"sdg", GateKind::Sdg}, {"t", GateKind::T},     {"tdg", GateKind::Tdg},
      {"sx", GateKind::SX},   {"rx", GateKind::RX},   {"ry", GateKind::RY},
      {"rz", GateKind::RZ},   {"u1", GateKind::P},    {"p", GateKind::P},
      {"u2", GateKind::U2},   {"u3", GateKind::U3},   {"u", GateKind::U3},
      {"U", GateKind::U3},    {"cx", GateKind::CX},   {"CX", GateKind::CX},
      {"cy", GateKind::CY},   {"cz", GateKind::CZ},   {"ch", GateKind::CH},
      {"crx", GateKind::CRX}, {"cry", GateKind::CRY}, {"crz", GateKind::CRZ},
      {"cu1", GateKind::CP},  {"cp", GateKind::CP},   {"cu3", GateKind::CU3},
      {"swap", GateKind::SWAP}, {"rzz", GateKind::RZZ}, {"rxx", GateKind::RXX},
      {"ccx", GateKind::CCX}, {"cswap", GateKind::CSWAP},
  };
  return m;
}

class Parser {
 public:
  Parser(std::vector<Token> toks, ParseInfo* info)
      : toks_(std::move(toks)), info_(info) {}

  Circuit run() {
    parse_header();
    while (!at(TokKind::End)) parse_statement();
    Circuit c(total_qubits_, "qasm");
    c = std::move(circuit_);
    return c;
  }

 private:
  // ---- token helpers ---------------------------------------------------
  const Token& cur() const { return toks_[pos_]; }
  bool at(TokKind k) const { return cur().kind == k; }
  bool at_kw(const std::string& w) const {
    return cur().kind == TokKind::Keyword && cur().text == w;
  }
  Token eat() { return toks_[pos_++]; }
  Token expect(TokKind k, const std::string& what) {
    if (!at(k)) fail("expected " + what);
    return eat();
  }
  /// An Integer token that fits `unsigned`. The lexer keeps literals as
  /// doubles, and casting one beyond that range is undefined behaviour.
  unsigned expect_unsigned(const std::string& what) {
    const Token t = expect(TokKind::Integer, what);
    if (!(t.value <= std::numeric_limits<unsigned>::max()))
      fail_at(t, what + " out of range");
    return static_cast<unsigned>(t.value);
  }
  [[noreturn]] void fail(const std::string& msg) const { fail_at(cur(), msg); }
  [[noreturn]] static void fail_at(const Token& t, const std::string& msg) {
    throw Error("QASM parse error at " + std::to_string(t.line) + ":" +
                std::to_string(t.col) + ": " + msg + " (got '" + t.text +
                "')");
  }

  // ---- grammar ----------------------------------------------------------
  void parse_header() {
    if (at_kw("OPENQASM")) {
      eat();
      if (at(TokKind::Real) || at(TokKind::Integer)) eat();
      expect(TokKind::Semicolon, "';'");
    }
  }

  void parse_statement() {
    if (at_kw("include")) {
      eat();
      expect(TokKind::String, "include path");
      expect(TokKind::Semicolon, "';'");
      return;  // qelib1 vocabulary is built in
    }
    if (at_kw("qreg")) { parse_reg(/*quantum=*/true); return; }
    if (at_kw("creg")) { parse_reg(/*quantum=*/false); return; }
    if (at_kw("gate")) { parse_gate_def(); return; }
    if (at_kw("opaque")) { skip_to_semicolon(); return; }
    if (at_kw("barrier")) {
      skip_to_semicolon();
      if (info_) ++info_->num_barrier;
      return;
    }
    if (at_kw("measure")) {
      skip_to_semicolon();
      if (info_) ++info_->num_measure;
      return;
    }
    if (at_kw("reset")) fail("reset is not supported (pure-state simulator)");
    if (at_kw("if")) fail("classically controlled gates are not supported");
    if (at(TokKind::Identifier)) { parse_gate_call(); return; }
    fail("expected statement");
  }

  void skip_to_semicolon() {
    while (!at(TokKind::Semicolon) && !at(TokKind::End)) eat();
    if (at(TokKind::Semicolon)) eat();
  }

  void parse_reg(bool quantum) {
    eat();  // qreg/creg
    const std::string name = expect(TokKind::Identifier, "register name").text;
    expect(TokKind::LBracket, "'['");
    const Token& size = cur();  // toks_ never changes while parsing
    const unsigned sz = expect_unsigned("register size");
    expect(TokKind::RBracket, "']'");
    expect(TokKind::Semicolon, "';'");
    if (!quantum) return;  // classical registers only sink measurements
    HISIM_CHECK_MSG(!qregs_.count(name), "duplicate qreg " << name);
    if (sz > std::numeric_limits<unsigned>::max() - total_qubits_)
      fail_at(size, "register size out of range");
    qregs_[name] = Reg{total_qubits_, sz};
    qreg_order_.push_back(name);
    total_qubits_ += sz;
    circuit_ = grow(circuit_, total_qubits_);
  }

  static Circuit grow(const Circuit& c, unsigned nq) {
    Circuit out(nq, c.name());
    for (const Gate& g : c.gates()) out.add(g);
    return out;
  }

  void parse_gate_def() {
    eat();  // gate
    const std::string name = expect(TokKind::Identifier, "gate name").text;
    GateDef def;
    if (at(TokKind::LParen)) {
      eat();
      while (!at(TokKind::RParen)) {
        def.params.push_back(expect(TokKind::Identifier, "param name").text);
        if (at(TokKind::Comma)) eat();
      }
      eat();  // )
    }
    while (!at(TokKind::LBrace)) {
      def.args.push_back(expect(TokKind::Identifier, "qubit arg").text);
      if (at(TokKind::Comma)) eat();
    }
    eat();  // {
    while (!at(TokKind::RBrace)) {
      if (at_kw("barrier")) { skip_to_semicolon(); continue; }
      GateDef::Call call;
      call.name = expect(TokKind::Identifier, "gate name in body").text;
      if (at(TokKind::LParen)) call.param_exprs = parse_param_list();
      while (!at(TokKind::Semicolon)) {
        call.arg_names.push_back(
            expect(TokKind::Identifier, "qubit arg in body").text);
        if (at(TokKind::Comma)) eat();
      }
      eat();  // ;
      def.body.push_back(std::move(call));
    }
    eat();  // }
    gate_defs_[name] = std::move(def);
  }

  /// The comma-separated expressions of the parameter list that starts
  /// at the current '(', as token slices; consumes through the matching
  /// ')'. The last slice is empty for `()` and after a trailing ','.
  std::vector<std::vector<Token>> parse_param_list() {
    eat();  // (
    std::vector<std::vector<Token>> exprs(1);
    int depth = 1;
    while (true) {
      if (at(TokKind::End)) fail("unterminated parameter list");
      if (at(TokKind::LParen)) ++depth;
      if (at(TokKind::RParen) && --depth == 0) {
        eat();
        return exprs;
      }
      if (at(TokKind::Comma) && depth == 1) {
        exprs.emplace_back();
        eat();
        continue;
      }
      exprs.back().push_back(eat());
    }
  }

  // expression evaluation over a parameter environment ---------------------
  double eval_expr(const std::vector<Token>& toks,
                   const std::map<std::string, double>& env) {
    std::size_t p = 0;
    const double v = eval_sum(toks, p, env);
    if (p != toks.size()) throw Error("QASM: trailing tokens in expression");
    return v;
  }

  double eval_sum(const std::vector<Token>& t, std::size_t& p,
                  const std::map<std::string, double>& env) {
    double v = eval_prod(t, p, env);
    while (p < t.size() &&
           (t[p].kind == TokKind::Plus || t[p].kind == TokKind::Minus)) {
      const bool plus = t[p].kind == TokKind::Plus;
      ++p;
      const double r = eval_prod(t, p, env);
      v = plus ? v + r : v - r;
    }
    return v;
  }

  double eval_prod(const std::vector<Token>& t, std::size_t& p,
                   const std::map<std::string, double>& env) {
    double v = eval_pow(t, p, env);
    while (p < t.size() &&
           (t[p].kind == TokKind::Star || t[p].kind == TokKind::Slash)) {
      const bool mul = t[p].kind == TokKind::Star;
      ++p;
      const double r = eval_pow(t, p, env);
      v = mul ? v * r : v / r;
    }
    return v;
  }

  double eval_pow(const std::vector<Token>& t, std::size_t& p,
                  const std::map<std::string, double>& env) {
    const double v = eval_atom(t, p, env);
    if (p < t.size() && t[p].kind == TokKind::Caret) {
      ++p;
      return std::pow(v, eval_pow(t, p, env));  // right associative
    }
    return v;
  }

  double eval_atom(const std::vector<Token>& t, std::size_t& p,
                   const std::map<std::string, double>& env) {
    if (p >= t.size()) throw Error("QASM: truncated expression");
    const Token& tok = t[p];
    if (tok.kind == TokKind::Minus) {
      ++p;
      return -eval_atom(t, p, env);
    }
    if (tok.kind == TokKind::Plus) {
      ++p;
      return eval_atom(t, p, env);
    }
    if (tok.kind == TokKind::Real || tok.kind == TokKind::Integer) {
      ++p;
      return tok.value;
    }
    if (tok.kind == TokKind::LParen) {
      ++p;
      const double v = eval_sum(t, p, env);
      if (p >= t.size() || t[p].kind != TokKind::RParen)
        throw Error("QASM: missing ')'");
      ++p;
      return v;
    }
    if (tok.kind == TokKind::Identifier) {
      ++p;
      if (tok.text == "pi") return M_PI;
      static const std::map<std::string, double (*)(double)> funcs = {
          {"sin", std::sin}, {"cos", std::cos}, {"tan", std::tan},
          {"exp", std::exp}, {"ln", std::log},  {"sqrt", std::sqrt},
      };
      if (auto it = funcs.find(tok.text); it != funcs.end()) {
        if (p >= t.size() || t[p].kind != TokKind::LParen)
          throw Error("QASM: function call needs '('");
        ++p;
        const double arg = eval_sum(t, p, env);
        if (p >= t.size() || t[p].kind != TokKind::RParen)
          throw Error("QASM: missing ')' after function arg");
        ++p;
        return it->second(arg);
      }
      if (auto it = env.find(tok.text); it != env.end()) return it->second;
      throw Error("QASM: unknown identifier in expression: " + tok.text);
    }
    throw Error("QASM: bad expression token '" + tok.text + "'");
  }

  // gate application --------------------------------------------------------
  struct Operand {
    std::string reg;
    std::optional<unsigned> index;  // nullopt = whole register broadcast
  };

  void parse_gate_call() {
    const Token name_tok = eat();
    const std::string name = name_tok.text;
    std::vector<double> params;
    if (at(TokKind::LParen)) {
      std::vector<std::vector<Token>> exprs = parse_param_list();
      if (exprs.back().empty()) exprs.pop_back();  // `()` or a trailing ','
      for (const std::vector<Token>& expr : exprs)
        params.push_back(eval_expr(expr, {}));
    }
    std::vector<Operand> ops;
    while (!at(TokKind::Semicolon)) {
      Operand op;
      op.reg = expect(TokKind::Identifier, "qubit operand").text;
      if (at(TokKind::LBracket)) {
        eat();
        op.index = expect_unsigned("qubit index");
        expect(TokKind::RBracket, "']'");
      }
      ops.push_back(std::move(op));
      if (at(TokKind::Comma)) eat();
    }
    eat();  // ;

    // Broadcast over whole-register operands.
    unsigned bcast = 1;
    for (const auto& op : ops) {
      if (op.index) continue;
      const auto it = qregs_.find(op.reg);
      if (it == qregs_.end()) fail("unknown qreg " + op.reg);
      if (bcast != 1 && it->second.size != bcast)
        fail("broadcast size mismatch");
      bcast = it->second.size;
    }
    for (unsigned b = 0; b < bcast; ++b) {
      std::vector<Qubit> qs;
      for (const auto& op : ops) {
        const auto it = qregs_.find(op.reg);
        if (it == qregs_.end()) fail("unknown qreg " + op.reg);
        const unsigned idx = op.index ? *op.index : b;
        if (idx >= it->second.size) fail("qubit index out of range");
        qs.push_back(it->second.offset + idx);
      }
      apply_named(name, params, qs);
    }
  }

  void apply_named(const std::string& name, const std::vector<double>& params,
                   const std::vector<Qubit>& qs) {
    // User definitions shadow builtins.
    if (auto it = gate_defs_.find(name); it != gate_defs_.end()) {
      const GateDef& def = it->second;
      // A body that reaches its own gate again would expand forever.
      if (std::find(expanding_.begin(), expanding_.end(), &def) !=
          expanding_.end())
        throw Error("QASM: gate '" + name + "' calls itself");
      HISIM_CHECK_MSG(params.size() == def.params.size(),
                      "param count mismatch calling gate " << name);
      HISIM_CHECK_MSG(qs.size() == def.args.size(),
                      "arg count mismatch calling gate " << name);
      std::map<std::string, double> env;
      for (std::size_t i = 0; i < params.size(); ++i)
        env[def.params[i]] = params[i];
      std::map<std::string, Qubit> qenv;
      for (std::size_t i = 0; i < qs.size(); ++i) qenv[def.args[i]] = qs[i];
      expanding_.push_back(&def);
      for (const auto& call : def.body) {
        std::vector<double> sub_params;
        for (const auto& expr : call.param_exprs)
          sub_params.push_back(eval_expr(expr, env));
        std::vector<Qubit> sub_qs;
        for (const auto& a : call.arg_names) {
          const auto q = qenv.find(a);
          if (q == qenv.end())
            throw Error("QASM: unknown qubit arg '" + a + "' in gate body");
          sub_qs.push_back(q->second);
        }
        apply_named(call.name, sub_params, sub_qs);
      }
      expanding_.pop_back();
      return;
    }
    const auto it = builtin_gates().find(name);
    if (it == builtin_gates().end())
      throw Error("QASM: unknown gate '" + name + "'");
    Gate g;
    g.kind = it->second;
    g.qubits = qs;
    // u/U with 3 params is u3; u1-style single param accepted for "p".
    const std::vector<double>& ps = params;
    HISIM_CHECK_MSG(ps.size() == gate_param_count(g.kind),
                    "gate " << name << " expects "
                            << gate_param_count(g.kind) << " params, got "
                            << ps.size());
    g.params.assign(ps.begin(), ps.end());
    circuit_.add(std::move(g));
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  ParseInfo* info_;
  Circuit circuit_{0, "qasm"};
  unsigned total_qubits_ = 0;
  std::unordered_map<std::string, Reg> qregs_;
  std::vector<std::string> qreg_order_;
  std::unordered_map<std::string, GateDef> gate_defs_;
  std::vector<const GateDef*> expanding_;  // definitions being applied
};

}  // namespace

Circuit parse(const std::string& source, ParseInfo* info) {
  Parser p(tokenize(source), info);
  return p.run();
}

Circuit parse_file(const std::string& path, ParseInfo* info) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open QASM file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  Circuit c = parse(ss.str(), info);
  // Name the circuit after the file stem.
  const auto slash = path.find_last_of('/');
  const auto stem = path.substr(slash == std::string::npos ? 0 : slash + 1);
  const auto dot = stem.find_last_of('.');
  c.set_name(dot == std::string::npos ? stem : stem.substr(0, dot));
  return c;
}

}  // namespace hisim::qasm
