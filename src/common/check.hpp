#pragma once

#include <sstream>
#include <string>

#include "common/error.hpp"

/// Invariant checking — the two layers of HiSVSIM's checked-build story.
///
/// 1. HISIM_CHECK / HISIM_CHECK_MSG — always on, in every build type.
///    They guard *preconditions*: malformed user input, invalid options,
///    out-of-range qubits. Violations throw hisim::Error, because callers
///    (the CLI, the QASM front end, tests) legitimately catch and report
///    them.
///
/// 2. HISIM_DCHECK / HISIM_DCHECK_MSG — the deep-validation layer, armed
///    only when the build was configured with -DHISIM_CHECKED=ON. They
///    guard *internal invariants*: properties that hold unless the library
///    itself has a bug (norm preservation, exchange-schedule conservation,
///    plan invariants). The condition is compiled in every
///    configuration (so a check can never rot behind an #ifdef) but the
///    compiler drops the dead branch when HISIM_CHECKED is off — zero
///    cost in release builds. Violations print and abort(): an invariant
///    violation is a bug, never a recoverable condition, and an abort
///    cannot be silently swallowed by a catch block the way a throw can.
///
/// 3. HISIM_INVARIANT — the abort-on-failure primitive the deep
///    validators (ExecutionPlan::validate, dist::validate_plan, ...)
///    are built from. Always armed: the validators themselves are only
///    *called* from checked builds (or explicitly by tests), but once
///    called they must report violations in every build type — this is
///    what lets tests/test_checked.cpp death-test each validator without
///    a special build.

#ifndef HISIM_CHECKED
#define HISIM_CHECKED 0
#endif

namespace hisim {

/// True when the build was configured with -DHISIM_CHECKED=ON: deep
/// validators run at subsystem seams and HISIM_DCHECK is armed.
inline constexpr bool checked_build = HISIM_CHECKED != 0;

namespace detail {

[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << "HISIM_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

/// Prints the violated invariant to stderr and abort()s. Out of line so
/// the cold path costs one call in the macro expansion.
[[noreturn]] void invariant_failure(const char* expr, const char* file,
                                    int line, const std::string& msg);

}  // namespace detail
}  // namespace hisim

/// Always-on precondition check: throws hisim::Error (see layer 1 above).
#define HISIM_CHECK(expr)                                                  \
  do {                                                                     \
    if (!(expr))                                                           \
      ::hisim::detail::throw_check_failure(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define HISIM_CHECK_MSG(expr, msg)                                      \
  do {                                                                  \
    if (!(expr)) {                                                      \
      std::ostringstream os_;                                           \
      os_ << msg;                                                       \
      ::hisim::detail::throw_check_failure(#expr, __FILE__, __LINE__,   \
                                           os_.str());                  \
    }                                                                   \
  } while (0)

/// Deep invariant check: compiled always, armed only under HISIM_CHECKED,
/// aborts on violation (see layer 2 above).
#define HISIM_DCHECK(expr)                                                   \
  do {                                                                       \
    if constexpr (::hisim::checked_build) {                                  \
      if (!(expr))                                                           \
        ::hisim::detail::invariant_failure(#expr, __FILE__, __LINE__, "");   \
    }                                                                        \
  } while (0)

#define HISIM_DCHECK_MSG(expr, msg)                                          \
  do {                                                                       \
    if constexpr (::hisim::checked_build) {                                  \
      if (!(expr)) {                                                         \
        std::ostringstream os_;                                              \
        os_ << msg;                                                          \
        ::hisim::detail::invariant_failure(#expr, __FILE__, __LINE__,        \
                                           os_.str());                       \
      }                                                                      \
    }                                                                        \
  } while (0)

/// Always-armed invariant used inside deep validators (see layer 3 above).
#define HISIM_INVARIANT(expr, msg)                                           \
  do {                                                                       \
    if (!(expr)) {                                                           \
      std::ostringstream os_;                                                \
      os_ << msg;                                                            \
      ::hisim::detail::invariant_failure(#expr, __FILE__, __LINE__,          \
                                         os_.str());                         \
    }                                                                        \
  } while (0)
