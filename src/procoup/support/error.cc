#include "procoup/support/error.hh"

#include <cstdio>
#include <cstdlib>

namespace procoup {

std::string
simErrorKindName(SimErrorKind k)
{
    switch (k) {
      case SimErrorKind::Runtime:            return "runtime";
      case SimErrorKind::Deadlock:           return "deadlock";
      case SimErrorKind::CycleLimit:         return "cycle-limit";
      case SimErrorKind::WallClockDeadline:  return "wall-clock-deadline";
      case SimErrorKind::InvariantViolation: return "invariant-violation";
    }
    return "runtime";
}

namespace detail {

void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

} // namespace detail
} // namespace procoup
