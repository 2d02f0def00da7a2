#include "engine/concurrency.h"

#include <chrono>
#include <type_traits>
#include <variant>

namespace nf2 {

EngineGate::ExclusiveLock EngineGate::LockExclusive() {
  const auto start = std::chrono::steady_clock::now();
  ExclusiveLock lock(mu_);
  if (metrics_.write_acquires != nullptr) {
    metrics_.write_acquires->Increment();
  }
  if (metrics_.write_wait_ns != nullptr) {
    metrics_.write_wait_ns->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  return lock;
}

bool IsReadOnlyStatement(const Statement& stmt) {
  return std::visit(
      [](const auto& s) -> bool {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, SelectStatement> ||
                      std::is_same_v<T, ShowStatement> ||
                      std::is_same_v<T, DescribeStatement> ||
                      std::is_same_v<T, NestStatement> ||
                      std::is_same_v<T, ListStatement> ||
                      std::is_same_v<T, StatsStatement>) {
          return true;
        } else if constexpr (std::is_same_v<T, ExplainStatement>) {
          // EXPLAIN renders a plan without executing; PROFILE runs the
          // inner statement and inherits its classification.
          if (!s.profile) return true;
          return s.inner != nullptr && IsReadOnlyStatement(s.inner->stmt);
        } else {
          return false;
        }
      },
      stmt);
}

}  // namespace nf2
