#pragma once

// Output checks of the benchmark: allocation digests (compared against the
// committed expected results of the default seed) and a validity check that
// holds for any seed. The validity check recomputes every allocation's claim
// on each tile from the binding and the application and platform models
// alone, without src/platform/resources, and tracks what the earlier
// allocations of a sequence left free.

#include <optional>
#include <string>
#include <vector>

#include "src/appmodel/application.h"
#include "src/mapping/strategy.h"
#include "src/platform/architecture.h"

namespace perfbench {

/// Digest of one allocation: outcome, binding, per-tile schedules and
/// slices, and the achieved throughput.
[[nodiscard]] std::string allocation_digest(const sdfmap::ApplicationGraph& app,
                                            const sdfmap::StrategyResult& result);

/// The free resources of one platform as the checker sees them, stacked
/// allocation by allocation.
class IndependentPlatform {
 public:
  explicit IndependentPlatform(const sdfmap::Architecture& arch);

  /// Checks that a successful allocation is valid on what is still free:
  /// every actor sits on a tile whose processor type runs it, every
  /// inter-tile channel has a connection, the slices, memory, connections and
  /// bandwidth fit every tile, the library's own usage report agrees, and the
  /// achieved throughput meets the constraint. On success the claim is
  /// subtracted; on failure the reason is returned and nothing changes.
  [[nodiscard]] std::optional<std::string> admit(const sdfmap::ApplicationGraph& app,
                                                 const sdfmap::StrategyResult& result);

 private:
  struct Free {
    std::int64_t wheel = 0;
    std::int64_t memory = 0;
    std::int64_t connections = 0;
    std::int64_t bandwidth_in = 0;
    std::int64_t bandwidth_out = 0;
  };
  const sdfmap::Architecture& arch_;
  std::vector<Free> free_;
};

}  // namespace perfbench
