// Boundary validation for the public option block (xatpg/options.hpp).
#include <sstream>

#include "xatpg/options.hpp"

namespace xatpg {

Expected<void> AtpgOptions::validate() const {
  std::ostringstream problems;
  const auto reject = [&problems](const char* what) {
    if (problems.tellp() > 0) problems << "; ";
    problems << what;
  };

  if (k == 0)
    reject("k = 0 (every input pattern would be classified as oscillating; "
           "need at least one gate transition per test cycle)");
  if (k > kMaxK)
    reject("k > 1048576 (settling an oscillating pattern takes time linear "
           "in k and cannot be cancelled)");
  if (diff_depth == 0)
    reject("diff_depth = 0 (phase 3 differentiation would be disabled "
           "entirely)");
  if (diff_node_cap == 0)
    reject("diff_node_cap = 0 (the differentiation BFS could never expand a "
           "node)");
  if (diff_node_cap > kMaxDiffNodeCap)
    reject("diff_node_cap > 1048576 (one fault's differentiation search "
           "has no cancel point, and its queue grows with the cap)");
  if (random_budget > kMaxRandomBudget)
    reject("random_budget > 1048576 (random TPG draws every walk into memory "
           "before its first cancel point)");
  if (random_walk_len == 0)
    reject("random_walk_len = 0 (random TPG would loop applying reset pulses "
           "without ever spending its budget)");
  if (threads > kMaxThreads)
    reject("threads > 4096 (far beyond any machine this targets — almost "
           "certainly a typo; 0 means one worker per hardware thread)");
  if (sim.k == 0)
    reject("sim.k = 0 (the fault simulator could never settle a test cycle)");
  if (sim.k > kMaxK)
    reject("sim.k > 1048576 (settling an oscillating pattern takes time "
           "linear in k and cannot be cancelled)");
  if (sim.candidate_cap == 0)
    reject("sim.candidate_cap = 0 (the consistent-set simulator would give "
           "up on every fault immediately)");

  if (problems.tellp() > 0)
    return Error{ErrorCode::OptionError, problems.str()};
  return {};
}

}  // namespace xatpg
