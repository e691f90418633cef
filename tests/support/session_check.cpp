#include "support/session_check.hpp"

#include <vector>

#include "core/invariants.hpp"
#include "util/expects.hpp"

namespace xheal::core {

void check_session(const HealingSession& session, std::size_t kappa) {
    std::vector<InvariantFinding> findings;
    InvariantSuite(kappa).check_structural(session, findings);
    if (!findings.empty())
        throw util::ContractViolation(findings.front().oracle + ": " +
                                      findings.front().message);
}

}  // namespace xheal::core
