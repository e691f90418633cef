// The throwing form of the structural oracle bundle, for tests that want
// "stop at the first broken invariant" after every step.
#pragma once

#include <cstddef>

#include "core/session.hpp"

namespace xheal::core {

/// Every structural oracle of InvariantSuite(kappa): the claim mirror,
/// reference edges, connectivity, the Lemma 3 degree bound and the healer's
/// internal consistency check; throws the first finding as a
/// ContractViolation ("<oracle>: <message>").
void check_session(const HealingSession& session, std::size_t kappa);

}  // namespace xheal::core
