// Message type for the synchronous LOCAL-model simulator. The LOCAL model
// (paper Section 2) does not bound message size, so the payload is an
// arbitrary vector of words; `type` is a protocol-defined tag.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace xheal::sim {

struct Message {
    graph::NodeId from = graph::invalid_node;
    graph::NodeId to = graph::invalid_node;
    int type = 0;
    std::vector<std::uint64_t> payload;
    /// Reliable-delivery sequence number; 0 means no ack requested. When
    /// non-zero, protocol handlers reply with a tag::ack message whose
    /// payload[0] echoes this value (lossy-network retry protocol).
    std::uint64_t ack_seq = 0;
};

/// Well-known message tags used by the Xheal repair protocol.
namespace tag {
inline constexpr int deletion_notice = 1;   ///< neighbor informed of deletion
inline constexpr int splice = 2;            ///< H-graph cycle splice repair
inline constexpr int elect = 3;             ///< leader-election tournament
inline constexpr int inform_topology = 4;   ///< leader installs cloud edges
inline constexpr int leader_announce = 5;   ///< new leader broadcast
inline constexpr int free_query = 6;        ///< ask a cloud leader for a free node
inline constexpr int free_reply = 7;        ///< leader's reply
inline constexpr int flood = 8;             ///< BFS wave (combine operation)
inline constexpr int converge = 9;          ///< BFS convergecast of addresses
inline constexpr int ack = 10;              ///< delivery ack (payload[0] = ack_seq)
}  // namespace tag

}  // namespace xheal::sim
