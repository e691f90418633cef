// Test-only fault injection: a Healer wrapper that silently *skips* the
// inner healer's repair on every drop_every-th deletion (the node is still
// removed, as the Healer contract requires, but no repair edges are added).
// This is the canonical "forgot to heal" bug the trace-forensics layer
// exists to catch: the fuzzer's invariant oracles flag the resulting
// disconnection / degradation and the shrinker reduces the event stream to
// a minimal reproducer.
//
// The wrapper is registered in the scenario registry as healer kind
// `faulty` (params inner=<kind>, drop_every=N) so shrunk reproducers can
// name it in a standalone .scn and `xheal_run replay` reproduces the buggy
// run byte-for-byte. Wrap *stateless* healers (the baselines): skipping a
// stateful healer's on_delete would desynchronize its internal bookkeeping
// from the graph and turn the demo bug into undefined behavior.
#pragma once

#include <memory>

#include "core/healer.hpp"

namespace xheal::core {

class FaultInjectingHealer : public Healer {
public:
    /// Takes ownership of `inner`. drop_every = 0 never drops (pass-through).
    FaultInjectingHealer(std::unique_ptr<Healer> inner, std::size_t drop_every)
        : inner_(std::move(inner)), drop_every_(drop_every) {}

    std::string_view name() const override { return "faulty"; }

    void on_insert(graph::Graph& g, graph::NodeId v) override {
        inner_->on_insert(g, v);
    }

    RepairReport on_delete(graph::Graph& g, graph::NodeId v) override {
        ++deletions_;
        if (drop_every_ != 0 && deletions_ % drop_every_ == 0) {
            g.remove_node(v);  // the bug: delete applied, repair skipped
            return {};
        }
        return inner_->on_delete(g, v);
    }

    void check_consistency(const graph::Graph& g) const override {
        inner_->check_consistency(g);
    }
    void check_consistency(const graph::Graph& g,
                           std::span<const graph::NodeId> rows) const override {
        inner_->check_consistency(g, rows);
    }

private:
    std::unique_ptr<Healer> inner_;
    std::size_t drop_every_;
    std::size_t deletions_ = 0;
};

}  // namespace xheal::core
