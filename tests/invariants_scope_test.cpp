// Scoped structural oracles (DESIGN.md decision 7): after a full sweep, a
// check over only the rows touched since the previous check reports what
// the full sweep reports.
//
//   * Differential: the recorded runs of the four CI fuzz-smoke specs and
//     every corpus stream, stepped with a check after every event where
//     nothing is staged, fire the same oracles scoped and full.
//   * Mutation: a fault in a row or cloud the event touched, one per
//     scoped oracle, is found at that event.
//   * Directory: a live-count drift is found at its event by every scoped
//     check; a live cloud no row names is found by the full sweep.
//   * Untouched rows: a fault outside the touched set is left to the
//     stream-end full sweep, which finds it.
//   * Corpus pins: the executor's first finding on each faulty_* pair.
//
// The loop below is the executor's check loop, written out so the tests
// can corrupt the session between an event and its check. Findings are
// matched on oracle names, never on message text.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/invariants.hpp"
#include "scenario/runner.hpp"
#include "scenario/stepper.hpp"
#include "scenario/trace.hpp"
#include "support/mutators.hpp"
#include "trace_tools/executor.hpp"

namespace {

using namespace xheal;
using graph::ColorId;
using graph::Graph;
using graph::GraphTestAccess;
using graph::NodeId;
using scenario::ScenarioSpec;
using scenario::TraceEvent;

std::filesystem::path repo() { return XHEAL_REPO_DIR; }

ScenarioSpec spec_file(const std::string& relative) {
    return ScenarioSpec::parse_file((repo() / relative).string());
}

/// A session built as the executor builds one, stepped one event per step,
/// with the touched rows drained at every check.
class CheckLoop {
public:
    explicit CheckLoop(const ScenarioSpec& spec)
        : spec_(spec),
          rng_(spec.seed),
          session_(scenario::build_session(spec_, rng_, kappa_, registry_)),
          stepper_(spec_, session_, engine_),
          touched_(session_, 1u << 16),
          suite_(kappa_) {
        suite_.enable_degree_bound(registry_ != nullptr);
        // The initial topology is swept in full, so the first event's check
        // can be scoped.
        EXPECT_TRUE(full().empty());
        touched_.drain();
    }

    /// Apply one recorded event. True when nothing is staged: a check is
    /// due, and rows() holds what the event (and any staged ones before
    /// it) touched, unless a journal overflowed (scoped() false).
    bool step(TraceEvent event) {
        if (event.kind != TraceEvent::Kind::remove) event.node = graph::invalid_node;
        stepper_.begin_step();
        stepper_.apply(std::move(event));
        stepper_.end_step();
        if (stepper_.staged() != 0) return false;
        scoped_ = touched_.drain();
        return true;
    }

    /// Drain again: rows() becomes what changed since the last drain.
    bool drain() { return scoped_ = touched_.drain(); }

    bool scoped() const { return scoped_; }
    std::span<const NodeId> rows() const { return touched_.rows(); }
    bool touched(NodeId v) const {
        return std::binary_search(rows().begin(), rows().end(), v);
    }

    /// Oracle names of the full and the scoped structural sets.
    std::vector<std::string> full() const {
        std::vector<core::InvariantFinding> findings;
        suite_.check_structural(session_, findings);
        return names(findings);
    }
    std::vector<std::string> scoped_findings() const {
        std::vector<core::InvariantFinding> findings;
        suite_.check_structural(session_, rows(), findings);
        return names(findings);
    }

    /// The session owns non-const graphs and hands out const views; the
    /// tests corrupt them in place.
    Graph& g() { return const_cast<Graph&>(session_.current()); }
    const Graph& ref() const { return session_.reference(); }
    core::CloudRegistry& registry() { return const_cast<core::CloudRegistry&>(*registry_); }
    std::size_t kappa() const { return kappa_; }

private:
    static std::vector<std::string> names(const std::vector<core::InvariantFinding>& findings) {
        std::vector<std::string> out;
        for (const core::InvariantFinding& f : findings) out.push_back(f.oracle);
        return out;
    }

    ScenarioSpec spec_;
    util::Rng rng_;
    std::size_t kappa_ = 1;
    const core::CloudRegistry* registry_ = nullptr;
    core::HealingSession session_;
    spectral::ProbeEngine engine_;
    scenario::Stepper stepper_;
    core::TouchedRows touched_;
    core::InvariantSuite suite_;
    bool scoped_ = false;
};

bool contains(const std::vector<std::string>& names, const std::string& oracle) {
    return std::find(names.begin(), names.end(), oracle) != names.end();
}

// ----- the claim journal -----

TEST(ClaimJournal, RecordsClaimEditsTheStructureJournalDoesNotSee) {
    Graph g;
    for (int i = 0; i < 4; ++i) g.add_node();
    g.add_black_edge(0, 1);
    g.set_journal_limit(64);
    g.set_claim_journal_limit(64);
    // Claims added to and dropped from an edge that survives: no row
    // changes shape.
    g.add_color_claim(0, 1, 5);
    ASSERT_TRUE(g.remove_color_claim(0, 1, 5));
    EXPECT_TRUE(g.journal().empty());
    EXPECT_EQ(g.claim_journal(), (std::vector<NodeId>{0, 1, 0, 1}));
    // Dropping the last claim erases the edge: both journals see it.
    g.clear_claim_journal();
    ASSERT_TRUE(g.remove_black_claim(0, 1));
    EXPECT_EQ(g.journal(), (std::vector<NodeId>{0, 1}));
    EXPECT_EQ(g.claim_journal(), (std::vector<NodeId>{0, 1}));
    // A compaction renumbers: both journals flag an unknown delta.
    g.remove_node(3);
    std::vector<NodeId> map;
    g.compact(map);
    EXPECT_TRUE(g.journal_overflowed());
    EXPECT_TRUE(g.claim_journal_overflowed());
    // Disabled, it records nothing.
    g.set_claim_journal_limit(0);
    g.add_color_claim(0, 2, 7);
    EXPECT_TRUE(g.claim_journal().empty());
}

// A stray claim on an existing edge far from the last event, added through
// the journaled API as a faulty repair step would add it, reaches the
// scope through the claim journal alone.
TEST(ClaimJournal, BringsAClaimEditOnAnUntouchedEdgeIntoTheScope) {
    ScenarioSpec spec = spec_file("scenarios/phased_churn.scn");
    std::vector<TraceEvent> events = scenario::ScenarioRunner(spec).run().events;
    CheckLoop loop(spec);
    for (const TraceEvent& event : events) ASSERT_TRUE(loop.step(event));
    NodeId u = graph::invalid_node, w = graph::invalid_node;
    ColorId stray = graph::invalid_color;
    for (NodeId a : loop.g().nodes()) {
        if (u != graph::invalid_node) break;
        if (loop.touched(a)) continue;
        for (NodeId b : loop.g().neighbors(a)) {
            if (loop.touched(b)) continue;
            for (ColorId c : loop.registry().colors()) {
                if (loop.registry().find(c)->topology.has_edge(a, b)) continue;
                u = a;
                w = b;
                stray = c;
                break;
            }
            if (u != graph::invalid_node) break;
        }
    }
    ASSERT_NE(u, graph::invalid_node);
    std::size_t edges = loop.g().edge_count();
    loop.g().add_color_claim(u, w, stray);
    ASSERT_EQ(loop.g().edge_count(), edges) << "the edge existed before the claim";
    ASSERT_TRUE(loop.drain());
    EXPECT_TRUE(loop.touched(u) && loop.touched(w));
    EXPECT_TRUE(contains(loop.scoped_findings(), "healer-consistency"));
}

// ----- differential -----

struct Stream {
    std::string name;
    ScenarioSpec spec;
    std::vector<TraceEvent> events;
};

std::vector<Stream> differential_streams() {
    std::vector<Stream> out;
    for (const char* name : {"phased_churn", "star_collapse", "p2p_churn", "batch_failures"}) {
        ScenarioSpec spec = spec_file(std::string("scenarios/") + name + ".scn");
        out.push_back({name, spec, scenario::ScenarioRunner(spec).run().events});
    }
    for (const auto& entry : std::filesystem::directory_iterator(repo() / "tests/data/corpus")) {
        if (entry.path().extension() != ".scn") continue;
        std::filesystem::path stream = entry.path();
        stream.replace_extension(".jsonl");
        out.push_back({entry.path().stem().string(),
                       ScenarioSpec::parse_file(entry.path().string()),
                       scenario::read_trace_file(stream.string()).events});
    }
    std::sort(out.begin(), out.end(),
              [](const Stream& a, const Stream& b) { return a.name < b.name; });
    return out;
}

TEST(ScopedOracles, FireTheSameOraclesAsTheFullSweepOnEveryEvent) {
    std::size_t scoped_checks = 0;
    std::size_t streams_with_findings = 0;
    for (const Stream& stream : differential_streams()) {
        SCOPED_TRACE(stream.name);
        CheckLoop loop(stream.spec);
        for (std::size_t i = 0; i < stream.events.size(); ++i) {
            if (!loop.step(stream.events[i])) continue;
            std::vector<std::string> full = loop.full();
            if (loop.scoped()) {
                ++scoped_checks;
                EXPECT_EQ(loop.scoped_findings(), full) << "event " << i;
            }
            // As the executor: the first finding ends the stream (a broken
            // session stays broken outside any later event's rows).
            if (!full.empty()) {
                ++streams_with_findings;
                break;
            }
        }
    }
    EXPECT_GT(scoped_checks, 400u);
    EXPECT_EQ(streams_with_findings, 4u) << "the four faulty_* corpus pairs";
}

// ----- mutation -----

/// Step phased_churn's recorded run with a scoped check after every event.
/// From event `from` on, `mutate` may corrupt the session right after an
/// event, before its check; it returns true once it did. Returns the index
/// of the mutated event and of the first event whose scoped check fired,
/// with the oracles that fired there.
struct Outcome {
    std::size_t mutated = SIZE_MAX;
    std::size_t found = SIZE_MAX;
    std::vector<std::string> oracles;
};

Outcome run_mutated(const std::function<bool(CheckLoop&)>& mutate, std::size_t from = 40) {
    ScenarioSpec spec = spec_file("scenarios/phased_churn.scn");
    std::vector<TraceEvent> events = scenario::ScenarioRunner(spec).run().events;
    CheckLoop loop(spec);
    Outcome out;
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (!loop.step(events[i]) || !loop.scoped()) continue;
        if (out.mutated == SIZE_MAX && i >= from && mutate(loop)) out.mutated = i;
        std::vector<std::string> fired = loop.scoped_findings();
        if (!fired.empty()) {
            out.found = i;
            out.oracles = std::move(fired);
            break;
        }
    }
    return out;
}

void expect_found_at_mutation(const Outcome& out, const std::string& oracle) {
    ASSERT_NE(out.mutated, SIZE_MAX) << "no event offered a row to corrupt";
    EXPECT_EQ(out.found, out.mutated);
    EXPECT_TRUE(contains(out.oracles, oracle)) << oracle << " did not fire";
}

/// First live touched row with a neighbor, and that neighbor.
std::pair<NodeId, NodeId> touched_edge(CheckLoop& loop) {
    for (NodeId u : loop.rows())
        if (loop.g().has_node(u) && loop.g().degree(u) > 0)
            return {u, loop.g().neighbors(u).front()};
    return {graph::invalid_node, graph::invalid_node};
}

TEST(ScopedOracles, DroppedMirrorEntryIsFoundAtItsEvent) {
    expect_found_at_mutation(run_mutated([](CheckLoop& loop) {
                                 auto [u, v] = touched_edge(loop);
                                 if (u == graph::invalid_node) return false;
                                 // u's entry stays; its mirror in v's row goes.
                                 GraphTestAccess::drop_row_entry(loop.g(), v, u);
                                 return true;
                             }),
                             "graph-consistency");
}

TEST(ScopedOracles, StrayColorClaimIsFoundAtItsEvent) {
    expect_found_at_mutation(
        run_mutated([](CheckLoop& loop) {
            std::vector<ColorId> colors = loop.registry().colors();
            for (NodeId u : loop.rows()) {
                if (!loop.g().has_node(u)) continue;
                for (NodeId w : loop.g().neighbors(u)) {
                    for (ColorId c : colors) {
                        if (loop.registry().find(c)->topology.has_edge(u, w)) continue;
                        if (loop.g().has_color_claim(u, w, c)) continue;
                        GraphTestAccess::unjournaled(
                            loop.g(), [&](Graph& g) { g.add_color_claim(u, w, c); });
                        return true;
                    }
                }
            }
            return false;
        }),
        "healer-consistency");
}

TEST(ScopedOracles, MissingReferenceEdgeIsFoundAtItsEvent) {
    expect_found_at_mutation(run_mutated([](CheckLoop& loop) {
                                 for (NodeId u : loop.rows()) {
                                     if (!loop.g().has_node(u) || !loop.ref().has_node(u))
                                         continue;
                                     for (NodeId v : loop.ref().neighbors(u)) {
                                         if (!loop.g().has_node(v)) continue;
                                         GraphTestAccess::unjournaled(loop.g(), [&](Graph& g) {
                                             g.remove_black_claim(u, v);
                                         });
                                         return true;
                                     }
                                 }
                                 return false;
                             }),
                             "reference-edges");
}

TEST(ScopedOracles, DegreePastTheLemma3BoundIsFoundAtItsEvent) {
    expect_found_at_mutation(
        run_mutated([](CheckLoop& loop) {
            auto [v, unused] = touched_edge(loop);
            (void)unused;
            if (v == graph::invalid_node) return false;
            std::size_t bound = loop.kappa() * loop.ref().degree(v) + 2 * loop.kappa();
            GraphTestAccess::unjournaled(loop.g(), [&](Graph& g) {
                for (NodeId w : g.nodes()) {
                    if (g.degree(v) > bound) break;
                    if (w != v && !g.has_edge(v, w)) g.add_black_edge(v, w);
                }
            });
            EXPECT_GT(loop.g().degree(v), bound) << "graph too small to exceed the bound";
            return true;
        }),
        "degree-bound");
}

TEST(ScopedOracles, MembershipRowNamingADeadColorIsFoundAtItsEvent) {
    expect_found_at_mutation(
        run_mutated([](CheckLoop& loop) {
            std::vector<ColorId> prim;
            for (NodeId v : loop.rows()) {
                if (!loop.g().has_node(v)) continue;
                loop.registry().primary_clouds_of(v, prim);
                if (prim.empty()) continue;
                // Colors are issued in order: one past the newest was never
                // a cloud's, and it sorts last in the row.
                ColorId dead = loop.registry().colors().back() + 1;
                core::CloudRegistryTestAccess::membership_row(loop.registry(), v)
                    .push_back(dead);
                return true;
            }
            return false;
        }),
        "healer-consistency");
}

// A live cloud this time, one that lacks the node: only the scoped record
// count can see it.
TEST(ScopedOracles, MembershipRowNamingACloudWithoutTheNodeIsFoundAtItsEvent) {
    expect_found_at_mutation(
        run_mutated([](CheckLoop& loop) {
            std::vector<ColorId> prim;
            for (NodeId v : loop.rows()) {
                if (!loop.g().has_node(v)) continue;
                loop.registry().primary_clouds_of(v, prim);
                if (prim.empty()) continue;
                for (ColorId c : loop.registry().colors()) {
                    const core::Cloud* cloud = loop.registry().find(c);
                    if (cloud->kind != core::CloudKind::primary || cloud->has_member(v))
                        continue;
                    std::vector<ColorId>& row =
                        core::CloudRegistryTestAccess::membership_row(loop.registry(), v);
                    row.insert(std::lower_bound(row.begin(), row.end(), c), c);
                    return true;
                }
            }
            return false;
        }),
        "healer-consistency");
}

// The directory's bookkeeping is not reached through any row, so every
// scoped check repeats it.
TEST(ScopedOracles, LiveCloudCountDriftIsFoundAtItsEvent) {
    expect_found_at_mutation(run_mutated([](CheckLoop& loop) {
                                 ++core::CloudRegistryTestAccess::live_clouds(loop.registry());
                                 return true;
                             }),
                             "healer-consistency");
}

// A live primary cloud stripped of every membership record and claim is
// named by no row; the full sweep must still find it.
TEST(ScopedOracles, FullSweepFindsALiveCloudNoRowNames) {
    ScenarioSpec spec = spec_file("scenarios/phased_churn.scn");
    std::vector<TraceEvent> events = scenario::ScenarioRunner(spec).run().events;
    CheckLoop loop(spec);
    for (const TraceEvent& event : events) ASSERT_TRUE(loop.step(event));
    ASSERT_TRUE(loop.full().empty());
    const core::Cloud* cloud = nullptr;
    for (ColorId c : loop.registry().colors())
        if (loop.registry().find(c)->kind == core::CloudKind::primary)
            cloud = loop.registry().find(c);
    ASSERT_NE(cloud, nullptr);
    const ColorId color = cloud->color;
    for (NodeId v : cloud->topology.members()) {
        std::vector<ColorId>& row =
            core::CloudRegistryTestAccess::membership_row(loop.registry(), v);
        row.erase(std::find(row.begin(), row.end(), color));
    }
    cloud->topology.for_each_pair([&](NodeId u, NodeId v) {
        GraphTestAccess::unjournaled(loop.g(),
                                     [&](Graph& g) { g.remove_color_claim(u, v, color); });
    });
    EXPECT_TRUE(contains(loop.full(), "healer-consistency"));
}

TEST(ScopedOracles, FaultInAnUntouchedRowIsLeftToTheStreamEndSweep) {
    ScenarioSpec spec = spec_file("scenarios/phased_churn.scn");
    std::vector<TraceEvent> events = scenario::ScenarioRunner(spec).run().events;
    CheckLoop loop(spec);
    for (const TraceEvent& event : events) {
        ASSERT_TRUE(loop.step(event));
        ASSERT_TRUE(loop.scoped());
        ASSERT_TRUE(loop.scoped_findings().empty());
    }
    // After the last event's check: drop the black claim of a reference
    // edge whose endpoints the last event did not touch.
    bool corrupted = false;
    for (NodeId u : loop.ref().nodes()) {
        if (corrupted) break;
        if (!loop.g().has_node(u) || loop.touched(u)) continue;
        for (NodeId v : loop.ref().neighbors(u)) {
            if (!loop.g().has_node(v) || loop.touched(v)) continue;
            GraphTestAccess::unjournaled(loop.g(), [&](Graph& g) { g.remove_black_claim(u, v); });
            corrupted = true;
            break;
        }
    }
    ASSERT_TRUE(corrupted);
    // The scoped check of the same rows cannot see it; the stream-end full
    // sweep does.
    EXPECT_TRUE(loop.scoped_findings().empty());
    EXPECT_TRUE(contains(loop.full(), "reference-edges"));
}

// ----- corpus pins -----

// The executor's first finding on each faulty_* corpus pair, recorded with
// the full sweep after every event: the scoped checks must locate every
// break at the same event.
TEST(ScopedOracles, ExecutorFirstFindingOnEachFaultyCorpusPairIsPinned) {
    const std::vector<std::pair<std::string, trace_tools::ExecViolation>> pins = {
        {"faulty_compact", {8, "connectivity", ""}},
        {"faulty_drop4", {7, "connectivity", ""}},
        {"faulty_line", {3, "connectivity", ""}},
        {"faulty_ramp_mix", {5, "connectivity", ""}},
    };
    for (const auto& [name, pin] : pins) {
        SCOPED_TRACE(name);
        std::filesystem::path base = repo() / "tests/data/corpus" / name;
        ScenarioSpec spec = ScenarioSpec::parse_file(base.string() + ".scn");
        auto trace = scenario::read_trace_file(base.string() + ".jsonl");
        trace_tools::ExecResult exec = trace_tools::TraceExecutor().execute(spec, trace.events);
        ASSERT_TRUE(exec.failed());
        EXPECT_EQ(exec.violations.front().oracle, pin.oracle);
        EXPECT_EQ(exec.violations.front().event_index, pin.event_index);
    }
}

}  // namespace
