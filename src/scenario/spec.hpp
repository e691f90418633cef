// Scenario specs: the declarative description of one experiment run
// (DESIGN.md decision 5 — scenarios are data).
//
// A ScenarioSpec names an initial topology, a healer, and an adversary
// *schedule* of phases — each phase an (insertion strategy, deletion
// strategy, step count, delete fraction, burst size) tuple — plus the seed
// and the metric probes to sample. Components are referenced by registry
// key (registry.hpp), so a spec carries no code. Specs are constructible in
// code and parseable from a small line-oriented `key value k=v...` text
// format:
//
//   # phased churn against xheal
//   name phased-churn
//   seed 42
//   topology random-regular n=64 d=4
//   healer xheal d=2
//   probes degree expansion
//   sample_every 20
//   phase warmup steps=60 delete_fraction=0.3 deleter=random k=3 min_nodes=8
//   phase assault steps=30 delete_fraction=1 deleter=max-degree
//   expect connected
//   expect max_degree_ratio <= 12
//
// Grammar v2 (DESIGN.md decision 8) adds four phase keys:
//
//   phase ramp  steps=100 seed=9 delete_fraction=0.1..0.9
//   phase mixed steps=50  deleter=random:0.7,max-degree:0.3
//   phase flash steps=20  insert_burst=4 delete_fraction=0
//
//   seed=S            — reseed the master rng at phase entry, making the
//                       phase's adversary stream independent of everything
//                       before it (sweeps can permute phases freely).
//   delete_fraction=a..b — linear ramp from a to b across the phase's
//                       steps (a <= b; both ends evaluated).
//   deleter=k1:w1,k2:w2 — composite deleter: each delete event first draws
//                       which member strategy acts, proportionally to the
//                       (positive, non-normalized) weights.
//   insert_burst=I    — I forced insert events at the start of every step,
//                       before the regular burst (flash-crowd modeling).
//
// Batched adversary:
//
//   phase surge steps=40 delete_fraction=1 batch=16
//
//   batch=k           — stage k deletions per repair flush: the healer runs
//                       per-victim teardown immediately but builds the new
//                       secondary once per batch (see PhaseSpec::batch).
//
// Lossy-network keys (this PR; meaningful for message-passing healers):
//
//   phase storm steps=30 delete_fraction=1 drop=0.1 latency=2
//
//   drop=p            — per-message loss probability for this phase,
//                       overriding the healer's base model (healer param
//                       `drop=`); p in [0, 1].
//   latency=L         — extra delivery delay in rounds for this phase
//                       (messages arrive after 1 + L rounds).
//
// Id-compaction key (DESIGN.md decision 12; long-churn runs):
//
//   phase churn steps=100000 delete_fraction=0.5 compact=4
//
//   compact=K         — after any step of this phase where the issued id
//                       space has outgrown the live population K-fold, the
//                       session compacts the id space (dense renumbering)
//                       and records a `compact` trace event. 0/absent = off.
//
// `to_text()` emits the same grammar, and parse(to_text()) round-trips.
// Default-valued keys are omitted, so specs predating a key keep their
// content_hash.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace xheal::scenario {

/// One registry-keyed component reference: a kind plus string parameters.
/// Typed accessors parse on demand and throw std::runtime_error on
/// malformed values, naming the offending key.
struct ComponentSpec {
    std::string kind;
    std::map<std::string, std::string> params;

    bool has(const std::string& key) const { return params.count(key) != 0; }
    std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
    double get_double(const std::string& key, double fallback) const;
    bool get_bool(const std::string& key, bool fallback) const;

    /// `kind k1=v1 k2=v2` with params in key order.
    std::string to_text() const;
};

/// One weighted member of a composite deleter mixture. Weights are kept
/// as parsed (positive, not normalized) so the canonical printer
/// round-trips them; consumers normalize at build time.
struct WeightedDeleter {
    ComponentSpec component{"random", {}};
    double weight = 1.0;
};

/// One phase of the adversary schedule. delete_fraction semantics (applied
/// to the *effective* fraction of the step — see delete_fraction_at):
///   >= 1  — deletion-only (no coin flipped, matching the classic
///           "p deletions" benches);
///   <= 0  — insertion-only (no coin flipped);
///   else  — per event, flip chance(fraction); a delete that is
///           blocked by min_nodes (or yields no victim) becomes an insert.
struct PhaseSpec {
    std::string name = "phase";
    std::size_t steps = 0;
    /// Reseed the master rng at phase entry (grammar v2 `seed=`); absent =
    /// continue the running master stream as before.
    std::optional<std::uint64_t> seed;
    std::size_t burst = 1;         ///< adversary events per step
    std::size_t insert_burst = 0;  ///< forced inserts per step, before `burst`
    /// Deletions staged per repair flush (`batch=k`). 1 = classic Xheal: every
    /// deletion is repaired immediately. k > 1 = the healer performs per-victim
    /// teardown at once but defers new-secondary construction until k deletions
    /// accumulated (or the phase/run ends, or a metric sample / insert event
    /// forces a flush so probes and inserters always see a healed graph).
    std::size_t batch = 1;
    double delete_fraction = 0.5;
    /// Ramp end (grammar v2 `delete_fraction=a..b`); absent = constant.
    std::optional<double> delete_fraction_end;
    /// Per-phase network fault overrides (`drop=` / `latency=`); absent =
    /// the healer's base fault model. No-ops for non-distributed healers.
    std::optional<double> drop;
    std::optional<std::size_t> latency;
    /// Id-compaction waste factor (`compact=K`, DESIGN.md decision 12):
    /// after each step of this phase, if the issued id space exceeds K times
    /// the live population (next_id >= K * max(live, 1) and at least one id
    /// is retired), the session compacts and a `compact` event is traced.
    /// 0 = off (the default — legacy specs never compact, so their traces
    /// and fingerprints are byte-identical to pre-compaction builds).
    std::size_t compact = 0;
    /// Always empty; benchmark/src/traced.cpp still tests it (frozen caller).
    static constexpr std::optional<std::size_t> shards{};
    std::size_t min_nodes = 4;  ///< never delete at or below this population
    ComponentSpec deleter{"random", {}};
    /// Non-empty = composite deleter (grammar v2 `deleter=k1:w1,k2:w2`);
    /// `deleter` is ignored in that case.
    std::vector<WeightedDeleter> deleter_mix;
    ComponentSpec inserter{"random-attach", {{"k", "3"}}};

    /// Effective delete fraction at `step` (0-based, < steps): the constant
    /// `delete_fraction`, or the linear ramp hitting both endpoints —
    /// a + (b-a) * step/(steps-1) (a single-step ramp evaluates to a).
    double delete_fraction_at(std::size_t step) const;
};

/// Terminal assertion on the final metric sample; `xheal_run` turns these
/// into the PASS/FAIL verdict.
struct Expectation {
    enum class Kind {
        connected,            ///< final graph is one component
        max_degree_ratio_le,  ///< max_v deg_G/deg_G' <= value
        expansion_ge,         ///< edge-expansion estimate >= value
        lambda2_ge,           ///< algebraic connectivity >= value
        stretch_le,           ///< sampled stretch <= value
        nodes_ge,             ///< final population >= value
        peak_slot_factor_le,  ///< peak slot count <= value * live high-water
    };
    Kind kind = Kind::connected;
    double value = 0.0;

    std::string to_text() const;
};

struct ScenarioSpec {
    std::string name = "unnamed";
    std::uint64_t seed = 1;
    ComponentSpec topology{"random-regular", {{"n", "64"}, {"d", "4"}}};
    ComponentSpec healer{"xheal", {}};
    /// Extra metric probes sampled every `sample_every` steps (and always at
    /// the end): subset of {"connected", "degree", "expansion", "lambda2",
    /// "stretch"}. Population/edge counts are always recorded.
    std::vector<std::string> probes;
    /// 0 = only the final sample.
    std::size_t sample_every = 0;
    /// Stretch probe sample count (paper metric is sampled-source BFS).
    std::size_t stretch_samples = 8;
    /// Always 1; benchmark/src/traced.cpp still tests it (frozen caller).
    static constexpr std::size_t shards = 1;
    std::vector<PhaseSpec> phases;
    std::vector<Expectation> expectations;

    /// Sum of phase step counts.
    std::size_t total_steps() const;

    /// Canonical text form (parse round-trips it).
    std::string to_text() const;
    /// FNV-1a 64 over the canonical text — names a spec in traces/reports.
    std::uint64_t content_hash() const;

    /// Parse the grammar above. Throws std::runtime_error with a
    /// line-numbered message on malformed input.
    static ScenarioSpec parse(const std::string& text);
    static ScenarioSpec parse_file(const std::string& path);
};

/// FNV-1a 64-bit over a byte string (shared by spec/trace hashing).
std::uint64_t fnv1a64(const std::string& bytes);

/// Strict unsigned integer parse shared by the spec and trace readers: the
/// whole of `text` must be digits of `base` (no sign, space, prefix or
/// trailing junk) and the value must fit in 64 bits. Throws
/// std::runtime_error naming `what`.
std::uint64_t parse_u64(const std::string& text, const std::string& what, int base = 10);

}  // namespace xheal::scenario
