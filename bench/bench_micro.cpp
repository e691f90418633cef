// Google-benchmark micro suite for the substrate hot paths: H-graph
// maintenance, expander-cloud rebuilds, spectral solvers, BFS, the Xheal
// repair step itself, the core.repair layer on the churn-repair shape, the
// xheal-dist message simulator on the lossy-dist shape, the structural
// invariant oracles, the probe-dex topology build, the graph storage core
// and the preferential-attach sampler.
//
// BENCH_graph.json is this binary's google-benchmark JSON for the graph
// core and the sampler at n in {1e3, 1e5} (`items_per_second` is ops/sec),
// written by `bench_micro --benchmark_filter='BM_(Graph|PrefAttach)'
// --benchmark_out=BENCH_graph.json --benchmark_out_format=json`.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "baseline/baselines.hpp"
#include "core/invariants.hpp"
#include "core/xheal_healer.hpp"
#include "expander/hgraph.hpp"
#include "graph/algorithms.hpp"
#include "scenario/runner.hpp"
#include "scenario/stepper.hpp"
#include "spectral/csr.hpp"
#include "spectral/expansion.hpp"
#include "spectral/laplacian.hpp"
#include "spectral/probes.hpp"
#include "workload/generators.hpp"

using namespace xheal;

namespace {

std::vector<graph::NodeId> ids(std::size_t n) {
    std::vector<graph::NodeId> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(static_cast<graph::NodeId>(i));
    return out;
}

void BM_HGraphConstruct(benchmark::State& state) {
    util::Rng rng(1);
    auto members = ids(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        expander::HGraph h(members, 4, rng);
        benchmark::DoNotOptimize(h.size());
    }
}
BENCHMARK(BM_HGraphConstruct)->Arg(64)->Arg(256)->Arg(1024);

void BM_HGraphInsertDelete(benchmark::State& state) {
    util::Rng rng(2);
    expander::HGraph h(ids(static_cast<std::size_t>(state.range(0))), 4, rng);
    graph::NodeId next = static_cast<graph::NodeId>(state.range(0));
    for (auto _ : state) {
        h.insert(next, rng);
        h.remove(next);
        ++next;
    }
}
BENCHMARK(BM_HGraphInsertDelete)->Arg(64)->Arg(1024);

void BM_HGraphProjection(benchmark::State& state) {
    util::Rng rng(3);
    expander::HGraph h(ids(static_cast<std::size_t>(state.range(0))), 4, rng);
    for (auto _ : state) {
        auto edges = h.edges();
        benchmark::DoNotOptimize(edges.size());
    }
}
BENCHMARK(BM_HGraphProjection)->Arg(64)->Arg(1024);

void BM_BfsDistances(benchmark::State& state) {
    util::Rng rng(4);
    auto g = workload::make_random_regular(static_cast<std::size_t>(state.range(0)), 4, rng);
    for (auto _ : state) {
        auto d = graph::bfs_distances(g, 0);
        benchmark::DoNotOptimize(d.size());
    }
}
BENCHMARK(BM_BfsDistances)->Arg(256)->Arg(1024)->Arg(4096);

void BM_Lambda2Lanczos(benchmark::State& state) {
    util::Rng rng(6);
    auto g = workload::make_random_regular(static_cast<std::size_t>(state.range(0)), 4, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(spectral::lambda2(g));
    }
}
BENCHMARK(BM_Lambda2Lanczos)->Arg(32)->Arg(128)->Arg(512)->Arg(2048);

// ---------------------------------------------------------------------------
// Sparse probe layer (CSR snapshot + matrix-free Lanczos + budgeted BFS
// stretch): the probes behind n=1e5 scenarios like dex_scale.scn.
// ---------------------------------------------------------------------------

void BM_CsrSnapshotBuild(benchmark::State& state) {
    util::Rng rng(21);
    auto g = workload::make_hgraph_graph(static_cast<std::size_t>(state.range(0)), 3, rng);
    spectral::CsrGraph csr;
    for (auto _ : state) {
        csr.build(g);
        benchmark::DoNotOptimize(csr.edge_count());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CsrSnapshotBuild)->Arg(4096)->Arg(65536);

// spectral.components_s / spectral.stretch_s / spectral.lambda2_s: the three
// sample kernels alone, over CSR snapshots built once (untimed) from a
// session on the probe-dex workload's shape — a 1e5-node H-graph healed by
// xheal d=2 through its 500-step ramp — so no iteration pays for a CSR
// rebuild. Arg is the topology's node count.
struct SpectralSnapshots {
    spectral::CsrGraph g, ref;
};

SpectralSnapshots probe_dex_snapshots(std::size_t n) {
    scenario::ScenarioRunner runner(scenario::ScenarioSpec::parse(
        "name spectral-kernels\nseed 1\ntopology hgraph n=" + std::to_string(n) +
        " d=3\nhealer xheal d=2\nsample_every 0\n"
        "phase ramp steps=500 delete_fraction=0.3 deleter=random inserter=random-attach "
        "k=3 min_nodes=" + std::to_string(n / 2) + "\n"));
    runner.run();
    SpectralSnapshots snaps;
    snaps.g.build(runner.session().current());
    snaps.ref.build(runner.session().reference());
    return snaps;
}

void BM_SpectralComponents(benchmark::State& state) {
    SpectralSnapshots snaps = probe_dex_snapshots(static_cast<std::size_t>(state.range(0)));
    spectral::ProbeEngine engine;
    for (auto _ : state) benchmark::DoNotOptimize(engine.component_count_csr(snaps.g));
}
BENCHMARK(BM_SpectralComponents)->Arg(100000)->Unit(benchmark::kMillisecond);

// The helper side of a probe-dex sample: stretch_samples 4 sources, each one
// BFS on G and one on G'.
void BM_SpectralStretch(benchmark::State& state) {
    SpectralSnapshots snaps = probe_dex_snapshots(static_cast<std::size_t>(state.range(0)));
    spectral::ProbeEngine engine;
    util::Rng rng(25);
    std::vector<graph::NodeId> sources;
    for (auto _ : state) {
        spectral::ProbeEngine::sample_stretch_sources(snaps.g, 4, rng, sources);
        benchmark::DoNotOptimize(engine.stretch_over_sources(snaps.g, snaps.ref, sources));
    }
}
BENCHMARK(BM_SpectralStretch)->Arg(100000)->Unit(benchmark::kMillisecond);

// The budgeted solve in its warm steady state: one untimed cold solve seeds
// the warm-start chain, then each iteration warm-starts from the previous one.
void BM_SpectralLambda2(benchmark::State& state) {
    SpectralSnapshots snaps = probe_dex_snapshots(static_cast<std::size_t>(state.range(0)));
    spectral::ProbeEngine engine;
    std::size_t components = engine.component_count_csr(snaps.g);
    auto solve = [&] {
        return engine.lambda2_commit(snaps.g, components, engine.lambda2_solve(snaps.g));
    };
    solve();
    for (auto _ : state) benchmark::DoNotOptimize(solve());
}
BENCHMARK(BM_SpectralLambda2)->Arg(100000)->Unit(benchmark::kMillisecond);

// workload.topology_s: the probe-dex topology (hgraph d=3) built from a fresh
// rng each iteration. Arg is the node count.
void BM_WorkloadTopology(benchmark::State& state) {
    for (auto _ : state) {
        util::Rng rng(1);
        graph::Graph g =
            workload::make_hgraph_graph(static_cast<std::size_t>(state.range(0)), 3, rng);
        benchmark::DoNotOptimize(g.edge_count());
    }
}
BENCHMARK(BM_WorkloadTopology)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_ExactExpansion(benchmark::State& state) {
    util::Rng rng(7);
    auto g = workload::make_random_regular(static_cast<std::size_t>(state.range(0)), 4, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(spectral::edge_expansion_exact(g));
    }
}
BENCHMARK(BM_ExactExpansion)->Arg(12)->Arg(16)->Arg(20);

void BM_SweepCut(benchmark::State& state) {
    util::Rng rng(8);
    auto g = workload::make_random_regular(static_cast<std::size_t>(state.range(0)), 4, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(spectral::sweep_cut(g).expansion);
    }
}
BENCHMARK(BM_SweepCut)->Arg(256)->Arg(1024);

void BM_XhealStarRepair(benchmark::State& state) {
    for (auto _ : state) {
        state.PauseTiming();
        graph::Graph g = workload::make_star(static_cast<std::size_t>(state.range(0)));
        core::XhealHealer healer(core::XhealConfig{4, 9});
        state.ResumeTiming();
        auto report = healer.on_delete(g, 0);
        benchmark::DoNotOptimize(report.edges_added);
    }
}
BENCHMARK(BM_XhealStarRepair)->Arg(64)->Arg(512)->Arg(4096);

// core.repair: Xheal's repair and combine path on the churn-repair
// workload's shape (balanced 8+8 churn around a 1,000-node H-graph healed by
// xheal d=2, with compaction epochs), cut to 400 steps. The runner is built
// untimed; the counter is wall time per deletion.
void BM_CoreRepair(benchmark::State& state) {
    const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(R"(
name core-repair
seed 1
topology hgraph n=1000 d=3
healer xheal d=2
sample_every 0
phase churn steps=400 delete_fraction=1 burst=8 insert_burst=8 deleter=random inserter=random-attach k=3 min_nodes=500 compact=3
)");
    double deletions = 0.0;
    for (auto _ : state) {
        state.PauseTiming();
        scenario::ScenarioRunner runner(spec);
        state.ResumeTiming();
        scenario::RunResult result = runner.run();
        benchmark::DoNotOptimize(result.fingerprint);
        for (const scenario::PhaseResult& phase : result.phases) deletions += phase.deletions;
    }
    state.counters["per_delete"] = benchmark::Counter(
        deletions, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CoreRepair)->Unit(benchmark::kMillisecond);

// sim.lossy_repair: xheal-dist's message-passing repair on the lossy-dist
// workload's shape (a 2,000-node random 4-regular graph, churn at 10% drop
// and two rounds of latency), cut to 1,000 steps, so the message simulator
// and the ack/retry protocol are the work. The runner is built untimed; the
// counters are wall time per deletion and simulated messages per second.
void BM_SimLossyRepair(benchmark::State& state) {
    const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(R"(
name sim-lossy-repair
seed 1
topology random-regular n=2000 d=4
healer xheal-dist d=2
sample_every 0
phase churn steps=1000 delete_fraction=0.5 deleter=random inserter=random-attach k=3 min_nodes=1000 drop=0.1 latency=2
)");
    double deletions = 0.0;
    double messages = 0.0;
    for (auto _ : state) {
        state.PauseTiming();
        scenario::ScenarioRunner runner(spec);
        state.ResumeTiming();
        scenario::RunResult result = runner.run();
        benchmark::DoNotOptimize(result.fingerprint);
        for (const scenario::PhaseResult& phase : result.phases) {
            deletions += phase.deletions;
            messages += phase.totals.messages;
        }
    }
    state.counters["per_delete"] = benchmark::Counter(
        deletions, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.counters["msgs_per_s"] = benchmark::Counter(messages, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimLossyRepair)->Unit(benchmark::kMillisecond);

// core.invariants: the structural oracle suite of the forensics executor,
// on the forensics workload's session shape (a churned 1,000-node H-graph
// healed by xheal d=2). BM_CoreInvariants times the full sweep (the
// executor's first and stream-end checks), BM_CoreInvariantsScoped the
// scoped check it runs after every other event.
const char* const core_invariants_spec = R"(
name core-invariants
seed 18
topology hgraph n=1000 d=3
healer xheal d=2
phase churn steps=1000 delete_fraction=0.5 deleter=random inserter=random-attach k=3 min_nodes=500
)";

void BM_CoreInvariants(benchmark::State& state) {
    scenario::ScenarioRunner runner(scenario::ScenarioSpec::parse(core_invariants_spec));
    runner.run();
    core::InvariantSuite suite(runner.kappa());
    std::vector<core::InvariantFinding> findings;
    for (auto _ : state) {
        suite.check_structural(runner.session(), findings);
        benchmark::DoNotOptimize(findings.data());
    }
    if (!findings.empty()) state.SkipWithError(findings.front().oracle.c_str());
}
BENCHMARK(BM_CoreInvariants)->Unit(benchmark::kMicrosecond);

// The same churned session, stepped again event by event, and the rows a
// median deletion touched: the deletion whose touched-row count is the
// median of the run's (counter `rows`).
void BM_CoreInvariantsScoped(benchmark::State& state) {
    const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(core_invariants_spec);
    std::vector<scenario::TraceEvent> events = scenario::ScenarioRunner(spec).run().events;
    util::Rng rng(spec.seed);
    std::size_t kappa = 1;
    const core::CloudRegistry* registry = nullptr;
    core::HealingSession session = scenario::build_session(spec, rng, kappa, registry);
    spectral::ProbeEngine engine;
    scenario::Stepper stepper(spec, session, engine);
    core::TouchedRows touched(session, std::size_t{1} << 20);
    std::vector<std::vector<graph::NodeId>> deletions;
    for (const scenario::TraceEvent& event : events) {
        stepper.begin_step();
        stepper.apply(event);
        stepper.end_step();
        if (touched.drain() && event.kind == scenario::TraceEvent::Kind::remove)
            deletions.emplace_back(touched.rows().begin(), touched.rows().end());
    }
    std::vector<graph::NodeId> rows;
    if (!deletions.empty()) {
        auto median = deletions.begin() + static_cast<std::ptrdiff_t>(deletions.size() / 2);
        std::nth_element(deletions.begin(), median, deletions.end(),
                         [](const auto& a, const auto& b) { return a.size() < b.size(); });
        rows = *median;
    }
    core::InvariantSuite suite(kappa);
    std::vector<core::InvariantFinding> findings;
    for (auto _ : state) {
        suite.check_structural(session, rows, findings);
        benchmark::DoNotOptimize(findings.data());
    }
    state.counters["rows"] = static_cast<double>(rows.size());
    if (rows.empty()) state.SkipWithError("no touched rows");
    if (!findings.empty()) state.SkipWithError(findings.front().oracle.c_str());
}
BENCHMARK(BM_CoreInvariantsScoped)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Graph storage core: slot-indexed flat adjacency.
// ---------------------------------------------------------------------------

std::vector<std::pair<graph::NodeId, graph::NodeId>> random_edge_list(std::size_t n,
                                                                      std::size_t m) {
    util::Rng rng(0xbe9cULL + n);
    std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
    edges.reserve(m);
    while (edges.size() < m) {
        auto u = static_cast<graph::NodeId>(rng.index(n));
        auto v = static_cast<graph::NodeId>(rng.index(n));
        if (u != v) edges.emplace_back(u, v);
    }
    return edges;
}

graph::Graph build_graph(std::size_t n,
                         const std::vector<std::pair<graph::NodeId, graph::NodeId>>& edges) {
    graph::Graph g;
    for (std::size_t i = 0; i < n; ++i) g.add_node();
    for (const auto& [u, v] : edges) g.add_black_edge(u, v);
    return g;
}

void BM_GraphAddEdge(benchmark::State& state) {
    std::size_t n = static_cast<std::size_t>(state.range(0));
    auto edges = random_edge_list(n, 4 * n);
    for (auto _ : state) {
        auto g = build_graph(n, edges);
        benchmark::DoNotOptimize(g.edge_count());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * edges.size()));
}
BENCHMARK(BM_GraphAddEdge)->Arg(1000)->Arg(100000);

void BM_GraphNeighborScan(benchmark::State& state) {
    std::size_t n = static_cast<std::size_t>(state.range(0));
    auto g = build_graph(n, random_edge_list(n, 4 * n));
    for (auto _ : state) {
        std::uint64_t checksum = 0;
        for (graph::NodeId v : g.nodes())
            for (graph::NodeId u : g.neighbors(v)) checksum += u;
        benchmark::DoNotOptimize(checksum);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * 2 * g.edge_count()));
}
BENCHMARK(BM_GraphNeighborScan)->Arg(1000)->Arg(100000);

void BM_GraphForEachEdge(benchmark::State& state) {
    std::size_t n = static_cast<std::size_t>(state.range(0));
    auto g = build_graph(n, random_edge_list(n, 4 * n));
    for (auto _ : state) {
        std::uint64_t blacks = 0;
        g.for_each_edge([&](graph::NodeId, graph::NodeId, const graph::EdgeClaims& c) {
            blacks += c.black ? 1 : 0;
        });
        benchmark::DoNotOptimize(blacks);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * g.edge_count()));
}
BENCHMARK(BM_GraphForEachEdge)->Arg(1000)->Arg(100000);

/// Picks of the preferential-attach sampler (k = 3 neighbors per pick) on a
/// random 4-regular session.
void BM_PrefAttach(benchmark::State& state) {
    std::size_t n = static_cast<std::size_t>(state.range(0));
    util::Rng topo_rng(11);
    core::HealingSession session(workload::make_random_regular(n, 4, topo_rng),
                                 std::make_unique<baseline::NoHealHealer>());
    adversary::PreferentialAttach attach(3);
    util::Rng rng(42);
    for (auto _ : state) {
        auto chosen = attach.pick_neighbors(session, rng);
        benchmark::DoNotOptimize(chosen.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PrefAttach)->Arg(1000)->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    // The JSON context already names the cpu; figures only compare on the
    // same compiler and build too.
#ifdef __clang__
    benchmark::AddCustomContext("compiler", "clang " __clang_version__);
#else
    benchmark::AddCustomContext("compiler", "g++ " __VERSION__);
#endif
#ifdef NDEBUG
    benchmark::AddCustomContext("build_type", "NDEBUG");
#else
    benchmark::AddCustomContext("build_type", "assertions on");
#endif
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
