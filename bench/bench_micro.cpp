// Google-benchmark micro suite for the substrate hot paths: H-graph
// maintenance, expander-cloud rebuilds, spectral solvers, BFS, the Xheal
// repair step itself, and the graph storage core.
//
// Run with `--graph-json PATH` to skip google-benchmark and instead emit a
// machine-readable JSON report (BENCH_graph.json) of graph-core ops/sec
// (add_edge, neighbor scan, for_each_edge) and preferential-attach
// picks/sec at n in {1e3, 1e5}, with the machine it ran on, so changes
// have a perf trajectory to compare against.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "adversary/adversary.hpp"
#include "baseline/baselines.hpp"
#include "core/xheal_healer.hpp"
#include "expander/hgraph.hpp"
#include "graph/algorithms.hpp"
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

void BM_Lambda2Dense(benchmark::State& state) {
    util::Rng rng(5);
    auto g = workload::make_random_regular(static_cast<std::size_t>(state.range(0)), 4, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(spectral::lambda2(g));
    }
}
BENCHMARK(BM_Lambda2Dense)->Arg(32)->Arg(128);

void BM_Lambda2Lanczos(benchmark::State& state) {
    util::Rng rng(6);
    auto g = workload::make_random_regular(static_cast<std::size_t>(state.range(0)), 4, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(spectral::lambda2(g));
    }
}
BENCHMARK(BM_Lambda2Lanczos)->Arg(512)->Arg(2048);

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

void BM_Lambda2SparseProbe(benchmark::State& state) {
    util::Rng rng(22);
    auto g = workload::make_hgraph_graph(static_cast<std::size_t>(state.range(0)), 3, rng);
    spectral::ProbeEngine engine;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.lambda2(g));
    }
}
BENCHMARK(BM_Lambda2SparseProbe)->Arg(4096)->Arg(65536);

void BM_SampledStretchProbe(benchmark::State& state) {
    util::Rng rng(23);
    auto g = workload::make_hgraph_graph(static_cast<std::size_t>(state.range(0)), 3, rng);
    spectral::ProbeEngine engine;
    util::Rng probe_rng(24);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.sampled_stretch(g, g, 8, probe_rng));
    }
}
BENCHMARK(BM_SampledStretchProbe)->Arg(4096)->Arg(65536);

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

void BM_XhealChurnStep(benchmark::State& state) {
    util::Rng rng(10);
    graph::Graph g =
        workload::make_random_regular(static_cast<std::size_t>(state.range(0)), 4, rng);
    core::XhealHealer healer(core::XhealConfig{2, 11});
    graph::NodeId next = static_cast<graph::NodeId>(g.node_count());
    for (auto _ : state) {
        // Delete a random node, then re-insert one attached to 3 survivors.
        auto view = g.nodes();
        std::vector<graph::NodeId> nodes(view.begin(), view.end());
        healer.on_delete(g, nodes[rng.index(nodes.size())]);
        auto sview = g.nodes();
        std::vector<graph::NodeId> survivors(sview.begin(), sview.end());
        g.add_node_with_id(next);
        for (int k = 0; k < 3; ++k)
            g.add_black_edge(next, survivors[rng.index(survivors.size())]);
        ++next;
    }
}
BENCHMARK(BM_XhealChurnStep)->Arg(128)->Arg(1024);

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

// ----- machine-readable graph-core report (BENCH_graph.json) -----

/// Run `body` until ~min_seconds of measured time accumulates; returns
/// ops/sec given ops per call.
template <typename F>
double measure_ops_per_sec(std::size_t ops_per_call, F&& body, double min_seconds = 0.25) {
    using clock = std::chrono::steady_clock;
    double elapsed = 0.0;
    std::size_t calls = 0;
    while (elapsed < min_seconds) {
        auto t0 = clock::now();
        body();
        auto t1 = clock::now();
        elapsed += std::chrono::duration<double>(t1 - t0).count();
        ++calls;
    }
    return static_cast<double>(calls) * static_cast<double>(ops_per_call) / elapsed;
}

struct GraphBenchRow {
    const char* op;
    std::size_t n;
    const char* impl;
    double ops_per_sec;
};

void run_graph_rows(std::size_t n, std::vector<GraphBenchRow>& rows) {
    const char* impl = "slot";
    auto edges = random_edge_list(n, 4 * n);
    rows.push_back({"add_edge", n, impl, measure_ops_per_sec(edges.size(), [&] {
                        auto g = build_graph(n, edges);
                        benchmark::DoNotOptimize(g.edge_count());
                    })});

    auto g = build_graph(n, edges);
    rows.push_back({"neighbor_scan", n, impl, measure_ops_per_sec(2 * g.edge_count(), [&] {
                        std::uint64_t checksum = 0;
                        for (graph::NodeId v : g.nodes())
                            for (graph::NodeId u : g.neighbors(v)) checksum += u;
                        benchmark::DoNotOptimize(checksum);
                    })});

    rows.push_back({"for_each_edge", n, impl, measure_ops_per_sec(g.edge_count(), [&] {
                        std::uint64_t blacks = 0;
                        g.for_each_edge(
                            [&](graph::NodeId, graph::NodeId, const graph::EdgeClaims& c) {
                                blacks += c.black ? 1 : 0;
                            });
                        benchmark::DoNotOptimize(blacks);
                    })});
}

/// Picks/sec of the preferential-attach sampler (adversary::PreferentialAttach,
/// k = 3 neighbors per pick) on a random 4-regular session.
void run_pref_attach_rows(std::size_t n, std::vector<GraphBenchRow>& rows) {
    util::Rng topo_rng(11);
    core::HealingSession session(workload::make_random_regular(n, 4, topo_rng),
                                 std::make_unique<baseline::NoHealHealer>());
    const std::size_t k = 3, picks_per_call = 50;

    rows.push_back({"pref_attach", n, "sampler",
                    measure_ops_per_sec(picks_per_call, [&] {
                        util::Rng rng(42);
                        adversary::PreferentialAttach attach(k);
                        for (std::size_t p = 0; p < picks_per_call; ++p) {
                            auto chosen = attach.pick_neighbors(session, rng);
                            benchmark::DoNotOptimize(chosen.size());
                        }
                    })});
}

/// "<cpu model>, <n> hardware threads, <compiler>, <build type>" for the
/// report header: ops/sec figures only compare on the same machine and build.
std::string machine_description() {
    std::string cpu = "unknown cpu";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);)
        if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
#ifdef __clang__
    const char* compiler = "clang " __clang_version__;
#else
    const char* compiler = "g++ " __VERSION__;
#endif
#ifdef NDEBUG
    const char* build = "NDEBUG";
#else
    const char* build = "assertions on";
#endif
    std::string out = cpu + ", " + std::to_string(std::thread::hardware_concurrency()) +
                      " hardware threads, " + compiler + ", " + build;
    std::erase_if(out, [](char c) { return c == '"' || c == '\\'; });
    return out;
}

int emit_graph_json(const std::string& path) {
    // Validate the output path before burning seconds of measurement.
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
    }

    std::vector<GraphBenchRow> rows;
    for (std::size_t n : {std::size_t{1000}, std::size_t{100000}}) {
        run_graph_rows(n, rows);
        run_pref_attach_rows(n, rows);
    }
    out << "{\n  \"schema\": \"xheal-bench-graph-v2\",\n"
        << "  \"note\": \"ops/sec of the slot-indexed graph core (impl 'slot') and "
           "picks/sec of the degree-proportional preferential-attach sampler "
           "(op 'pref_attach', impl 'sampler', k=3)\",\n"
        << "  \"machine\": \"" << machine_description() << "\",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        out << "    {\"op\": \"" << rows[i].op << "\", \"n\": " << rows[i].n
            << ", \"impl\": \"" << rows[i].impl << "\", \"ops_per_sec\": "
            << static_cast<std::uint64_t>(rows[i].ops_per_sec) << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
        std::cout << rows[i].op << " n=" << rows[i].n << " " << rows[i].impl << ": "
                  << static_cast<std::uint64_t>(rows[i].ops_per_sec) << " ops/sec\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << path << "\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--graph-json") == 0) {
            return emit_graph_json(i + 1 < argc ? argv[i + 1] : "BENCH_graph.json");
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
