// Google-benchmark micro suite for the substrate hot paths: H-graph
// maintenance, expander-cloud rebuilds, spectral solvers, BFS, the Xheal
// repair step itself, and the graph storage core.
//
// Run with `--graph-json PATH` to skip google-benchmark and instead emit a
// machine-readable JSON report of graph-core ops/sec (add_edge, neighbor
// scan, for_each_edge at n in {1e3, 1e5}) for both the slot-indexed core
// and a replica of the old hash-of-hashes storage, so PRs have a perf
// trajectory to compare against.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>
#include <unordered_map>

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
// Graph storage core: slot-indexed flat adjacency vs the old hash-of-hashes.
// ---------------------------------------------------------------------------

/// Replica of the pre-refactor storage (unordered_map of unordered_map)
/// with the traversal patterns its hot paths actually used: sorted fresh
/// vectors for deterministic iteration.
class HashGraph {
public:
    void add_node() { adjacency_.emplace(next_id_++, Row{}); }

    void add_black_edge(graph::NodeId u, graph::NodeId v) {
        auto& row = adjacency_.at(u);
        auto it = row.find(v);
        if (it == row.end()) {
            row.emplace(v, graph::EdgeClaims{});
            adjacency_.at(v).emplace(u, graph::EdgeClaims{});
            ++edge_count_;
        }
        row.at(v).black = true;
        adjacency_.at(v).at(u).black = true;
    }

    std::vector<graph::NodeId> nodes_sorted() const {
        std::vector<graph::NodeId> out;
        out.reserve(adjacency_.size());
        for (const auto& [v, _] : adjacency_) out.push_back(v);
        std::sort(out.begin(), out.end());
        return out;
    }

    std::vector<graph::NodeId> neighbors_sorted(graph::NodeId v) const {
        std::vector<graph::NodeId> out;
        const auto& row = adjacency_.at(v);
        out.reserve(row.size());
        for (const auto& [u, _] : row) out.push_back(u);
        std::sort(out.begin(), out.end());
        return out;
    }

    const graph::EdgeClaims& claims(graph::NodeId u, graph::NodeId v) const {
        return adjacency_.at(u).at(v);
    }

    template <typename F>
    void for_each_edge(F&& f) const {
        for (graph::NodeId u : nodes_sorted()) {
            for (graph::NodeId v : neighbors_sorted(u)) {
                if (u < v) f(u, v, claims(u, v));
            }
        }
    }

    std::size_t edge_count() const { return edge_count_; }

private:
    using Row = std::unordered_map<graph::NodeId, graph::EdgeClaims>;
    std::unordered_map<graph::NodeId, Row> adjacency_;
    std::size_t edge_count_ = 0;
    graph::NodeId next_id_ = 0;
};

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

template <typename G>
G build_graph(std::size_t n,
              const std::vector<std::pair<graph::NodeId, graph::NodeId>>& edges) {
    G g;
    for (std::size_t i = 0; i < n; ++i) g.add_node();
    for (const auto& [u, v] : edges) g.add_black_edge(u, v);
    return g;
}

void BM_GraphAddEdge(benchmark::State& state) {
    std::size_t n = static_cast<std::size_t>(state.range(0));
    auto edges = random_edge_list(n, 4 * n);
    for (auto _ : state) {
        auto g = build_graph<graph::Graph>(n, edges);
        benchmark::DoNotOptimize(g.edge_count());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * edges.size()));
}
BENCHMARK(BM_GraphAddEdge)->Arg(1000)->Arg(100000);

void BM_GraphNeighborScan(benchmark::State& state) {
    std::size_t n = static_cast<std::size_t>(state.range(0));
    auto g = build_graph<graph::Graph>(n, random_edge_list(n, 4 * n));
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
    auto g = build_graph<graph::Graph>(n, random_edge_list(n, 4 * n));
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

template <typename G>
void run_graph_rows(const char* impl, std::size_t n, std::vector<GraphBenchRow>& rows) {
    auto edges = random_edge_list(n, 4 * n);
    rows.push_back({"add_edge", n, impl, measure_ops_per_sec(edges.size(), [&] {
                        auto g = build_graph<G>(n, edges);
                        benchmark::DoNotOptimize(g.edge_count());
                    })});

    auto g = build_graph<G>(n, edges);
    rows.push_back({"neighbor_scan", n, impl, measure_ops_per_sec(2 * g.edge_count(), [&] {
                        std::uint64_t checksum = 0;
                        if constexpr (std::is_same_v<G, graph::Graph>) {
                            for (graph::NodeId v : g.nodes())
                                for (graph::NodeId u : g.neighbors(v)) checksum += u;
                        } else {
                            // What the old hot paths did for deterministic
                            // iteration: materialize + sort per visit.
                            for (graph::NodeId v : g.nodes_sorted())
                                for (graph::NodeId u : g.neighbors_sorted(v)) checksum += u;
                        }
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

/// Before/after rows for the preferential-attach sampler: impl "scan"
/// replicates the old O(n)-per-pick prefix-sum walk; impl "sampler" is the
/// shipped rejection sampler (adversary::PreferentialAttach). Identical
/// (degree+1)-proportional distribution, wildly different cost growth.
void run_pref_attach_rows(std::size_t n, std::vector<GraphBenchRow>& rows) {
    util::Rng topo_rng(11);
    core::HealingSession session(workload::make_random_regular(n, 4, topo_rng),
                                 std::make_unique<baseline::NoHealHealer>());
    const std::size_t k = 3, picks_per_call = 50;

    rows.push_back({"pref_attach", n, "scan", measure_ops_per_sec(picks_per_call, [&] {
                        util::Rng rng(42);
                        const auto& g = session.current();
                        for (std::size_t p = 0; p < picks_per_call; ++p) {
                            std::vector<graph::NodeId> pool = session.alive_pool();
                            std::vector<graph::NodeId> chosen;
                            for (std::size_t round = 0; round < k && !pool.empty();
                                 ++round) {
                                double total = 0.0;
                                for (graph::NodeId v : pool)
                                    total += static_cast<double>(g.degree(v) + 1);
                                double target = rng.uniform01() * total;
                                std::size_t pick = pool.size() - 1;
                                double acc = 0.0;
                                for (std::size_t i = 0; i < pool.size(); ++i) {
                                    acc += static_cast<double>(g.degree(pool[i]) + 1);
                                    if (acc >= target) {
                                        pick = i;
                                        break;
                                    }
                                }
                                chosen.push_back(pool[pick]);
                                pool.erase(pool.begin() +
                                           static_cast<std::ptrdiff_t>(pick));
                            }
                            benchmark::DoNotOptimize(chosen.size());
                        }
                    })});

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

int emit_graph_json(const std::string& path) {
    // Validate the output path before burning seconds of measurement.
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
    }

    std::vector<GraphBenchRow> rows;
    for (std::size_t n : {std::size_t{1000}, std::size_t{100000}}) {
        run_graph_rows<graph::Graph>("slot", n, rows);
        run_graph_rows<HashGraph>("hash", n, rows);
        run_pref_attach_rows(n, rows);
    }
    out << "{\n  \"schema\": \"xheal-bench-graph-v1\",\n"
        << "  \"note\": \"ops/sec; impl 'hash' replicates the pre-refactor "
           "hash-of-hashes storage with its sorted-iteration call pattern; op "
           "'pref_attach' (picks/sec, k=3) compares the old O(n) prefix-sum "
           "pick ('scan') with the degree-proportional rejection sampler "
           "('sampler')\",\n"
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
