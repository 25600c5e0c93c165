// Network serving load bench (DESIGN.md §13): N client connections, each
// keeping a pipeline of K requests in flight against one epoll DocServer
// over loopback TCP, sweeping connections x pipelining depth. The decode
// cache is large and warmed so rows measure the network front end
// (framing, event loop, per-round request coalescing), not RLZ decode
// speed.
//
// Two request shapes, matching the two serving stories:
//  - snippet: GetRange of a 400-byte query-biased window (the paper's
//    snippet path). Tiny payloads make per-request overhead — syscalls,
//    loopback round trips, frame headers — the dominant cost, which is
//    exactly what pipelining and request coalescing amortize. These rows
//    form the sweep and the gate.
//  - bulk: MultiGet of a 4-document result page (~70 KB of payload).
//    Throughput here is memcpy/bandwidth-bound, so pipelining buys little
//    and deep pipelines mostly add queueing; the pair is recorded
//    ungated to document that boundary honestly.
//
// Reports wall-clock requests/s plus client-observed round-trip latency
// percentiles per row (at depth > 1 latency includes pipeline queueing,
// which is the point), the share of requests the server's loop answered
// from the decode cache, and the average size of the batches it
// submitted for the rest; writes machine-readable JSON (default
// BENCH_net.json).
//
// The smoke gate asserts the subsystem's reason to exist: at 4
// connections, snippet depth-16 requests/s must be at least
// kMinPipelineRatio x depth-1 (best of kGateRepeats runs each). The gate
// is wall-clock on every host — pipelining amortizes per-request
// overhead, not cores, so it holds on 1-vCPU runners.
//
// The --overload phase (DESIGN.md §14) measures the overload-protection
// story on a dedicated overload-tuned server (one worker, small queues,
// tight per-connection best-effort budget): a best-effort flood drives
// sustained shedding while paced high-priority traffic measures accepted
// latency. Two gates: shed responses fail fast (client-observed median
// under 1 ms — rejection must be cheaper than service), and accepted
// high-priority p99 stays within 2x the unsaturated p99 measured on the
// same server without the flood (overload must not leak into the classes
// admission protects).
//
//   ./build/bench/net_load_bench              full sweep
//   ./build/bench/net_load_bench --smoke      small corpus, gated subset
//         (run by the perf-smoke CI job; exit 1 on gate failure)
//   ./build/bench/net_load_bench --overload   add the overload phase +
//         its gates (exit 1 on failure; CI runs --smoke --overload)
//   ./build/bench/net_load_bench --out FILE   JSON destination

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "corpus/generator.h"
#include "net/doc_server.h"
#include "net/net_client.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace rlz {
namespace bench {
namespace {

// The perf-smoke CI gate: at 4 connections, snippet depth-16 must beat
// depth-1 by this factor on requests/s.
constexpr double kMinPipelineRatio = 1.3;
// Gated rows are measured this many times; the best run gates (absorbs
// scheduler noise on shared CI runners).
constexpr int kGateRepeats = 2;
// Snippet window length (the example's query-biased window).
constexpr size_t kSnippetBytes = 400;
// Documents per bulk MultiGet request (a search result page).
constexpr size_t kPageDocs = 4;
// Overload gates (DESIGN.md §14): a shed must come back faster than this
// (median, client-observed), and accepted high-priority p99 under the
// flood must stay within this factor of the unsaturated p99 (the basis
// has a floor so a too-lucky baseline cannot make the gate unmeetable:
// on a 1-vCPU runner the unsaturated p99 can land under 100 us while
// scheduler timeslicing alone adds ~0.5 ms tail spikes under any
// concurrent load, so sub-ms baselines are not resolvable beyond noise).
constexpr double kMaxShedP50Us = 1000.0;
constexpr double kMaxOverloadP99Ratio = 2.0;
constexpr double kOverloadBasisFloorUs = 500.0;

enum class Shape { kSnippet, kBulk };

struct NetLoadResult {
  double wall_rps = 0.0;  // requests (response frames) per second
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  uint64_t requests = 0;
  uint64_t payload_bytes = 0;
  uint64_t batches = 0;    // server-side coalescing window count (delta)
  uint64_t coalesced = 0;  // doc requests in those windows (delta)
  uint64_t loop_answered = 0;  // answered from the cache on the loop (delta)
};

// Touches every document once, so `service`'s decode cache holds them.
void WarmCache(DocService& service, size_t num_docs) {
  ServeBatch batch;
  std::vector<size_t> ids(num_docs);
  for (size_t i = 0; i < num_docs; ++i) ids[i] = i;
  service.SubmitBatch(ids, &batch);
  for (const GetResult& r : batch.Wait()) {
    RLZ_CHECK(r.ok()) << r.status.ToString();
  }
}

// Percentile (µs) over a vector of latencies in seconds (copies + sorts).
double PercentileUs(std::vector<double> latencies, double p) {
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  return 1e6 * latencies[std::min(latencies.size() - 1,
                                  static_cast<size_t>(p * latencies.size()))];
}

// The per-connection latency vectors as one.
std::vector<double> Merge(const std::vector<std::vector<double>>& per_conn) {
  std::vector<double> merged;
  for (const auto& lat : per_conn) {
    merged.insert(merged.end(), lat.begin(), lat.end());
  }
  return merged;
}

// One closed-loop row: `connections` client threads, each keeping `depth`
// requests in flight until it has received `requests_per_conn` responses.
// Latencies are per-response round trips measured at the client. The
// server (and its warm cache) is shared across rows; its coalescing and
// cache-answer counters are reported as deltas.
NetLoadResult RunRow(net::DocServer& server, const DocService& service,
                     size_t num_docs, Shape shape, int connections,
                     size_t depth, size_t requests_per_conn) {
  const net::NetServerStats before = server.stats();
  const uint64_t cached_before = service.Stats().cached;
  std::vector<std::vector<double>> latencies(connections);
  std::vector<uint64_t> bytes(connections, 0);
  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto client_or = net::NetClient::Connect(server.port());
      RLZ_CHECK(client_or.ok()) << client_or.status().ToString();
      auto client = std::move(client_or).value();
      Rng rng(0xbe7c0de + 31 * static_cast<uint64_t>(c));
      std::vector<uint64_t> ids(kPageDocs);
      std::vector<double> sent_at(depth);  // ring of in-flight send times
      Timer timer;
      size_t issued = 0;
      size_t received = 0;
      auto& lat = latencies[c];
      lat.reserve(requests_per_conn);
      const auto send_one = [&] {
        if (shape == Shape::kSnippet) {
          client->SendGetRange(rng.Uniform(num_docs), rng.Uniform(1024),
                               kSnippetBytes);
        } else {
          for (auto& id : ids) id = rng.Uniform(num_docs);
          client->SendMultiGet(ids);
        }
        sent_at[issued % depth] = timer.ElapsedSeconds();
        ++issued;
      };
      while (issued < depth && issued < requests_per_conn) send_one();
      while (received < requests_per_conn) {
        auto response = client->Receive();
        RLZ_CHECK(response.ok()) << response.status().ToString();
        RLZ_CHECK(response->ok()) << response->payload;
        if (shape == Shape::kSnippet) {
          RLZ_CHECK(response->payload.size() <= kSnippetBytes);
          bytes[c] += response->payload.size();
        } else {
          RLZ_CHECK(response->elements.size() == kPageDocs);
          for (const auto& elem : response->elements) {
            RLZ_CHECK(elem.code == net::WireCode::kOk);
            bytes[c] += elem.bytes.size();
          }
        }
        lat.push_back(timer.ElapsedSeconds() - sent_at[received % depth]);
        ++received;
        if (issued < requests_per_conn) send_one();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_seconds = wall.ElapsedSeconds();
  const net::NetServerStats after = server.stats();
  const uint64_t cached_after = service.Stats().cached;

  NetLoadResult result;
  const std::vector<double> merged = Merge(latencies);
  result.requests = merged.size();
  for (uint64_t b : bytes) result.payload_bytes += b;
  result.wall_rps = result.requests / wall_seconds;
  result.p50_us = PercentileUs(merged, 0.50);
  result.p99_us = PercentileUs(merged, 0.99);
  result.p999_us = PercentileUs(merged, 0.999);
  result.batches = after.batches - before.batches;
  result.coalesced = after.coalesced_requests - before.coalesced_requests;
  result.loop_answered = cached_after - cached_before;
  return result;
}

// Share of the row's requests the loop answered from the decode cache.
double LoopShare(const NetLoadResult& r) {
  return r.requests > 0 ? static_cast<double>(r.loop_answered) / r.requests
                        : 0.0;
}

// Prints one row and records it in `json`'s open rows array.
void Row(JsonWriter& json, const char* shape, int connections, size_t depth,
         const NetLoadResult& r) {
  // avg/bat averages over the submitted requests only; a row whose
  // requests were all answered on the loop submitted no batch.
  char avg[16] = "-";
  if (r.batches > 0) {
    std::snprintf(avg, sizeof(avg), "%.1f",
                  static_cast<double>(r.coalesced) / r.batches);
  }
  std::printf("%-8s %-12d %-8zu %10.0f %9.1f %9.1f %9.1f %8s %6.1f\n", shape,
              connections, depth, r.wall_rps, r.p50_us, r.p99_us, r.p999_us,
              avg, 100.0 * LoopShare(r));
  json.Object()
      .Str("shape", shape)
      .Int("connections", connections)
      .Int("depth", depth)
      .Int("requests", r.requests)
      .Num("wall_rps", r.wall_rps, 0)
      .Num("p50_us", r.p50_us, 1)
      .Num("p99_us", r.p99_us, 1)
      .Num("p999_us", r.p999_us, 1)
      .Int("payload_bytes", r.payload_bytes)
      .Int("batches", r.batches)
      .Int("coalesced", r.coalesced)
      .Int("loop_answered", r.loop_answered)
      .Num("loop_share", LoopShare(r), 3)
      .End();
}

// The overload phase's measured load: `connections` paced (depth-1)
// high-priority snippet clients, each running `requests_per_conn` round
// trips. Returns the merged client-observed latencies in seconds. Every
// response must be served — high priority is the class admission
// protects, so a shed here is a bench failure, not a data point.
std::vector<double> RunPacedHigh(uint16_t port, size_t num_docs,
                                 int connections,
                                 size_t requests_per_conn) {
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      net::NetClientOptions copts;
      copts.priority = RequestPriority::kHigh;
      auto client_or = net::NetClient::Connect(port, copts);
      RLZ_CHECK(client_or.ok()) << client_or.status().ToString();
      auto client = std::move(client_or).value();
      Rng rng(0x0f00d + 17 * static_cast<uint64_t>(c));
      Timer timer;
      auto& lat = latencies[c];
      lat.reserve(requests_per_conn);
      for (size_t i = 0; i < requests_per_conn; ++i) {
        const double t0 = timer.ElapsedSeconds();
        auto r = client->GetRange(rng.Uniform(num_docs), rng.Uniform(1024),
                                  kSnippetBytes);
        RLZ_CHECK(r.ok()) << "high-priority request failed under load: "
                          << r.status().ToString();
        lat.push_back(timer.ElapsedSeconds() - t0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return Merge(latencies);
}

// One best-effort flood connection: bursts of `depth` pipelined Get
// requests until `stop`. With depth > the server's per-connection
// best-effort budget, every burst sheds the excess at parse time —
// sustained overload by construction. Between bursts the client sleeps
// a short think time, modeling shed clients that honor backoff instead
// of busy-looping (NetClient's retry policy); without it, flood threads
// spinning on fast sheds would measure host CPU contention, not the
// server's overload behavior. Records client-observed round-trip
// latency of each shed (the fail-fast path the gate measures) and
// counts served vs shed responses.
void FloodBestEffort(uint16_t port, size_t num_docs, size_t depth,
                     const std::atomic<bool>* stop,
                     std::vector<double>* shed_latencies, uint64_t* served,
                     uint64_t* sheds) {
  net::NetClientOptions copts;
  copts.priority = RequestPriority::kBestEffort;
  auto client_or = net::NetClient::Connect(port, copts);
  RLZ_CHECK(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(client_or).value();
  Rng rng(0xf100d + 41 * static_cast<uint64_t>(port));
  Timer timer;
  std::vector<double> sent_at(depth);
  while (!stop->load(std::memory_order_relaxed)) {
    for (size_t i = 0; i < depth; ++i) {
      client->SendGet(rng.Uniform(num_docs));
      sent_at[i] = timer.ElapsedSeconds();
    }
    for (size_t i = 0; i < depth; ++i) {
      auto response = client->Receive();
      RLZ_CHECK(response.ok()) << response.status().ToString();
      const double rtt = timer.ElapsedSeconds() - sent_at[i];
      if (response->code == net::WireCode::kOk) {
        ++*served;
      } else {
        RLZ_CHECK(response->code == net::WireCode::kUnavailable)
            << "unexpected flood response code "
            << net::WireCodeToString(response->code);
        shed_latencies->push_back(rtt);
        ++*sheds;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// One overload run's numbers (best of kGateRepeats by accepted p99).
struct OverloadPhase {
  double unsat_p50_us = 0.0;
  double unsat_p99_us = 0.0;
  double accepted_p50_us = 0.0;
  double accepted_p99_us = 0.0;
  double shed_p50_us = 0.0;
  double shed_p99_us = 0.0;
  uint64_t unsat_requests = 0;
  uint64_t accepted = 0;
  uint64_t sheds = 0;
  uint64_t flood_served = 0;
};

// The overload phase (DESIGN.md §14): a dedicated overload-tuned server
// (one worker, small admission queue, best-effort budget of 4 per
// connection — overload must be reachable on any host) serving two
// loads at once: a 4-connection depth-16 best-effort flood that sheds
// by construction, and paced high-priority clients measuring accepted
// latency. The unsaturated baseline is the same paced load on the same
// server without the flood.
OverloadPhase RunOverload(ShardedStore* store, size_t num_docs,
                          bool smoke) {
  DocServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.queue_depth = 64;
  service_options.cache_bytes = 64u << 20;
  DocService service(store, service_options);
  net::DocServerOptions server_options;
  server_options.max_best_effort_per_conn = 4;
  net::DocServer server(&service, server_options);
  const Status started = server.Start();
  RLZ_CHECK(started.ok()) << started.ToString();
  // Warm this service's cache too: the phase measures admission and
  // shedding, not decode speed.
  WarmCache(service, num_docs);

  const int measured_conns = 2;
  const size_t measured_requests = smoke ? 1500 : 4000;
  const int flood_conns = 4;
  const size_t flood_depth = 16;

  const OverloadPhase best = BestOf(kGateRepeats, [&] {
    OverloadPhase r;
    std::vector<double> unsat =
        RunPacedHigh(server.port(), num_docs, measured_conns,
                     measured_requests);
    r.unsat_requests = unsat.size();
    r.unsat_p50_us = PercentileUs(unsat, 0.50);
    r.unsat_p99_us = PercentileUs(unsat, 0.99);

    std::atomic<bool> stop{false};
    std::vector<std::vector<double>> shed_latencies(flood_conns);
    std::vector<uint64_t> served(flood_conns, 0);
    std::vector<uint64_t> sheds(flood_conns, 0);
    std::vector<std::thread> flood;
    flood.reserve(flood_conns);
    for (int f = 0; f < flood_conns; ++f) {
      flood.emplace_back([&, f] {
        FloodBestEffort(server.port(), num_docs, flood_depth, &stop,
                        &shed_latencies[f], &served[f], &sheds[f]);
      });
    }
    // Let the flood saturate before measuring.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::vector<double> accepted =
        RunPacedHigh(server.port(), num_docs, measured_conns,
                     measured_requests);
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : flood) t.join();

    r.accepted = accepted.size();
    r.accepted_p50_us = PercentileUs(accepted, 0.50);
    r.accepted_p99_us = PercentileUs(accepted, 0.99);
    for (int f = 0; f < flood_conns; ++f) {
      r.sheds += sheds[f];
      r.flood_served += served[f];
    }
    RLZ_CHECK(r.sheds > 0) << "overload phase produced no sheds";
    const std::vector<double> shed = Merge(shed_latencies);
    r.shed_p50_us = PercentileUs(shed, 0.50);
    r.shed_p99_us = PercentileUs(shed, 0.99);
    return r;
  }, [](const OverloadPhase& a, const OverloadPhase& b) {
    return a.accepted_p99_us < b.accepted_p99_us;
  });
  server.Shutdown();
  service.Shutdown();
  return best;
}

int Run(bool smoke, bool overload, const std::string& out_path) {
  CorpusOptions corpus_options;
  corpus_options.target_bytes = smoke ? (4u << 20) : (8u << 20);
  corpus_options.seed = 20110613;
  const Corpus corpus = GenerateCorpus(corpus_options);
  const Collection& collection = corpus.collection;

  ShardedStoreOptions store_options;
  store_options.num_shards = 4;
  store_options.dict_bytes = collection.size_bytes() / 100;
  const auto store = ShardedStore::Build(collection, store_options);
  const size_t num_docs = collection.num_docs();

  // One service + server for every row: the decode cache holds the whole
  // collection after warmup, so rows measure the wire, not the decoder.
  DocServiceOptions service_options;
  service_options.num_threads = 4;
  service_options.cache_bytes = 64u << 20;
  DocService service(store.get(), service_options);
  net::DocServer server(&service);
  const Status started = server.Start();
  RLZ_CHECK(started.ok()) << started.ToString();

  // Correctness spot check before any timing: wire bytes == direct bytes.
  {
    auto client_or = net::NetClient::Connect(server.port());
    RLZ_CHECK(client_or.ok()) << client_or.status().ToString();
    auto client = std::move(client_or).value();
    Rng rng(7);
    for (int i = 0; i < 16; ++i) {
      const size_t id = rng.Uniform(num_docs);
      auto wire = client->Get(id);
      RLZ_CHECK(wire.ok()) << wire.status().ToString();
      const GetResult direct = service.Get(id).get();
      RLZ_CHECK(direct.ok()) << direct.status.ToString();
      RLZ_CHECK(*wire == *direct.text) << "wire/direct mismatch doc " << id;
    }
  }
  WarmCache(service, num_docs);

  const unsigned hw = std::thread::hardware_concurrency();
  const size_t snippet_requests = smoke ? 3000 : 10000;
  const size_t bulk_requests = smoke ? 400 : 1500;
  std::printf("net_load_bench (%s): %zu docs, %.1f MB, %s, hw=%u, "
              "snippet=%zu B, page=%zu docs\n",
              smoke ? "smoke" : "full", num_docs,
              collection.size_bytes() / (1024.0 * 1024.0),
              store->name().c_str(), hw, kSnippetBytes, kPageDocs);
  std::printf("%-8s %-12s %-8s %10s %9s %9s %9s %8s %6s\n", "shape",
              "connections", "depth", "req/s", "p50 us", "p99 us",
              "p999 us", "avg/bat", "loop%");

  JsonWriter json("net_load", smoke);
  json.Object("corpus")
      .Int("docs", num_docs)
      .Int("bytes", collection.size_bytes())
      .Int("seed", corpus_options.seed)
      .End();
  json.Str("store", store->name()).Host();
  json.Object("config")
      .Int("snippet_bytes", kSnippetBytes)
      .Int("page_docs", kPageDocs)
      .Int("snippet_requests_per_conn", snippet_requests)
      .Int("bulk_requests_per_conn", bulk_requests)
      .Bool("cache_warm", true)
      .End();
  json.Array("rows", JsonWriter::kLines);

  // The snippet sweep. The gated pair (4 connections, depth 1 vs 16) is
  // measured kGateRepeats times in smoke mode; the best run is recorded
  // and gates.
  const std::vector<int> conn_sweep = smoke ? std::vector<int>{1, 4}
                                            : std::vector<int>{1, 2, 4, 8};
  const std::vector<size_t> depth_sweep =
      smoke ? std::vector<size_t>{1, 16} : std::vector<size_t>{1, 4, 16};
  NetLoadResult gate_shallow, gate_deep;
  for (const int conns : conn_sweep) {
    for (const size_t depth : depth_sweep) {
      const bool gated = conns == 4 && (depth == 1 || depth == 16);
      const NetLoadResult best = BestOf(
          (smoke && gated) ? kGateRepeats : 1,
          [&] {
            return RunRow(server, service, num_docs, Shape::kSnippet, conns,
                          depth, snippet_requests);
          },
          [](const NetLoadResult& a, const NetLoadResult& b) {
            return a.wall_rps > b.wall_rps;
          });
      if (conns == 4 && depth == 1) gate_shallow = best;
      if (conns == 4 && depth == 16) gate_deep = best;
      Row(json, "snippet", conns, depth, best);
    }
  }
  // The bulk pair: bandwidth-bound result pages, recorded ungated.
  for (const size_t depth : {size_t{1}, size_t{16}}) {
    Row(json, "bulk", 4, depth,
        RunRow(server, service, num_docs, Shape::kBulk, 4, depth,
               bulk_requests));
  }
  json.End();

  const net::NetServerStats net_stats = server.stats();
  json.Object("server")
      .Int("connections_accepted", net_stats.connections_accepted)
      .Int("frames_received", net_stats.frames_received)
      .Int("bytes_sent", net_stats.bytes_sent)
      .Int("reads_paused", net_stats.reads_paused)
      .Int("protocol_errors", net_stats.protocol_errors)
      .End();

  Gates overload_gates(/*enforced=*/true);  // whenever the phase runs
  if (overload) {
    const OverloadPhase o = RunOverload(store.get(), num_docs, smoke);
    const double basis = std::max(o.unsat_p99_us, kOverloadBasisFloorUs);
    const double p99_ratio = o.accepted_p99_us / basis;
    std::printf(
        "overload: 4x16 best-effort flood (budget 4/conn) vs 2x depth-1 "
        "high\n"
        "  unsaturated  p50 %8.1f us  p99 %8.1f us  (%llu requests)\n"
        "  accepted     p50 %8.1f us  p99 %8.1f us  (%llu requests)\n"
        "  shed         p50 %8.1f us  p99 %8.1f us  (%llu sheds, %llu "
        "flood served)\n",
        o.unsat_p50_us, o.unsat_p99_us,
        static_cast<unsigned long long>(o.unsat_requests), o.accepted_p50_us,
        o.accepted_p99_us, static_cast<unsigned long long>(o.accepted),
        o.shed_p50_us, o.shed_p99_us,
        static_cast<unsigned long long>(o.sheds),
        static_cast<unsigned long long>(o.flood_served));
    const bool shed_pass =
        overload_gates.Check(o.shed_p50_us < kMaxShedP50Us,
                             "overload gate: shed p50 < %.0f us (%.1f us)",
                             kMaxShedP50Us, o.shed_p50_us);
    const bool p99_pass = overload_gates.Check(
        o.accepted_p99_us <= kMaxOverloadP99Ratio * basis,
        "overload gate: accepted p99 <= %.1fx basis %.1f us (%.2fx)",
        kMaxOverloadP99Ratio, basis, p99_ratio);
    json.Object("overload")
        .Num("unsat_p50_us", o.unsat_p50_us, 1)
        .Num("unsat_p99_us", o.unsat_p99_us, 1)
        .Int("unsat_requests", o.unsat_requests)
        .Num("accepted_p50_us", o.accepted_p50_us, 1)
        .Num("accepted_p99_us", o.accepted_p99_us, 1)
        .Int("accepted", o.accepted)
        .Num("shed_p50_us", o.shed_p50_us, 1)
        .Num("shed_p99_us", o.shed_p99_us, 1)
        .Int("sheds", o.sheds)
        .Int("flood_served", o.flood_served)
        .Num("max_shed_p50_us", kMaxShedP50Us, 0)
        .Num("max_p99_ratio", kMaxOverloadP99Ratio, 1)
        .Num("p99_basis_us", basis, 1)
        .Num("p99_ratio", p99_ratio, 2)
        .Bool("pass", shed_pass && p99_pass)
        .End();
  }

  const double ratio = gate_shallow.wall_rps > 0
                           ? gate_deep.wall_rps / gate_shallow.wall_rps
                           : 0.0;
  Gates gates(smoke);
  const bool gate_pass = gates.Check(
      ratio >= kMinPipelineRatio,
      "smoke gate (wall basis, snippet): 4-conn depth-16 >= %.2fx depth-1 "
      "(%.2fx)",
      kMinPipelineRatio, ratio);
  json.Object("gate")
      .Str("basis", "wall")
      .Str("shape", "snippet")
      .Num("min_pipeline_ratio", kMinPipelineRatio, 2)
      .Num("depth1_rps", gate_shallow.wall_rps, 0)
      .Num("depth16_rps", gate_deep.wall_rps, 0)
      .Num("ratio", ratio, 2)
      .Bool("pass", gate_pass)
      .End();
  json.Write(out_path);

  server.Shutdown();
  service.Shutdown();
  return std::max(gates.ExitCode(), overload_gates.ExitCode());
}

}  // namespace
}  // namespace bench
}  // namespace rlz

int main(int argc, char** argv) {
  bool smoke = false;
  bool overload = false;
  std::string out_path = "BENCH_net.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--overload] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  return rlz::bench::Run(smoke, overload, out_path);
}
