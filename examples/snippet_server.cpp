// Snippet-server scenario: the motivating application of the paper's
// introduction — a search engine that must fetch result documents from a
// compressed store to build query-biased snippets. This version runs the
// full serving stack (DESIGN.md §6) against a *reopened* store, the
// paper's disk-resident deployment, and — new in this revision — serves
// it over a real socket: the collection is partitioned into a
// ShardedStore of independent RLZ shards, saved to disk as a manifest
// plus shard containers (DESIGN.md §8), reopened serving-only
// (OpenOptions::build_suffix_array = false), wrapped in a DocService
// thread pool with an LRU decode cache, and exposed through the epoll
// DocServer front end (DESIGN.md §13). Result pages travel the
// length-prefixed wire protocol as MultiGets; snippet windows use the
// GetRange fast path; the closing stats report arrives via the Stat
// command.
//
//   ./build/examples/snippet_server [query terms...]
//       Self-terminating demo: build, serve on an ephemeral loopback
//       port, answer a few queries through a NetClient, print stats.
//   ./build/examples/snippet_server --serve [PORT]
//       Real server: build the store, listen on PORT (default:
//       ephemeral, printed), serve until stdin reaches EOF.
//   ./build/examples/snippet_server --client PORT [N [DEPTH]]
//       Load client for a --serve instance: N pipelined MultiGet
//       result-page fetches (pipelining depth DEPTH), then p50/p99.
//       Exits 1 unless the server's Stat then shows no failures and at
//       least 3 x N more serve.requests.

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "net/doc_server.h"
#include "net/net_client.h"
#include "search/inverted_index.h"
#include "search/query_log.h"
#include "search/tokenizer.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "util/timer.h"

namespace {

// Strips tags and squeezes whitespace for display.
std::string Plain(std::string_view html) {
  std::string out;
  bool in_tag = false;
  bool last_space = true;
  for (char c : html) {
    if (c == '<') in_tag = true;
    if (!in_tag) {
      const bool space = std::isspace(static_cast<unsigned char>(c));
      if (!space) {
        out.push_back(c);
        last_space = false;
      } else if (!last_space) {
        out.push_back(' ');
        last_space = true;
      }
    }
    if (c == '>') in_tag = false;
  }
  return out;
}

// Query-biased snippet: locate the term in the already-fetched document,
// then pull only a window around the hit over the wire through the
// service's GetRange path (a cache hit slices the resident copy; a miss
// decodes just the window's factors).
std::string MakeSnippet(rlz::net::NetClient& client, uint64_t doc_id,
                        std::string_view doc, const std::string& term) {
  std::string lower(doc);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  const size_t pos = lower.find(term);
  const size_t start = (pos == std::string::npos || pos < 150) ? 0 : pos - 150;
  rlz::StatusOr<std::string> window = client.GetRange(doc_id, start, 400);
  if (!window.ok()) return "";
  return "..." + Plain(*window).substr(0, 120) + "...";
}

// --client mode: closed-loop pipelined MultiGet load against a --serve
// instance on `port`. Result-page size is fixed at 3 docs (a search
// result page); latencies are client-observed round trips, so at depth
// > 1 they include pipeline queueing.
int RunClient(uint16_t port, size_t num_requests, size_t depth) {
  constexpr size_t kPageDocs = 3;
  auto client_or = rlz::net::NetClient::Connect(port);
  if (!client_or.ok()) {
    std::fprintf(stderr, "connect to 127.0.0.1:%u failed: %s\n", port,
                 client_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<rlz::net::NetClient> client = std::move(client_or).value();
  const auto stat = client->Stat();
  if (!stat.ok()) {
    std::fprintf(stderr, "stat failed: %s\n", stat.status().ToString().c_str());
    return 1;
  }
  const uint64_t num_docs = stat->U64("archive.docs");
  if (num_docs == 0) {
    std::fprintf(stderr, "server reports an empty archive\n");
    return 1;
  }
  std::printf("server holds %llu docs; issuing %zu MultiGets of %zu docs "
              "at pipeline depth %zu\n",
              static_cast<unsigned long long>(num_docs), num_requests,
              kPageDocs, depth);

  std::mt19937_64 rng(12345);
  std::vector<uint64_t> ids(kPageDocs);
  std::deque<double> sent_at;
  std::vector<double> latencies;
  latencies.reserve(num_requests);
  rlz::Timer timer;
  size_t issued = 0;
  uint64_t payload_bytes = 0;
  const auto send_one = [&] {
    for (auto& id : ids) id = rng() % num_docs;
    client->SendMultiGet(ids);
    sent_at.push_back(timer.ElapsedSeconds());
    ++issued;
  };
  while (issued < depth && issued < num_requests) send_one();
  while (latencies.size() < num_requests) {
    auto response = client->Receive();  // flushes queued sends first
    if (!response.ok()) {
      std::fprintf(stderr, "receive failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    if (!response->ok()) {
      std::fprintf(stderr, "server error: %s\n", response->payload.c_str());
      return 1;
    }
    for (const auto& elem : response->elements) {
      payload_bytes += elem.bytes.size();
    }
    latencies.push_back(timer.ElapsedSeconds() - sent_at.front());
    sent_at.pop_front();
    if (issued < num_requests) send_one();
  }
  const double elapsed = timer.ElapsedSeconds();
  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](double p) {
    return 1e6 * latencies[std::min(latencies.size() - 1,
                                    static_cast<size_t>(p * latencies.size()))];
  };
  std::printf("%zu pages (%zu docs, %.1f MB) in %.3f s: %.0f pages/s\n",
              num_requests, num_requests * kPageDocs,
              payload_bytes / (1024.0 * 1024.0), elapsed,
              num_requests / elapsed);
  std::printf("latency: p50 %.1f us, p99 %.1f us\n", pct(0.50), pct(0.99));

  // The server's own count must agree: every page's documents served,
  // none failed.
  const auto after = client->Stat();
  if (!after.ok()) {
    std::fprintf(stderr, "stat failed: %s\n",
                 after.status().ToString().c_str());
    return 1;
  }
  if (after->Find("serve.requests") == nullptr ||
      after->Find("serve.failures") == nullptr) {
    std::fprintf(stderr, "server Stat lacks serve.requests/failures\n");
    return 1;
  }
  const uint64_t served =
      after->U64("serve.requests") - stat->U64("serve.requests");
  const uint64_t failed = after->U64("serve.failures");
  std::printf("server counted %llu requests, %llu failed\n",
              static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(failed));
  if (failed != 0 || served < num_requests * kPageDocs) {
    std::fprintf(stderr, "server Stat disagrees with the load: want >= %zu "
                 "requests and 0 failures\n", num_requests * kPageDocs);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Mode dispatch: --client needs no corpus of its own.
  bool serve_mode = false;
  uint16_t requested_port = 0;
  std::vector<std::string> query_terms;
  if (argc > 1 && std::string(argv[1]) == "--client") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s --client PORT [N [DEPTH]]\n", argv[0]);
      return 1;
    }
    const uint16_t port = static_cast<uint16_t>(std::atoi(argv[2]));
    const size_t n = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2000;
    const size_t depth = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 16;
    return RunClient(port, std::max<size_t>(n, 1), std::max<size_t>(depth, 1));
  }
  if (argc > 1 && std::string(argv[1]) == "--serve") {
    serve_mode = true;
    if (argc > 2) requested_port = static_cast<uint16_t>(std::atoi(argv[2]));
  } else {
    for (int i = 1; i < argc; ++i) query_terms.push_back(argv[i]);
  }

  rlz::CorpusOptions corpus_options;
  corpus_options.target_bytes = 8 << 20;
  corpus_options.seed = 99;
  const rlz::Corpus corpus = rlz::GenerateCorpus(corpus_options);
  const rlz::Collection& collection = corpus.collection;

  std::printf("indexing %zu docs...\n", collection.num_docs());
  const rlz::InvertedIndex index = rlz::InvertedIndex::Build(collection);

  rlz::ShardedStoreOptions store_options;
  store_options.num_shards = 4;
  store_options.dict_bytes = collection.size_bytes() / 100;
  std::printf("compressing into %d rlz shards...\n", store_options.num_shards);
  const auto built = rlz::ShardedStore::Build(collection, store_options);
  std::printf("store %s: %.2f%% of %zu bytes\n", built->name().c_str(),
              100.0 * built->stored_bytes() / collection.size_bytes(),
              collection.size_bytes());

  // Persist and reopen: the restart path a production front-end takes.
  // The reopen is serving-only, so no shard rebuilds its suffix array.
  // Per-process directory (release and sanitizer smoke runs may execute
  // concurrently), removed on every exit path below.
  const std::filesystem::path store_dir =
      std::filesystem::temp_directory_path() /
      ("rlz_snippet_server." + std::to_string(::getpid()));
  std::filesystem::create_directories(store_dir);
  struct ScopedRemove {
    const std::filesystem::path& dir;
    ~ScopedRemove() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{store_dir};
  const std::string manifest = (store_dir / "store.sharded").string();
  if (const rlz::Status s = built->Save(manifest); !s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  rlz::OpenOptions open_options;
  open_options.build_suffix_array = false;
  rlz::Timer open_timer;
  auto reopened = rlz::ShardedStore::Open(manifest, open_options);
  if (!reopened.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  const auto store = std::move(reopened).value();
  std::printf("reopened %s from %s in %.1f ms (serving-only, no suffix "
              "arrays)\n",
              store->name().c_str(), manifest.c_str(),
              1e3 * open_timer.ElapsedSeconds());

  rlz::DocServiceOptions service_options;
  service_options.num_threads = 4;
  service_options.cache_bytes = 16 << 20;
  rlz::DocService service(store.get(), service_options);

  // The network front end: one epoll loop on a loopback socket that
  // coalesces requests into the service's batched submissions
  // (DESIGN.md §13).
  rlz::net::DocServerOptions server_options;
  server_options.port = requested_port;
  rlz::net::DocServer server(&service, server_options);
  if (const rlz::Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u\n", server.port());

  if (serve_mode) {
    std::printf("blocking until stdin EOF (pipe or Ctrl-D stops the "
                "server)...\n");
    std::fflush(stdout);
    while (std::fgetc(stdin) != EOF) {
    }
    server.Shutdown();
    service.Shutdown();
    const rlz::net::NetServerStats net = server.stats();
    std::printf("served %llu frames over %llu connections (%llu batches, "
                "%llu coalesced requests)\n",
                static_cast<unsigned long long>(net.frames_sent),
                static_cast<unsigned long long>(net.connections_accepted),
                static_cast<unsigned long long>(net.batches),
                static_cast<unsigned long long>(net.coalesced_requests));
    return 0;
  }

  // Demo mode: queries from argv, or sample a few from the collection
  // vocabulary, answered through a real client connection so every page
  // fetch crosses the wire.
  std::vector<std::vector<std::string>> queries;
  if (!query_terms.empty()) {
    queries.push_back(query_terms);
  } else {
    rlz::QueryLogOptions qopts;
    qopts.num_queries = 3;
    qopts.seed = 5;
    queries = rlz::GenerateQueries(index, qopts);
  }

  auto client_or = rlz::net::NetClient::Connect(server.port());
  if (!client_or.ok()) {
    std::fprintf(stderr, "loopback connect failed: %s\n",
                 client_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<rlz::net::NetClient> client = std::move(client_or).value();

  std::vector<uint64_t> ids;
  for (const auto& query : queries) {
    std::string qstr;
    for (const auto& t : query) qstr += t + " ";
    std::printf("\nquery: %s\n", qstr.c_str());
    const auto hits = index.Query(query, 3);
    // The whole result page crosses the wire as one MultiGet frame; the
    // server's loop coalesces it (with anything else parsed in the same
    // poll round) into a single ServeBatch submission.
    ids.clear();
    for (const auto& hit : hits) ids.push_back(hit.doc);
    auto page = client->MultiGet(ids);
    if (!page.ok()) {
      std::fprintf(stderr, "page fetch failed: %s\n",
                   page.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < hits.size(); ++i) {
      if ((*page)[i].code != rlz::net::WireCode::kOk) {
        std::fprintf(stderr, "retrieval failed: %s\n",
                     (*page)[i].bytes.c_str());
        return 1;
      }
      std::printf("  [%u] %s (score %.2f)\n      %s\n", hits[i].doc,
                  corpus.urls[hits[i].doc].c_str(), hits[i].score,
                  MakeSnippet(*client, hits[i].doc, (*page)[i].bytes,
                              query[0]).c_str());
    }
  }

  // The shutdown report arrives the way an operator's would: a Stat
  // frame over the connection, carrying service and network counters.
  const auto wire = client->Stat();
  if (!wire.ok()) {
    std::fprintf(stderr, "stat failed: %s\n", wire.status().ToString().c_str());
    return 1;
  }
  server.Shutdown();
  service.Shutdown();
  std::printf("\nshutdown report (Stat entries):\n");
  for (const rlz::net::StatEntry& e : wire->entries) {
    if (e.kind == rlz::net::StatKind::kF64) {
      std::printf("  %-32s %.6g\n", e.name.c_str(), e.f64);
    } else {
      std::printf("  %-32s %llu\n", e.name.c_str(),
                  static_cast<unsigned long long>(e.u64));
    }
  }
  return 0;
}
