// Tests for the serving layer (src/service/): the compile-once QueryCache
// (normalized keys, LRU + byte-budget eviction, singleflight under
// concurrency — the suite runs under the tsan preset), the QueryService
// request path over the parallel streaming machinery, the CompiledPlan
// artifact (immutability by construction, per-run memory accounting), and
// the JSON codec behind the serve frontend.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "service/json.h"
#include "service/query_cache.h"
#include "service/query_service.h"
#include "service/wire.h"
#include "xml/events.h"

namespace xqmft {
namespace {

// A family of distinct tiny queries: qN extracts <hN> hits from /doc/N.
std::string QueryFor(const std::string& label) {
  return "<out>{ for $x in $input/doc/" + label + " return <hit>{$x/text()}</hit> }</out>";
}

const char kDoc[] =
    "<doc><a>1</a><b>2</b><a>3</a><c>4</c><b>5</b><d>6</d></doc>";

// Ground truth through the one-query facade (compiled fresh, no cache).
std::string DirectOutput(const std::string& query, const std::string& xml,
                         const PipelineOptions& options = {}) {
  auto cq = CompiledPlan::Compile(query, options);
  EXPECT_TRUE(cq.ok()) << cq.status().ToString();
  StringSink sink;
  Status st = cq.value()->StreamString(xml, &sink);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return sink.str();
}

// One request as a batch of one over `inputs`: its status, and its stats in
// `stats`.
Status ExecuteOne(QueryService* service, const ServiceRequest& request,
                  const std::vector<ParallelInput>& inputs, OutputSink* sink,
                  ServiceRequestStats* stats = nullptr,
                  std::size_t threads = 1) {
  ServiceBatchStats batch;
  RunOptions options;
  options.threads = threads;
  Status st =
      service->ExecuteBatch(inputs, {request}, {sink}, &batch, options);
  if (batch.per_request.empty()) return st;
  if (stats != nullptr) *stats = batch.per_request.front();
  return batch.per_request.front().status;
}

std::string StreamPlan(const CompiledPlan& plan, const std::string& xml) {
  StringSink sink;
  Status st = plan.StreamString(xml, &sink);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return sink.str();
}

// ---------------------------------------------------------------------------
// QueryCache
// ---------------------------------------------------------------------------

TEST(QueryCacheTest, MissCompilesThenHitSharesThePlan) {
  QueryCache cache;
  auto cold = cache.Lookup(QueryFor("a"));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold.value().hit);
  EXPECT_GT(cold.value().compile_ms, 0.0);

  auto warm = cache.Lookup(QueryFor("a"));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().hit);
  EXPECT_EQ(warm.value().compile_ms, 0.0);
  EXPECT_EQ(warm.value().plan.get(), cold.value().plan.get());

  QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GT(stats.compile_ms_total, 0.0);

  EXPECT_EQ(StreamPlan(*cold.value().plan, kDoc),
            DirectOutput(QueryFor("a"), kDoc));
}

TEST(QueryCacheTest, InsignificantWhitespaceSharesAnEntry) {
  QueryCache cache;
  ASSERT_TRUE(cache.Lookup(QueryFor("a")).ok());
  // Same program, different insignificant whitespace — must hit.
  auto spaced = cache.Lookup(
      "  <out>{\n\tfor $x in $input/doc/a\n  return <hit>{$x/text()}</hit> "
      "}</out>\n");
  ASSERT_TRUE(spaced.ok());
  EXPECT_TRUE(spaced.value().hit);
  EXPECT_EQ(cache.stats().compiles, 1u);
}

TEST(QueryCacheTest, QuotedLiteralsAreNotConflated) {
  // Whitespace inside string literals is significant: these two programs
  // differ and must compile separately.
  std::string one =
      "<out>{ for $x in $input/doc/a[./text()=\"x y\"] return $x }</out>";
  std::string two =
      "<out>{ for $x in $input/doc/a[./text()=\"x  y\"] return $x }</out>";
  EXPECT_NE(QueryCache::NormalizeQuery(one), QueryCache::NormalizeQuery(two));
  QueryCache cache;
  ASSERT_TRUE(cache.Lookup(one).ok());
  auto second = cache.Lookup(two);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().hit);
  EXPECT_EQ(cache.stats().compiles, 2u);
}

TEST(QueryCacheTest, NormalizeQueryCollapsesOutsideQuotesOnly) {
  EXPECT_EQ(QueryCache::NormalizeQuery("  a   b  "), "a b");
  EXPECT_EQ(QueryCache::NormalizeQuery("a\n\t b"), "a b");
  EXPECT_EQ(QueryCache::NormalizeQuery("a \"x  y\" b"), "a \"x  y\" b");
  EXPECT_EQ(QueryCache::NormalizeQuery("a 'p  q' b"), "a 'p  q' b");
  EXPECT_EQ(QueryCache::NormalizeQuery(""), "");
  EXPECT_EQ(QueryCache::NormalizeQuery("   "), "");
}

TEST(QueryCacheTest, ElementTextContentIsNotConflated) {
  // Raw text inside an element constructor is data the query emits:
  // internal whitespace runs are significant there, so these are two
  // different programs and must not share a cache key — the second request
  // would be served the first program's plan and emit the wrong bytes.
  std::string one = "<out>a  b</out>";
  std::string two = "<out>a b</out>";
  EXPECT_NE(QueryCache::NormalizeQuery(one), QueryCache::NormalizeQuery(two));
  QueryCache cache;
  auto first = cache.Lookup(one);
  auto second = cache.Lookup(two);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().hit);
  EXPECT_NE(first.value().plan.get(), second.value().plan.get());
  EXPECT_EQ(StreamPlan(*first.value().plan, "<x/>"),
            DirectOutput(one, "<x/>"));
  EXPECT_EQ(StreamPlan(*second.value().plan, "<x/>"),
            DirectOutput(two, "<x/>"));

  // But reformatting *between* expression tokens still hits, even inside
  // an embedded clause nested in element content.
  std::string c = "<out>k{ $input/doc }m</out>";
  std::string d = "<out>k{\n   $input/doc\n}m</out>";
  EXPECT_EQ(QueryCache::NormalizeQuery(c), QueryCache::NormalizeQuery(d));
  // Whitespace differences in the *text* parts stay distinct.
  std::string e = "<out>k  {$input/doc}m</out>";
  EXPECT_NE(QueryCache::NormalizeQuery(c), QueryCache::NormalizeQuery(e));
}

TEST(QueryCacheTest, PlanShapingOptionsArePartOfTheKey) {
  QueryCache cache;
  PipelineOptions opt;
  PipelineOptions no_opt;
  no_opt.optimize = false;
  auto a = cache.Lookup(QueryFor("a"), opt);
  auto b = cache.Lookup(QueryFor("a"), no_opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().plan.get(), b.value().plan.get());
  EXPECT_EQ(cache.stats().compiles, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(QueryCacheTest, FailedCompileIsReportedAndNotCached) {
  QueryCache cache;
  auto bad = cache.Lookup("<out>");
  EXPECT_FALSE(bad.ok());
  QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.entries, 0u);
  // The error is not cached: the next lookup retries (and fails again).
  EXPECT_FALSE(cache.Lookup("<out>").ok());
  EXPECT_EQ(cache.stats().compiles, 2u);
}

TEST(QueryCacheTest, LruEvictionDropsTheColdestEntry) {
  QueryCacheOptions options;
  options.capacity = 2;
  QueryCache cache(options);
  ASSERT_TRUE(cache.Lookup(QueryFor("a")).ok());
  ASSERT_TRUE(cache.Lookup(QueryFor("b")).ok());
  // Touch "a" so "b" is the LRU victim.
  ASSERT_TRUE(cache.Lookup(QueryFor("a")).ok());
  ASSERT_TRUE(cache.Lookup(QueryFor("c")).ok());
  QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // "a" survived (hit), "b" was evicted (recompiles).
  EXPECT_TRUE(cache.Lookup(QueryFor("a")).value().hit);
  EXPECT_FALSE(cache.Lookup(QueryFor("b")).value().hit);
}

TEST(QueryCacheTest, CapacityOneThrashStaysCorrect) {
  QueryCacheOptions options;
  options.capacity = 1;
  QueryCache cache(options);
  const std::string want_a = DirectOutput(QueryFor("a"), kDoc);
  const std::string want_b = DirectOutput(QueryFor("b"), kDoc);
  for (int round = 0; round < 3; ++round) {
    auto a = cache.Lookup(QueryFor("a"));
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(StreamPlan(*a.value().plan, kDoc), want_a);
    auto b = cache.Lookup(QueryFor("b"));
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(StreamPlan(*b.value().plan, kDoc), want_b);
  }
  QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.compiles, 6u);  // every alternation recompiles
  EXPECT_EQ(stats.evictions, 5u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(QueryCacheTest, ByteBudgetEvictsButKeepsTheNewestPlan) {
  QueryCacheOptions options;
  options.max_bytes = 1;  // tighter than any single plan
  QueryCache cache(options);
  ASSERT_TRUE(cache.Lookup(QueryFor("a")).ok());
  ASSERT_TRUE(cache.Lookup(QueryFor("b")).ok());
  QueryCacheStats stats = cache.stats();
  // The newest plan always stays resident, everything older goes.
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_TRUE(cache.Lookup(QueryFor("b")).value().hit);
}

TEST(QueryCacheTest, ClearDropsEverything) {
  QueryCache cache;
  ASSERT_TRUE(cache.Lookup(QueryFor("a")).ok());
  ASSERT_TRUE(cache.Lookup(QueryFor("b")).ok());
  cache.Clear();
  QueryCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_FALSE(cache.Lookup(QueryFor("a")).value().hit);
}

// ---------------------------------------------------------------------------
// QueryCache under concurrency (exercised by the tsan preset)
// ---------------------------------------------------------------------------

TEST(QueryCacheConcurrencyTest, SingleflightCompilesEachQueryOnce) {
  constexpr int kThreads = 8;
  constexpr int kQueries = 4;
  constexpr int kRounds = 5;
  QueryCache cache;
  std::vector<std::string> queries;
  std::vector<std::string> want;
  for (int q = 0; q < kQueries; ++q) {
    queries.push_back(QueryFor(std::string(1, static_cast<char>('a' + q))));
    want.push_back(DirectOutput(queries.back(), kDoc));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (int q = 0; q < kQueries; ++q) {
          // Different threads start at different queries so every key sees
          // genuinely concurrent first lookups.
          int pick = (q + t) % kQueries;
          auto lookup = cache.Lookup(queries[static_cast<std::size_t>(pick)]);
          if (!lookup.ok()) {
            ++mismatches;
            continue;
          }
          StringSink sink;
          Status st = lookup.value().plan->StreamString(kDoc, &sink);
          if (!st.ok() ||
              sink.str() != want[static_cast<std::size_t>(pick)]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  QueryCacheStats stats = cache.stats();
  // Singleflight pinned: however many threads raced, each distinct query
  // compiled exactly once.
  EXPECT_EQ(stats.compiles, static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(stats.entries, static_cast<std::size_t>(kQueries));
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kQueries * kRounds));
}

TEST(QueryCacheConcurrencyTest, EvictionUnderLoadStaysConsistent) {
  constexpr int kThreads = 8;
  constexpr int kQueries = 6;
  constexpr int kRounds = 4;
  QueryCacheOptions options;
  options.capacity = 2;  // far fewer slots than live queries: heavy churn
  QueryCache cache(options);
  std::vector<std::string> queries;
  std::vector<std::string> want;
  for (int q = 0; q < kQueries; ++q) {
    queries.push_back(QueryFor(std::string(1, static_cast<char>('a' + q))));
    want.push_back(DirectOutput(queries.back(), kDoc));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (int q = 0; q < kQueries; ++q) {
          int pick = (q * (t + 1) + r) % kQueries;
          auto lookup = cache.Lookup(queries[static_cast<std::size_t>(pick)]);
          if (!lookup.ok()) {
            ++mismatches;
            continue;
          }
          // An evicted plan stays usable while anyone holds it.
          StringSink sink;
          Status st = lookup.value().plan->StreamString(kDoc, &sink);
          if (!st.ok() ||
              sink.str() != want[static_cast<std::size_t>(pick)]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  QueryCacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, 2u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kQueries * kRounds));
}

TEST(QueryCacheConcurrencyTest, CapacityOneThrashUnderLoad) {
  constexpr int kThreads = 6;
  constexpr int kRounds = 10;
  QueryCacheOptions options;
  options.capacity = 1;  // worst case: every other lookup evicts
  QueryCache cache(options);
  const std::string qa = QueryFor("a");
  const std::string qb = QueryFor("b");
  const std::string want_a = DirectOutput(qa, kDoc);
  const std::string want_b = DirectOutput(qb, kDoc);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        bool use_a = (r + t) % 2 == 0;
        auto lookup = cache.Lookup(use_a ? qa : qb);
        if (!lookup.ok()) {
          ++mismatches;
          continue;
        }
        StringSink sink;
        Status st = lookup.value().plan->StreamString(kDoc, &sink);
        if (!st.ok() || sink.str() != (use_a ? want_a : want_b)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ---------------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, ExecutesAndReportsCompileOnceStats) {
  QueryService service;
  ServiceRequest request;
  request.query = QueryFor("a");
  const std::vector<ParallelInput> inputs{ParallelInput::XmlText(kDoc)};

  StringSink first;
  ServiceRequestStats stats;
  ASSERT_TRUE(ExecuteOne(&service, request, inputs, &first, &stats).ok());
  EXPECT_EQ(first.str(), DirectOutput(QueryFor("a"), kDoc));
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_GT(stats.compile_ms, 0.0);
  EXPECT_GE(stats.stream_ms, 0.0);
  ASSERT_EQ(stats.per_input.size(), 1u);
  EXPECT_GT(stats.total.bytes_in, 0u);
  EXPECT_GT(stats.total.output_events, 0u);

  StringSink second;
  ASSERT_TRUE(ExecuteOne(&service, request, inputs, &second, &stats).ok());
  EXPECT_EQ(second.str(), first.str());
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_EQ(stats.compile_ms, 0.0);
}

TEST(QueryServiceTest, BatchOutputMatchesSerialAtAnyThreadCount) {
  QueryService service;
  std::vector<std::string> docs = {
      "<doc><a>1</a></doc>",
      "<doc><b>skip</b><a>2</a></doc>",
      "<doc/>",
      "<doc><a>3</a><a>4</a></doc>",
  };
  std::string want;
  for (const std::string& doc : docs) want += DirectOutput(QueryFor("a"), doc);

  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    ServiceRequest request;
    request.query = QueryFor("a");
    std::vector<ParallelInput> inputs;
    for (const std::string& doc : docs) {
      inputs.push_back(ParallelInput::XmlText(doc));
    }
    StringSink sink;
    ServiceRequestStats stats;
    ASSERT_TRUE(
        ExecuteOne(&service, request, inputs, &sink, &stats, threads).ok());
    EXPECT_EQ(sink.str(), want) << "threads=" << threads;
    EXPECT_EQ(stats.per_input.size(), docs.size());
  }
}

TEST(QueryServiceTest, ExecuteBatchMatchesSerialAndParsesEachDocumentOnce) {
  QueryService service;
  // Four requests over one shared document: two distinct queries, one
  // duplicate (different whitespace, same normalized key), one more
  // distinct. Serial ground truth comes from each request alone.
  std::vector<ServiceRequest> requests(4);
  requests[0].query = QueryFor("a");
  requests[1].query = QueryFor("b");
  requests[2].query = "  " + QueryFor("a") + "  ";  // dedups onto [0]'s plan
  requests[3].query = QueryFor("c");
  const std::vector<ParallelInput> inputs{ParallelInput::XmlText(kDoc)};

  std::vector<std::string> want;
  for (const ServiceRequest& r : requests) {
    QueryService fresh;
    StringSink sink;
    ASSERT_TRUE(ExecuteOne(&fresh, r, inputs, &sink).ok());
    want.push_back(sink.str());
  }

  std::vector<StringSink> sinks(requests.size());
  std::vector<OutputSink*> sink_ptrs;
  for (StringSink& s : sinks) sink_ptrs.push_back(&s);
  ServiceBatchStats stats;
  ASSERT_TRUE(service.ExecuteBatch(inputs, requests, sink_ptrs, &stats).ok());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(stats.per_request[i].status.ok());
    EXPECT_EQ(sinks[i].str(), want[i]) << "request " << i;
  }
  // The single-parse attribution: one document, tokenized once, however
  // many requests read it.
  EXPECT_EQ(stats.documents, 1u);
  EXPECT_EQ(stats.parsed_bytes, std::string(kDoc).size());
  EXPECT_EQ(stats.unique_plans, 3u);
  EXPECT_EQ(stats.deduped_requests, 1u);
  EXPECT_TRUE(stats.per_request[2].deduped);
  EXPECT_TRUE(stats.per_request[2].cache_hit);
  EXPECT_FALSE(stats.per_request[0].deduped);
}

TEST(QueryServiceTest, ExecuteBatchIsolatesFailures) {
  QueryService service;
  std::vector<ServiceRequest> requests(3);
  requests[0].query = QueryFor("a");
  requests[1].query = "<<< not a query";
  requests[2].query = QueryFor("b");
  const std::vector<ParallelInput> inputs{ParallelInput::XmlText(kDoc)};
  std::vector<StringSink> sinks(3);
  std::vector<OutputSink*> sink_ptrs{&sinks[0], &sinks[1], &sinks[2]};
  ServiceBatchStats stats;
  // One bad query does not fail the batch when the caller can see
  // per-request statuses.
  ASSERT_TRUE(service.ExecuteBatch(inputs, requests, sink_ptrs, &stats).ok());
  EXPECT_TRUE(stats.per_request[0].status.ok());
  EXPECT_FALSE(stats.per_request[1].status.ok());
  EXPECT_TRUE(stats.per_request[2].status.ok());
  EXPECT_EQ(sinks[0].str(), DirectOutput(QueryFor("a"), kDoc));
  EXPECT_TRUE(sinks[1].str().empty());
  EXPECT_EQ(sinks[2].str(), DirectOutput(QueryFor("b"), kDoc));

  // Without a stats out-param the first failure surfaces as the return.
  std::vector<StringSink> sinks2(3);
  std::vector<OutputSink*> sink_ptrs2{&sinks2[0], &sinks2[1], &sinks2[2]};
  EXPECT_FALSE(service.ExecuteBatch(inputs, requests, sink_ptrs2).ok());

  // Batch-level misuse is always an error.
  EXPECT_FALSE(service.ExecuteBatch(inputs, {}, {}).ok());
  EXPECT_FALSE(service.ExecuteBatch(inputs, requests, {&sinks[0]}).ok());
}

TEST(QueryServiceTest, RejectsEmptyRequestsAndBadQueries) {
  QueryService service;
  ServiceRequest request;
  request.query = QueryFor("a");
  StringSink sink;
  EXPECT_FALSE(ExecuteOne(&service, request, {}, &sink).ok());  // no documents

  const std::vector<ParallelInput> inputs{ParallelInput::XmlText(kDoc)};
  ServiceRequest bad;
  bad.query = "<out>";
  EXPECT_FALSE(ExecuteOne(&service, bad, inputs, &sink).ok());
  // The failure is not cached; a correct retry compiles cleanly.
  bad.query = QueryFor("a");
  EXPECT_TRUE(ExecuteOne(&service, bad, inputs, &sink).ok());
}

TEST(QueryServiceTest, NoOptRequestsUseASeparatePlan) {
  QueryService service;
  ServiceRequest request;
  request.query = QueryFor("a");
  const std::vector<ParallelInput> inputs{ParallelInput::XmlText(kDoc)};

  StringSink opt_sink;
  ASSERT_TRUE(ExecuteOne(&service, request, inputs, &opt_sink).ok());
  request.no_opt = true;
  StringSink no_opt_sink;
  ASSERT_TRUE(ExecuteOne(&service, request, inputs, &no_opt_sink).ok());
  // Same semantics, distinct cached plans.
  EXPECT_EQ(opt_sink.str(), no_opt_sink.str());
  EXPECT_EQ(service.cache()->stats().entries, 2u);
}

TEST(QueryServiceTest, BaseNoOptConfigurationIsNotOverridden) {
  // A service configured unoptimized (serve --no-opt) must stay
  // unoptimized for requests that do not set no_opt themselves.
  PipelineOptions base;
  base.optimize = false;
  QueryService service({}, base);
  ServiceRequest request;
  request.query = QueryFor("a");
  StringSink sink;
  ASSERT_TRUE(
      ExecuteOne(&service, request, {ParallelInput::XmlText(kDoc)}, &sink)
          .ok());
  // An unoptimized plan keeps the translation's helper states; the
  // optimized plan of the same query is strictly smaller.
  auto unopt = service.cache()->Get(request.query, base);
  ASSERT_TRUE(unopt.ok());
  auto opt = CompiledPlan::Compile(request.query);
  ASSERT_TRUE(opt.ok());
  EXPECT_GT(unopt.value()->mft().Size(), opt.value()->mft().Size());
  // And the served plan really was the cached unoptimized one (hit).
  EXPECT_EQ(service.cache()->stats().compiles, 1u);
}

// ---------------------------------------------------------------------------
// Wire counts
// ---------------------------------------------------------------------------

TEST(WireCountTest, HugeCountsRunAndCountsAbove2To53AreRejected) {
  // A 40 KB inline document. A deadline of 9e15 ms overflows
  // steady_clock's nanoseconds unless the deadline saturates; 1e300 fits no
  // integer type a count is cast to.
  const std::string doc =
      "<doc><a>" + std::string(40000, 'x') + "</a><b>y</b></doc>";
  const std::string want = DirectOutput(QueryFor("a"), doc);
  QueryService service;
  RequestHandler handler(&service, WireOptions{});
  auto handle = [&](const char* field, const char* value) {
    const std::string line = "{\"id\":1,\"query\":\"" + QueryFor("a") +
                             "\",\"xml\":[\"" + doc + "\"],\"" + field +
                             "\":" + value + "}";
    std::string out;
    handler.HandleLine(line, nullptr, &out);
    return out;
  };
  for (const char* field : {"deadline_ms", "threads"}) {
    const std::string ok = handle(field, "9e15");
    EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << field;
    EXPECT_NE(ok.find("\n" + want + "\n"), std::string::npos) << field;

    const std::string huge = handle(field, "1e300");
    EXPECT_NE(huge.find("\"ok\":false"), std::string::npos) << field;
    EXPECT_NE(huge.find("must be at most 2^53"), std::string::npos) << huge;
    EXPECT_NE(huge.find("\"status\":\"invalid_argument\""),
              std::string::npos)
        << huge;
  }
}

// ---------------------------------------------------------------------------
// CompiledPlan
// ---------------------------------------------------------------------------

TEST(CompiledPlanTest, FromMftServesParallelRunsWithoutManualWarm) {
  // A hand-written relabeling transducer wrapped as a plan: the parallel
  // entry point needs no warm-before-fanout call because the plan type
  // guarantees a compiled dispatch.
  auto mft = ParseMft("q(%t(x1)x2) -> %t(q(x1)) q(x2)\nq(eps) -> eps\n");
  ASSERT_TRUE(mft.ok()) << mft.status().ToString();
  auto plan = CompiledPlan::FromMft(std::move(mft).value());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan.value()->has_query());

  std::vector<ParallelInput> inputs = {
      ParallelInput::XmlText("<r><a>x</a></r>"),
      ParallelInput::XmlText("<r><b>y</b></r>"),
  };
  RunOptions par;
  par.threads = 2;
  StringSink sink;
  ASSERT_TRUE(xqmft::Run({plan.value().get()}, inputs, {&sink}, par).ok());
  EXPECT_EQ(sink.str(), "<r><a>x</a></r><r><b>y</b></r>");
}

TEST(CompiledPlanTest, RejectsPerRunValidatorState) {
  PipelineOptions options;
  SchemaValidator* bogus = reinterpret_cast<SchemaValidator*>(0x1);
  options.stream.validator = bogus;
  EXPECT_FALSE(CompiledPlan::Compile(QueryFor("a"), options).ok());
}

TEST(CompiledPlanTest, PeakMemoryIsPerRunNotCumulative) {
  // Pin the table machine: the ops engine streams this query at a flat,
  // document-independent peak, which would make the two peaks equal and
  // prove nothing about per-run accounting.
  PipelineOptions options;
  options.stream.engine = EngineChoice::kTable;
  auto plan = CompiledPlan::Compile("<out>{ $input//a }</out>", options);
  ASSERT_TRUE(plan.ok());
  const std::string tiny = "<doc><a>x</a></doc>";
  StreamStats fresh_stats;
  StringSink s0;
  ASSERT_TRUE(plan.value()->StreamString(tiny, &s0, &fresh_stats).ok());
  // A big document, then a tiny one: the tiny run's peak must reflect the
  // tiny run alone, not the big run's high-water mark.
  std::string big = "<doc>";
  for (int i = 0; i < 500; ++i) big += "<a>payload-payload</a>";
  big += "</doc>";
  StreamStats big_stats;
  StringSink s1;
  ASSERT_TRUE(plan.value()->StreamString(big, &s1, &big_stats).ok());
  StreamStats tiny_stats;
  StringSink s2;
  ASSERT_TRUE(plan.value()->StreamString(tiny, &s2, &tiny_stats).ok());
  EXPECT_LT(tiny_stats.peak_bytes, big_stats.peak_bytes);
  EXPECT_EQ(tiny_stats.peak_bytes, fresh_stats.peak_bytes);
  EXPECT_EQ(s2.str(), s0.str());
}

// ---------------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------------

TEST(JsonTest, ParsesRequestsAndEchoesStrings) {
  auto parsed = ParseJson(
      "{\"query\": \"<out>{$input//a}</out>\", \"inputs\": [\"a.xml\"], "
      "\"threads\": 2, \"no_opt\": false, \"id\": null}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.Find("query"), nullptr);
  EXPECT_EQ(v.Find("query")->string, "<out>{$input//a}</out>");
  ASSERT_TRUE(v.Find("inputs")->is_array());
  EXPECT_EQ(v.Find("inputs")->items[0].string, "a.xml");
  EXPECT_EQ(v.Find("threads")->number, 2.0);
  EXPECT_FALSE(v.Find("no_opt")->boolean);
  EXPECT_TRUE(v.Find("id")->is_null());
  EXPECT_EQ(v.Find("absent"), nullptr);
}

TEST(JsonTest, DecodesEscapes) {
  auto parsed = ParseJson("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().string, "a\"b\\c\n\tA\xC3\xA9");
  // Surrogate pair: U+1F600.
  auto emoji = ParseJson("\"\\uD83D\\uDE00\"");
  ASSERT_TRUE(emoji.ok());
  EXPECT_EQ(emoji.value().string, "\xF0\x9F\x98\x80");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("\"bad \\q escape\"").ok());
  EXPECT_FALSE(ParseJson("\"unpaired \\uD83D\"").ok());
  EXPECT_FALSE(ParseJson("12 34").ok());   // trailing garbage
  EXPECT_FALSE(ParseJson("not json").ok());
  // Nesting past the depth cap fails cleanly instead of overflowing.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonTest, EscapesStringsForResponses) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
}

}  // namespace
}  // namespace xqmft
