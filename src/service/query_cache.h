// Process-wide compile-once query cache.
//
// The paper's pitch is that an MFT is a *compiled* artifact: translate the
// XQuery fragment once, then stream arbitrarily many documents through it.
// PR 2's Mft::dispatch() memoized rule compilation per transducer; this
// cache lifts that to the serving boundary — one process-wide map from
// query text to the immutable CompiledPlan, so a multi-query frontend
// compiles each distinct query exactly once however many requests, threads,
// or documents hit it.
//
// Three properties matter for a serving cache and are pinned by tests:
//
//   * Sharing is safe by type: the cache stores
//     shared_ptr<const CompiledPlan> — immutable after build, dispatch
//     pre-compiled — so handing one plan to N concurrent requests needs no
//     locking beyond the map itself, and an evicted plan stays alive until
//     its last in-flight run drops it.
//   * Singleflight: concurrent lookups of one not-yet-cached query compile
//     once; the losers wait for the winner's plan instead of burning CPU on
//     duplicate compiles (compile count == distinct queries under load).
//   * Keys are normalized: queries differing only in insignificant
//     whitespace (between expression tokens — never inside string literals
//     or element text content, where whitespace is data) share an entry,
//     and every plan-shaping option (optimize flags, SAX tokenization
//     options, step budget) is folded into the key so a cached plan can
//     never serve a request that compiled under different semantics.
#ifndef XQMFT_SERVICE_QUERY_CACHE_H_
#define XQMFT_SERVICE_QUERY_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/pipeline.h"
#include "util/status.h"

namespace xqmft {

struct QueryCacheOptions {
  /// Maximum resident plans; least-recently-used entries are evicted beyond
  /// it. 0 = unbounded.
  std::size_t capacity = 64;
  /// Approximate byte budget for resident plans (CompiledPlan::ApproxBytes
  /// plus key text); LRU eviction beyond it, but the most recent entry is
  /// never evicted (a cache that cannot hold one plan would disable
  /// compile-once entirely). 0 = unbounded.
  std::size_t max_bytes = 0;
};

/// The cache's statistics as X(type, name), in {"cmd":"stats"} order. This
/// one list generates QueryCacheStats and its wire rendering.
#define XQMFT_QUERY_CACHE_STATS(X)                                        \
  X(std::uint64_t, hits)      /* served an already-resident plan */       \
  X(std::uint64_t, misses)    /* compiled, or waited on a compile */      \
  X(std::uint64_t, compiles)  /* compiles executed (singleflight dedups) */ \
  X(std::uint64_t, failures)  /* compiles that returned an error */       \
  X(std::uint64_t, evictions) /* plans dropped by LRU/byte pressure */    \
  X(std::size_t, entries)     /* resident plans now */                    \
  X(std::size_t, bytes)       /* approx resident plan bytes now */        \
  X(double, compile_ms_total) /* wall time spent compiling */

struct QueryCacheStats {
#define XQMFT_DECLARE_STAT(type, name) type name = 0;
  XQMFT_QUERY_CACHE_STATS(XQMFT_DECLARE_STAT)
#undef XQMFT_DECLARE_STAT
};

/// \brief One lookup's outcome: the plan plus what serving it cost.
struct QueryCacheLookup {
  std::shared_ptr<const CompiledPlan> plan;
  bool hit = false;         ///< true: served without compiling or waiting
  double compile_ms = 0.0;  ///< compile wall time this lookup paid
};

/// \brief Thread-safe LRU cache of CompiledPlans keyed by normalized query
/// text + plan-shaping options, with singleflight compilation.
class QueryCache {
 public:
  explicit QueryCache(QueryCacheOptions options = {});

  /// The cached plan for (query_text, options), compiling it on miss.
  /// Thread-safe. Concurrent misses on one key compile once and share the
  /// result; a failed compile is reported to every waiter and not cached
  /// (the next lookup retries).
  Result<QueryCacheLookup> Lookup(const std::string& query_text,
                                  const PipelineOptions& options = {});

  /// Lookup() without the cost breakdown.
  Result<std::shared_ptr<const CompiledPlan>> Get(
      const std::string& query_text, const PipelineOptions& options = {});

  QueryCacheStats stats() const;

  /// Drops every resident plan (in-flight compiles finish and insert as
  /// usual). Counts the drops as evictions.
  void Clear();

  /// Collapses insignificant whitespace: runs of ASCII whitespace between
  /// expression tokens become one space and leading/trailing whitespace is
  /// dropped, while every context where whitespace is (or may be) content —
  /// string literals, raw text inside element constructors, tag markup —
  /// is preserved verbatim, so two queries normalizing equal really are
  /// the same program (`<out>a  b</out>` and `<out>a b</out>` stay
  /// distinct keys).
  static std::string NormalizeQuery(std::string_view text);

 private:
  struct Entry {
    std::shared_ptr<const CompiledPlan> plan;  ///< null while compiling
    std::size_t bytes = 0;
    /// Position in lru_ (valid once plan is set).
    std::list<std::string>::iterator lru;
  };

  static std::string MakeKey(std::string_view normalized,
                             const PipelineOptions& options);
  /// Evicts LRU entries beyond capacity/byte budget. Requires mu_ held.
  void EvictLocked();

  const QueryCacheOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< signaled when a compile finishes
  std::unordered_map<std::string, Entry> entries_;
  /// Ready entries only, most recent at front; compiling entries are not in
  /// the list and therefore cannot be evicted mid-flight.
  std::list<std::string> lru_;
  QueryCacheStats stats_;
  std::size_t resident_bytes_ = 0;
};

}  // namespace xqmft

#endif  // XQMFT_SERVICE_QUERY_CACHE_H_
