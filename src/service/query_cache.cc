#include "service/query_cache.h"

#include <chrono>

namespace xqmft {

namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

QueryCache::QueryCache(QueryCacheOptions options) : options_(options) {}

namespace {

bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

}  // namespace

std::string QueryCache::NormalizeQuery(std::string_view text) {
  // Whitespace is insignificant only between expression tokens. Inside an
  // element constructor's content, runs of whitespace are raw text the
  // query emits (`<out>a  b</out>` != `<out>a b</out>`), so collapsing
  // there would hand two different programs one cache key and serve the
  // wrong plan. A small mode stack mirrors the grammar's contexts:
  //
  //   kExpr — expression tokens: collapse whitespace runs to one space,
  //           string literals copied verbatim. `{` pushes kExpr, `<name`
  //           opens a constructor, `<` anywhere else copies verbatim.
  //   kText — element content: everything verbatim. `{` pushes kExpr
  //           (embedded clause), `</...>` pops, `<name` nests.
  //
  // Tags themselves (`<name ...>`) are copied verbatim; a self-closing
  // `/>` does not enter kText. The machine only collapses where whitespace
  // is certainly insignificant — anywhere uncertain it copies, which can
  // cost a cache hit but never a wrong plan.
  enum class Mode : unsigned char { kExpr, kText };
  std::vector<Mode> stack = {Mode::kExpr};
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  bool pending_space = false;

  auto copy_tag = [&](bool* opened) {
    // From '<' through '>': verbatim. Reports whether it opened content
    // (an opening, non-self-closing tag).
    bool closing = i + 1 < text.size() && text[i + 1] == '/';
    char prev = '\0';
    while (i < text.size()) {
      char c = text[i++];
      out.push_back(c);
      if (c == '>') {
        *opened = !closing && prev != '/';
        return;
      }
      prev = c;
    }
    *opened = false;  // unterminated tag: verbatim to the end
  };

  while (i < text.size()) {
    char c = text[i];
    if (stack.back() == Mode::kExpr) {
      if (IsSpace(c)) {
        pending_space = !out.empty();
        ++i;
        continue;
      }
      if (pending_space) {
        out.push_back(' ');
        pending_space = false;
      }
      if (c == '"' || c == '\'') {
        out.push_back(c);
        ++i;
        while (i < text.size()) {
          char q = text[i++];
          out.push_back(q);
          if (q == c) break;
        }
        continue;
      }
      if (c == '{') {
        stack.push_back(Mode::kExpr);
        out.push_back(c);
        ++i;
        continue;
      }
      if (c == '}') {
        if (stack.size() > 1) stack.pop_back();
        out.push_back(c);
        ++i;
        continue;
      }
      if (c == '<' && i + 1 < text.size() && IsNameStart(text[i + 1])) {
        bool opened = false;
        copy_tag(&opened);
        if (opened) stack.push_back(Mode::kText);
        continue;
      }
      out.push_back(c);
      ++i;
      continue;
    }
    // kText: raw content, copied verbatim.
    pending_space = false;
    if (c == '{') {
      stack.push_back(Mode::kExpr);
      out.push_back(c);
      ++i;
      continue;
    }
    if (c == '<') {
      bool closing = i + 1 < text.size() && text[i + 1] == '/';
      bool opens = i + 1 < text.size() && IsNameStart(text[i + 1]);
      if (closing || opens) {
        bool opened = false;
        copy_tag(&opened);
        if (closing) {
          if (stack.size() > 1) stack.pop_back();
        } else if (opened) {
          stack.push_back(Mode::kText);
        }
        continue;
      }
    }
    out.push_back(c);
    ++i;
  }
  return out;
}

std::string QueryCache::MakeKey(std::string_view normalized,
                                const PipelineOptions& options) {
  // Every option that shapes the compiled artifact or its replay semantics
  // is folded in; a new plan-shaping option added without a key bit would
  // silently serve wrong plans, so keep this exhaustive.
  std::string key(normalized);
  key.push_back('\0');
  key.push_back(options.optimize ? '1' : '0');
  key.push_back(options.optimizer.unused_parameters ? '1' : '0');
  key.push_back(options.optimizer.constant_parameters ? '1' : '0');
  key.push_back(options.optimizer.stay_moves ? '1' : '0');
  key.push_back(options.optimizer.unreachable_states ? '1' : '0');
  key.push_back(
      static_cast<char>('0' + static_cast<int>(options.stream.engine)));
  key += std::to_string(options.stream.max_steps);
  return key;
}

Result<QueryCacheLookup> QueryCache::Lookup(const std::string& query_text,
                                            const PipelineOptions& options) {
  const std::string key = MakeKey(NormalizeQuery(query_text), options);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;  // we compile
    if (it->second.plan != nullptr) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      QueryCacheLookup out;
      out.plan = it->second.plan;
      out.hit = true;
      return out;
    }
    // Someone else is compiling this key: wait for their verdict. A failed
    // compile erases the entry, in which case the loop retries (possibly
    // compiling here).
    ++stats_.misses;
    cv_.wait(lock, [&] {
      auto cur = entries_.find(key);
      return cur == entries_.end() || cur->second.plan != nullptr;
    });
    auto cur = entries_.find(key);
    if (cur != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, cur->second.lru);
      QueryCacheLookup out;
      out.plan = cur->second.plan;
      out.hit = false;  // arrived before the plan existed
      return out;
    }
    // The in-flight compile failed; retry as a fresh miss (without double
    // counting this lookup).
    --stats_.misses;
  }

  // Miss: claim the key (singleflight marker), compile outside the lock.
  ++stats_.misses;
  entries_.emplace(key, Entry{});
  lock.unlock();

  auto t0 = std::chrono::steady_clock::now();
  Result<std::shared_ptr<const CompiledPlan>> compiled =
      CompiledPlan::Compile(query_text, options);
  double ms = MsSince(t0);

  lock.lock();
  ++stats_.compiles;
  stats_.compile_ms_total += ms;
  if (!compiled.ok()) {
    ++stats_.failures;
    entries_.erase(key);
    cv_.notify_all();
    return compiled.status();
  }
  Entry& entry = entries_[key];
  entry.plan = compiled.value();
  entry.bytes = entry.plan->ApproxBytes() + key.size();
  lru_.push_front(key);
  entry.lru = lru_.begin();
  resident_bytes_ += entry.bytes;
  EvictLocked();
  cv_.notify_all();
  QueryCacheLookup out;
  out.plan = entry.plan;
  out.compile_ms = ms;
  return out;
}

Result<std::shared_ptr<const CompiledPlan>> QueryCache::Get(
    const std::string& query_text, const PipelineOptions& options) {
  XQMFT_ASSIGN_OR_RETURN(QueryCacheLookup lookup,
                         Lookup(query_text, options));
  return std::move(lookup.plan);
}

void QueryCache::EvictLocked() {
  auto over_budget = [&] {
    std::size_t resident = lru_.size();
    if (options_.capacity != 0 && resident > options_.capacity) return true;
    // Keep at least the most recent plan even when it alone blows the byte
    // budget: evicting it would re-compile on every request.
    return options_.max_bytes != 0 && resident > 1 &&
           resident_bytes_ > options_.max_bytes;
  };
  while (over_budget()) {
    const std::string& victim = lru_.back();
    auto it = entries_.find(victim);
    resident_bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

QueryCacheStats QueryCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueryCacheStats out = stats_;
  out.entries = lru_.size();
  out.bytes = resident_bytes_;
  return out;
}

void QueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // Compiling entries (not in lru_) stay: their owners will insert and
  // notify as usual.
  for (const std::string& key : lru_) {
    entries_.erase(key);
    ++stats_.evictions;
  }
  lru_.clear();
  resident_bytes_ = 0;
}

}  // namespace xqmft
