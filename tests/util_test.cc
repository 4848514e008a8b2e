// Unit tests for src/util: Status/Result, IntrusivePtr, Arena, Rng, strings,
// MemoryTracker; plus the benchmark binaries' env-knob parsing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "bench_common/env.h"
#include "util/arena.h"
#include "util/cancel.h"
#include "util/intrusive_ptr.h"
#include "util/memory_tracker.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace xqmft {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad query");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad query");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad query");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotSupported), "NotSupported");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

Result<int> Doubled(int x) {
  XQMFT_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(std::move(Doubled(21)).ValueOrDie(), 42);
  EXPECT_FALSE(Doubled(0).ok());
}

struct Tracked : RefCounted {
  explicit Tracked(int* counter) : counter_(counter) { ++*counter_; }
  ~Tracked() override { --*counter_; }
  int* counter_;
};

TEST(IntrusivePtrTest, LifecycleThroughCopiesAndMoves) {
  int live = 0;
  {
    IntrusivePtr<Tracked> a = MakeIntrusive<Tracked>(&live);
    EXPECT_EQ(live, 1);
    EXPECT_EQ(a->ref_count(), 1u);
    {
      IntrusivePtr<Tracked> b = a;
      EXPECT_EQ(a->ref_count(), 2u);
      IntrusivePtr<Tracked> c = std::move(b);
      EXPECT_EQ(a->ref_count(), 2u);
      EXPECT_FALSE(b);  // NOLINT moved-from check is the point
    }
    EXPECT_EQ(a->ref_count(), 1u);
  }
  EXPECT_EQ(live, 0);
}

TEST(IntrusivePtrTest, AssignmentReleasesOldTarget) {
  int live = 0;
  IntrusivePtr<Tracked> a = MakeIntrusive<Tracked>(&live);
  IntrusivePtr<Tracked> b = MakeIntrusive<Tracked>(&live);
  EXPECT_EQ(live, 2);
  a = b;
  EXPECT_EQ(live, 1);
  a.reset();
  EXPECT_EQ(live, 1);
  b.reset();
  EXPECT_EQ(live, 0);
}

TEST(IntrusivePtrTest, SelfAssignmentIsSafe) {
  int live = 0;
  IntrusivePtr<Tracked> a = MakeIntrusive<Tracked>(&live);
  a = *&a;
  EXPECT_EQ(live, 1);
  EXPECT_EQ(a->ref_count(), 1u);
}

TEST(ArenaTest, AllocatesAlignedAndGrows) {
  Arena arena(128);
  std::vector<void*> ptrs;
  for (int i = 0; i < 100; ++i) {
    void* p = arena.Allocate(48, 16);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    ptrs.push_back(p);
  }
  std::set<void*> unique(ptrs.begin(), ptrs.end());
  EXPECT_EQ(unique.size(), ptrs.size());
  EXPECT_GE(arena.bytes_used(), 100u * 48u);
}

TEST(ArenaTest, CopyStringNulTerminates) {
  Arena arena;
  const char* s = arena.CopyString("hello", 5);
  EXPECT_STREQ(s, "hello");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    auto x = a.Next();
    EXPECT_EQ(x, b.Next());
    if (x != c.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Below(10), 10u);
    auto v = r.Range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(MemoryTrackerTest, TracksPeak) {
  MemoryTracker t;
  t.Charge(100);
  t.Charge(50);
  EXPECT_EQ(t.current_bytes(), 150u);
  EXPECT_EQ(t.peak_bytes(), 150u);
  t.Release(120);
  EXPECT_EQ(t.current_bytes(), 30u);
  EXPECT_EQ(t.peak_bytes(), 150u);
  t.Charge(40);
  EXPECT_EQ(t.peak_bytes(), 150u);
}

TEST(CancelTokenTest, DeadlinePastTheClockRangeSaturates) {
  // 9e15 ms and more overflow steady_clock's nanoseconds; the deadline
  // saturates at the clock's maximum instead of wrapping into the past.
  for (std::uint64_t ms : {std::uint64_t{9'000'000'000'000'000},
                           ~std::uint64_t{0}}) {
    CancelToken token;
    token.SetDeadlineAfterMs(ms);
    EXPECT_TRUE(token.has_deadline());
    EXPECT_TRUE(token.Check().ok()) << ms;
    EXPECT_GT(token.RemainingMs(), std::uint64_t{1} << 40) << ms;
  }
  CancelToken soon;
  soon.SetDeadlineAfterMs(0);
  EXPECT_EQ(soon.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto v = SplitString("a,,b,", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[1], "");
  EXPECT_EQ(v[2], "b");
  EXPECT_EQ(v[3], "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y\t\n"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringsTest, XmlEscape) {
  EXPECT_EQ(XmlEscape("a<b&c>d"), "a&lt;b&amp;c&gt;d");
  EXPECT_EQ(XmlEscape("plain"), "plain");
}

TEST(StringsTest, XmlEscapedSizeMatchesXmlEscape) {
  for (const char* s : {"", "plain", "a<b&c>d", "&&&", "<<>>", "x&amp;y"}) {
    EXPECT_EQ(XmlEscapedSize(s), XmlEscape(s).size()) << s;
  }
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MB");
}

TEST(BenchEnvTest, NonPositiveOrNonNumericKnobsTakeTheDefault) {
  const char* kVar = "XQMFT_TEST_BENCH_ENV_KNOB";
  ::unsetenv(kVar);
  EXPECT_EQ(EnvCount(kVar, 8), 8u);
  EXPECT_EQ(EnvMb(kVar, 4), 4u << 20);
  for (const char* bad : {"-4", "0", "", "abc", "-0"}) {
    ::setenv(kVar, bad, 1);
    EXPECT_EQ(EnvCount(kVar, 8), 8u) << bad;
    EXPECT_EQ(EnvMb(kVar, 4), 4u << 20) << bad;
  }
  ::setenv(kVar, "99999999999999999", 1);  // overflows the byte count
  EXPECT_EQ(EnvMb(kVar, 4), 4u << 20);
  ::setenv(kVar, "16", 1);
  EXPECT_EQ(EnvCount(kVar, 8), 16u);
  EXPECT_EQ(EnvMb(kVar, 4), 16u << 20);
  ::unsetenv(kVar);
}

TEST(BenchEnvTest, SizeListsDropBadEntriesAndFallBackToTheDefault) {
  const char* kVar = "XQMFT_TEST_BENCH_ENV_LIST";
  const std::vector<std::size_t> kDefault = {1u << 20, 4u << 20, 16u << 20};
  ::unsetenv(kVar);
  EXPECT_EQ(EnvMbList(kVar, "1,4,16"), kDefault);
  // No valid entry: the documented default, not a single 1 MiB point.
  for (const char* bad : {"", "0", "-2", "abc", ",,", "99999999999999",
                          "0,-1,99999999999999"}) {
    ::setenv(kVar, bad, 1);
    EXPECT_EQ(EnvMbList(kVar, "1,4,16"), kDefault) << bad;
  }
  // Bad entries are dropped, including one whose byte count would wrap.
  ::setenv(kVar, "99999999999999,2", 1);
  EXPECT_EQ(EnvMbList(kVar, "1,4,16"), std::vector<std::size_t>{2u << 20});
  ::setenv(kVar, "8,x,,-3,32", 1);
  EXPECT_EQ(EnvMbList(kVar, "1,4,16"),
            (std::vector<std::size_t>{8u << 20, 32u << 20}));
  ::unsetenv(kVar);
}

}  // namespace
}  // namespace xqmft
