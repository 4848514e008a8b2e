// Tests for the Table 1 dataset generators: determinism, well-formedness,
// structural profiles (depth per Table 1), and query-target coverage (every
// Figure 3 query finds work in the XMark data).
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common/queries.h"
#include "data/generators.h"
#include "xml/forest.h"
#include "xml/sax_parser.h"
#include "xquery/ast.h"
#include "xquery/evaluator.h"

namespace xqmft {
namespace {

constexpr std::size_t kSmall = 64 * 1024;

std::string Generate(DatasetKind kind, std::size_t bytes = kSmall) {
  return std::move(GenerateDatasetString(kind, bytes, 7).ValueOrDie());
}

TEST(GeneratorsTest, Deterministic) {
  for (DatasetKind kind : {DatasetKind::kXmark, DatasetKind::kTreebank,
                           DatasetKind::kMedline, DatasetKind::kProtein}) {
    std::string a = Generate(kind);
    std::string b = Generate(kind);
    EXPECT_EQ(a, b) << DatasetName(kind);
    std::string c =
        std::move(GenerateDatasetString(kind, kSmall, 8).ValueOrDie());
    EXPECT_NE(a, c) << DatasetName(kind) << ": seed must matter";
  }
}

TEST(GeneratorsTest, SizesNearTarget) {
  for (DatasetKind kind : {DatasetKind::kXmark, DatasetKind::kTreebank,
                           DatasetKind::kMedline, DatasetKind::kProtein}) {
    for (std::size_t target : {std::size_t{64} * 1024, std::size_t{512} * 1024}) {
      std::string xml = Generate(kind, target);
      EXPECT_GT(xml.size(), target * 9 / 10) << DatasetName(kind);
      EXPECT_LT(xml.size(), target * 3 / 2) << DatasetName(kind);
    }
  }
}

TEST(GeneratorsTest, WellFormed) {
  for (DatasetKind kind : {DatasetKind::kXmark, DatasetKind::kTreebank,
                           DatasetKind::kMedline, DatasetKind::kProtein}) {
    std::string xml = Generate(kind);
    Result<Forest> f = ParseXmlForest(xml);
    ASSERT_TRUE(f.ok()) << DatasetName(kind) << ": " << f.status().ToString();
    EXPECT_EQ(f.value().size(), 1u) << DatasetName(kind);
  }
}

TEST(GeneratorsTest, DepthProfilesMatchTable1) {
  // Table 1: XMark depth 13, TreeBank 37, Medline 8, Protein 8.
  Forest xmark = std::move(ParseXmlForest(Generate(DatasetKind::kXmark)).ValueOrDie());
  std::size_t d = ForestDepth(xmark);
  EXPECT_GE(d, 11u);
  EXPECT_LE(d, 15u);

  Forest tb = std::move(
      ParseXmlForest(Generate(DatasetKind::kTreebank)).ValueOrDie());
  d = ForestDepth(tb);
  EXPECT_GE(d, 30u);
  EXPECT_LE(d, 45u);

  Forest ml = std::move(
      ParseXmlForest(Generate(DatasetKind::kMedline)).ValueOrDie());
  d = ForestDepth(ml);
  EXPECT_GE(d, 6u);
  EXPECT_LE(d, 10u);

  Forest pr = std::move(
      ParseXmlForest(Generate(DatasetKind::kProtein)).ValueOrDie());
  d = ForestDepth(pr);
  EXPECT_GE(d, 6u);
  EXPECT_LE(d, 10u);
}

TEST(GeneratorsTest, XmarkCoversEveryBenchmarkQuery) {
  // Each Figure 3 query must produce non-trivial output on XMark data of
  // modest size — otherwise the Figure 4 benches would measure nothing.
  std::string xml = Generate(DatasetKind::kXmark, 512 * 1024);
  Forest doc = std::move(ParseXmlForest(xml).ValueOrDie());
  for (const BenchQuery& bq : Figure3Queries()) {
    auto q = std::move(ParseQuery(bq.text).ValueOrDie());
    Result<Forest> out = EvaluateQuery(*q, doc);
    ASSERT_TRUE(out.ok()) << bq.id;
    // The root element plus some content (Q4's adjacency pattern is rare,
    // so require hits only for the others).
    std::size_t content = ForestSize(out.value()) - 1;
    if (std::string(bq.id) != "q04") {
      EXPECT_GT(content, 0u) << bq.id << " found no matches";
    }
  }
}

TEST(GeneratorsTest, Q4FindsHitsAtLargerSizes) {
  // The personXX/personYY adjacency is seeded at ~1/20 per bidder; a 2 MB
  // document contains hits.
  std::string xml = Generate(DatasetKind::kXmark, 2 * 1024 * 1024);
  Forest doc = std::move(ParseXmlForest(xml).ValueOrDie());
  auto q = std::move(ParseQuery(QueryById("q04").text).ValueOrDie());
  Forest out = std::move(EvaluateQuery(*q, doc)).ValueOrDie();
  EXPECT_GT(ForestSize(out), 1u);
}

TEST(GeneratorsTest, ScanStatsMatchesParse) {
  Result<std::string> path = EnsureDataset(DatasetKind::kXmark, kSmall, 7);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  Result<DatasetStats> stats = ScanDatasetFile(path.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().bytes, kSmall * 9 / 10);
  EXPECT_GT(stats.value().elements, 100u);
  EXPECT_GE(stats.value().depth, 11u);

  // The cache returns the same file on the second call.
  Result<std::string> path2 = EnsureDataset(DatasetKind::kXmark, kSmall, 7);
  ASSERT_TRUE(path2.ok());
  EXPECT_EQ(path.value(), path2.value());
}

// A generator killed mid-write (here by SIGXFSZ at a 64 KiB file-size limit)
// must leave nothing a later call trusts: the next EnsureDataset returns the
// complete document.
TEST(GeneratorsTest, EnsureDatasetSurvivesAWriterKilledMidWrite) {
  constexpr std::size_t kTarget = 512 * 1024;
  const std::string dir = ::testing::TempDir() + "/xqmft_ensure_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const char* old_dir = std::getenv("XQMFT_DATA_DIR");
  const std::string saved = old_dir != nullptr ? old_dir : "";
  ::setenv("XQMFT_DATA_DIR", dir.c_str(), 1);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const struct rlimit no_core = {0, 0};
    const struct rlimit fsize = {64 * 1024, 64 * 1024};
    ::setrlimit(RLIMIT_CORE, &no_core);
    ::setrlimit(RLIMIT_FSIZE, &fsize);
    (void)EnsureDataset(DatasetKind::kXmark, kTarget, 11);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGXFSZ) << status;

  Result<std::string> path = EnsureDataset(DatasetKind::kXmark, kTarget, 11);
  if (old_dir != nullptr) {
    ::setenv("XQMFT_DATA_DIR", saved.c_str(), 1);
  } else {
    ::unsetenv("XQMFT_DATA_DIR");
  }
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  std::stringstream got;
  got << std::ifstream(path.value(), std::ios::binary).rdbuf();
  const std::string want =
      GenerateDatasetString(DatasetKind::kXmark, kTarget, 11).value();
  EXPECT_EQ(got.str().size(), want.size());
  EXPECT_TRUE(got.str() == want);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xqmft
