// Differential fuzzing across every evaluation path in the system.
//
// A generator produces random valid MinXQuery programs (nested for/let,
// element constructors, sequences, paths over all three axes, predicates of
// all four kinds); each is run on random documents through:
//
//   1. the reference XQuery evaluator         (xquery/evaluator)
//   2. the translated MFT, interpreted        (translate + mft/interp)
//   3. the optimized MFT, interpreted         (+ mft/optimize)
//   4. the optimized MFT, streamed            (+ stream/engine)
//   5. the GCX baseline (when in fragment)    (gcx/gcx_engine)
//   6. the optimized MFT through Run in parallel (+ parallel/, random
//      thread counts, pretok replay and document-set shapes)
//   7. the optimized MFT through the QueryCache (service/query_cache):
//      cold lookup compiles, warm lookup hits — both byte-identical to the
//      direct CompiledPlan/streaming output
//   9. the lowered opcode engine vs the table engine (lower/): when the
//      plan lowers, a forced --engine=ops run must be byte-identical to a
//      forced table run; when it does not, the ops request must fall back
//      and still match
//
// All of these must produce identical serialized output (for the document
// sets: the per-document outputs concatenated in input order). This is
// Theorem 1 and the engine-equivalence claims exercised over a much wider
// query space than the Figure 3 corpus.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/pipeline.h"
#include "gcx/gcx_engine.h"
#include "lower/lower.h"
#include "plan_util.h"
#include "service/query_cache.h"
#include "mft/interp.h"
#include "mft/optimize.h"
#include "stream/engine.h"
#include "translate/translate.h"
#include "util/rng.h"
#include "xml/events.h"
#include "xml/forest.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"
#include "xquery/ast.h"
#include "xquery/evaluator.h"

namespace xqmft {
namespace {

// ---------------------------------------------------------------------------
// Random query generation
// ---------------------------------------------------------------------------

class QueryGen {
 public:
  /// `predicate_heavy` biases toward the shapes that exercise choice
  /// frames: nested predicates, two predicates on one step, and a
  /// predicate on most steps.
  explicit QueryGen(Rng* rng, bool predicate_heavy = false)
      : rng_(*rng), heavy_(predicate_heavy) {}

  std::string Generate() {
    var_counter_ = 0;
    // Top level: an element wrapping one clause keeps programs printable.
    return "<out>{" + GenClause(3, "", {}) + "}</out>";
  }

 private:
  std::string FreshVar() { return "v" + std::to_string(++var_counter_); }

  std::string Label() {
    return std::string(1, static_cast<char>('a' + rng_.Below(4)));
  }

  std::string NodeTest() {
    switch (rng_.Below(8)) {
      case 0: return "*";
      case 1: return "text()";
      case 2: return "node()";
      default: return Label();
    }
  }

  std::string Axis(bool allow_fs) {
    switch (rng_.Below(allow_fs ? 5 : 4)) {
      case 0:
      case 1: return "/";
      case 2:
      case 3: return "//";
      default: return "/following-sibling::";
    }
  }

  std::string PredPath(int max_steps, int nest) {
    std::string p = ".";
    int steps = 1 + static_cast<int>(rng_.Below(
                        static_cast<std::uint64_t>(max_steps)));
    for (int i = 0; i < steps; ++i) {
      p += Axis(true) + NodeTest();
      if (heavy_ && nest > 0 && rng_.Chance(1, 3)) p += Predicate(nest - 1);
    }
    return p;
  }

  std::string Predicate(int nest = 1) {
    switch (rng_.Below(4)) {
      case 0: return "[" + PredPath(2, nest) + "]";
      case 1: return "[empty(" + PredPath(2, nest) + ")]";
      case 2: return "[" + PredPath(1, nest) + "/text()=\"x\"]";
      default: return "[" + PredPath(1, nest) + "/text()!=\"x\"]";
    }
  }

  // A path from `var` (empty = $input). The first step from $input may not
  // be following-sibling only when anchored at the virtual root.
  std::string GenPath(const std::string& var) {
    std::string p = var.empty() ? "$input" : "$" + var;
    int steps = 1 + static_cast<int>(rng_.Below(3));
    for (int i = 0; i < steps; ++i) {
      p += Axis(!(var.empty() && i == 0)) + NodeTest();
      if (rng_.Chance(1, heavy_ ? 2 : 4)) p += Predicate();
      if (heavy_ && rng_.Chance(1, 4)) p += Predicate();
    }
    return p;
  }

  using Scope = std::vector<std::string>;

  // clause ::= for | let | ordpath | (query, query+)
  std::string GenClause(int depth, const std::string& nearest_for,
                        const Scope& scope) {
    if (depth <= 0) {
      return GenPathOrVar(nearest_for, scope);
    }
    switch (rng_.Below(6)) {
      case 0: {  // for
        std::string v = FreshVar();
        Scope inner = scope;
        inner.push_back(v);
        return "for $" + v + " in " + GenPath(nearest_for) + " return " +
               GenQuery(depth - 1, v, inner);
      }
      case 1: {  // let
        std::string v = FreshVar();
        Scope inner = scope;
        inner.push_back(v);
        return "let $" + v + " := " +
               GenQuery(depth - 1, nearest_for, scope) + " return " +
               GenQuery(depth - 1, nearest_for, inner);
      }
      case 2: {  // sequence
        return "(" + GenQuery(depth - 1, nearest_for, scope) + "," +
               GenQuery(depth - 1, nearest_for, scope) + ")";
      }
      default:
        return GenPathOrVar(nearest_for, scope);
    }
  }

  std::string GenPathOrVar(const std::string& nearest_for,
                           const Scope& scope) {
    // Bare variable references may use any in-scope variable.
    if (!scope.empty() && rng_.Chance(1, 3)) {
      return "$" + scope[rng_.Below(scope.size())];
    }
    return GenPath(nearest_for);
  }

  // query ::= element | clause
  std::string GenQuery(int depth, const std::string& nearest_for,
                       const Scope& scope) {
    if (depth > 0 && rng_.Chance(2, 5)) {
      std::string name = Label();
      std::string content;
      int items = static_cast<int>(rng_.Below(3));
      for (int i = 0; i < items; ++i) {
        switch (rng_.Below(3)) {
          case 0:
            content += "txt";
            break;
          case 1:
            content += "<leaf>k</leaf>";
            break;
          default:
            content += "{" + GenClause(depth - 1, nearest_for, scope) + "}";
        }
      }
      return "<" + name + ">" + content + "</" + name + ">";
    }
    return GenClause(depth, nearest_for, scope);
  }

  Rng& rng_;
  const bool heavy_;
  int var_counter_ = 0;
};

Forest RandomDoc(Rng* rng, int depth) {
  Forest f;
  int width = static_cast<int>(rng->Below(4));
  for (int i = 0; i < width; ++i) {
    if (depth > 0 && rng->Chance(3, 5)) {
      f.push_back(Tree::Element(
          std::string(1, static_cast<char>('a' + rng->Below(4))),
          RandomDoc(rng, depth - 1)));
    } else if (f.empty() || f.back().kind != NodeKind::kText) {
      static const char* kTexts[] = {"x", "y", "z"};
      f.push_back(Tree::Text(kTexts[rng->Below(3)]));
    }
  }
  return f;
}

class RandomQueryProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomQueryProperty, AllEvaluationPathsAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ULL + 9);
  QueryGen gen(&rng);
  std::string text = gen.Generate();
  // Crash diagnostics (gtest messages are lost on hard crashes).
  const bool debug = std::getenv("XQMFT_FUZZ_DEBUG") != nullptr;
  if (debug) std::fprintf(stderr, "query: %s\n", text.c_str());

  auto parsed = ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << text << "\n" << parsed.status().ToString();
  const QueryExpr& query = *parsed.value();
  ASSERT_TRUE(ValidateQuery(query).ok()) << text;

  auto raw = TranslateQuery(query);
  ASSERT_TRUE(raw.ok()) << text << "\n" << raw.status().ToString();
  Mft opt = OptimizeMft(raw.value());
  // The parallel paths take the immutable plan artifact (warm dispatch is
  // structural there, not a call-site convention).
  auto plan_result = CompiledPlan::FromMft(opt);
  ASSERT_TRUE(plan_result.ok()) << text << "\n"
                                << plan_result.status().ToString();
  const CompiledPlan& plan = *plan_result.value();

  // Document set for the parallel cross-check (path 6b): every random doc
  // plus its serial streamed output.
  std::vector<ParallelInput> doc_set;
  std::string doc_set_serial;

  for (int d = 0; d < 3; ++d) {
    Forest doc = RandomDoc(&rng, 4);
    std::string xml = ForestToXml(doc);
    if (debug) std::fprintf(stderr, "doc: %s\n", xml.c_str());

    Result<Forest> reference = EvaluateQuery(query, doc);
    ASSERT_TRUE(reference.ok()) << text;
    StringSink want;
    EmitForest(reference.value(), &want);

    // 2. Raw MFT, interpreted.
    Result<Forest> raw_out = RunMft(raw.value(), doc);
    ASSERT_TRUE(raw_out.ok()) << text;
    StringSink raw_sink;
    EmitForest(raw_out.value(), &raw_sink);
    ASSERT_EQ(raw_sink.str(), want.str())
        << "raw MFT vs reference\nquery: " << text << "\ndoc: " << xml;

    // 3. Optimized MFT, interpreted.
    Result<Forest> opt_out = RunMft(opt, doc);
    ASSERT_TRUE(opt_out.ok()) << text;
    StringSink opt_sink;
    EmitForest(opt_out.value(), &opt_sink);
    ASSERT_EQ(opt_sink.str(), want.str())
        << "optimized MFT vs reference\nquery: " << text << "\ndoc: " << xml;

    // 4. Optimized MFT, streamed.
    StringSink stream_sink;
    Status st = StreamMftString(opt, xml, &stream_sink);
    ASSERT_TRUE(st.ok()) << text << "\n" << st.ToString();
    ASSERT_EQ(stream_sink.str(), want.str())
        << "streaming vs reference\nquery: " << text << "\ndoc: " << xml;

    // 5. GCX baseline, when the query is inside its fragment.
    if (GcxSupports(query).ok()) {
      StringSink gcx_sink;
      Status gst = GcxTransformString(query, xml, &gcx_sink);
      ASSERT_TRUE(gst.ok()) << text << "\n" << gst.ToString();
      ASSERT_EQ(gcx_sink.str(), want.str())
          << "GCX vs reference\nquery: " << text << "\ndoc: " << xml;
    }

    // 6a. Pretok replay through Run: the document's event cache, given as
    // a random number of identical inputs spread over a random thread
    // count, must reproduce the reference output once per input. A
    // multi-tree forest is one document here too, never split.
    {
      StringSource doc_src(xml);
      std::string pretok;
      Status tst = PretokenizeXml(&doc_src, &pretok);
      ASSERT_TRUE(tst.ok()) << tst.ToString();
      const std::size_t copies = 1 + rng.Below(4);
      RunOptions par;
      par.threads = 2 + rng.Below(3);
      const std::vector<ParallelInput> replays(
          copies, ParallelInput::PretokBytes(pretok));
      StringSink replayed;
      Status rs = xqmft::Run({&plan}, replays, {&replayed}, par);
      ASSERT_TRUE(rs.ok()) << text << "\n" << rs.ToString();
      std::string want_all;
      for (std::size_t c = 0; c < copies; ++c) want_all += want.str();
      ASSERT_EQ(replayed.str(), want_all)
          << "pretok replay through Run vs reference\nquery: " << text
          << "\ndoc: " << xml << "\ncopies: " << copies
          << "\nthreads: " << par.threads;
    }

    doc_set.push_back(ParallelInput::XmlText(xml));
    doc_set_serial += stream_sink.str();
  }

  // 6b. Document-set parallelism: the three random docs streamed through
  // parallel workers must concatenate to the serial per-doc outputs, in
  // input order.
  {
    RunOptions par;
    par.threads = 1 + rng.Below(4);
    StringSink many;
    Status st = xqmft::Run({&plan}, doc_set, {&many}, par);
    ASSERT_TRUE(st.ok()) << text << "\n" << st.ToString();
    ASSERT_EQ(many.str(), doc_set_serial)
        << "document-set parallel vs serial\nquery: " << text
        << "\nthreads: " << par.threads;
  }

  // 7. Compile-once cache: a cold QueryCache lookup compiles a plan whose
  // output over the document set is byte-identical to the direct
  // CompiledPlan/streaming path; the warm lookup hits the same shared plan
  // (exactly one compile) and streams identically.
  {
    QueryCache cache;
    auto cold = cache.Lookup(text);
    ASSERT_TRUE(cold.ok()) << text << "\n" << cold.status().ToString();
    EXPECT_FALSE(cold.value().hit);
    StringSink cold_sink;
    Status cs = xqmft::Run({cold.value().plan.get()}, doc_set, {&cold_sink});
    ASSERT_TRUE(cs.ok()) << text << "\n" << cs.ToString();
    ASSERT_EQ(cold_sink.str(), doc_set_serial)
        << "cached plan (cold) vs direct\nquery: " << text;

    auto warm = cache.Lookup(text);
    ASSERT_TRUE(warm.ok()) << text;
    EXPECT_TRUE(warm.value().hit);
    EXPECT_EQ(warm.value().plan.get(), cold.value().plan.get())
        << "warm lookup must share the cold lookup's plan";
    StringSink warm_sink;
    Status ws = xqmft::Run({warm.value().plan.get()}, doc_set, {&warm_sink});
    ASSERT_TRUE(ws.ok()) << text << "\n" << ws.ToString();
    ASSERT_EQ(warm_sink.str(), doc_set_serial)
        << "cached plan (warm) vs direct\nquery: " << text;
    EXPECT_EQ(cache.stats().compiles, 1u) << text;
  }

  // 8. Multi-query single pass: the random query paired with a second,
  // independently generated random query, both streaming each document in
  // ONE pass (shared tokenization, union projection automaton derived from
  // the query texts). Every engine's output must be byte-identical to its
  // own serial run — the projection may only skip what no query can see.
  {
    QueryGen gen2(&rng);
    std::string text2 = gen2.Generate();
    if (debug) std::fprintf(stderr, "query2: %s\n", text2.c_str());
    auto plan_a = CompiledPlan::Compile(text);
    ASSERT_TRUE(plan_a.ok()) << text << "\n" << plan_a.status().ToString();
    auto plan_b = CompiledPlan::Compile(text2);
    ASSERT_TRUE(plan_b.ok()) << text2 << "\n" << plan_b.status().ToString();
    std::vector<const CompiledPlan*> pair{plan_a.value().get(),
                                          plan_b.value().get()};
    for (const ParallelInput& doc : doc_set) {
      StringSink serial_a, serial_b;
      ASSERT_TRUE(plan_a.value()->StreamString(doc.value, &serial_a).ok())
          << text;
      ASSERT_TRUE(plan_b.value()->StreamString(doc.value, &serial_b).ok())
          << text2;
      StringSink multi_a, multi_b;
      std::vector<OutputSink*> sinks{&multi_a, &multi_b};
      StringSource source(doc.value);
      Status st = StreamAllTransform(pair, &source, sinks);
      ASSERT_TRUE(st.ok()) << text << "\n+ " << text2 << "\n"
                           << st.ToString();
      ASSERT_EQ(multi_a.str(), serial_a.str())
          << "multi-query vs serial (query 1)\nquery: " << text
          << "\nquery2: " << text2 << "\ndoc: " << doc.value;
      ASSERT_EQ(multi_b.str(), serial_b.str())
          << "multi-query vs serial (query 2)\nquery: " << text
          << "\nquery2: " << text2 << "\ndoc: " << doc.value;
    }
  }

  // 9. Lowered opcode engine vs table engine: a forced table run and a
  // forced ops run must be byte-identical on every document. When the plan
  // does not lower, the forced ops run exercises the silent fall-back to
  // the table machine and must still match. The per-run stats confirm
  // which engine actually served.
  {
    std::string why;
    const lower::LoweredPlan* lp = lower::GetLoweredPlan(opt, &why);
    const bool lowers = lp != nullptr;
    if (debug && !lowers) std::fprintf(stderr, "no lowering: %s\n", why.c_str());
    // The classification and its note must agree: lowered plans say "full".
    if (lowers) {
      ASSERT_EQ(why, "full") << text;
    }
    for (const ParallelInput& doc : doc_set) {
      StreamOptions table_opts;
      table_opts.engine = EngineChoice::kTable;
      StringSink table_sink;
      StreamStats table_stats;
      Status ts = StreamMftString(opt, doc.value, &table_sink, table_opts,
                                  &table_stats);
      ASSERT_TRUE(ts.ok()) << text << "\n" << ts.ToString();
      ASSERT_FALSE(table_stats.used_ops_engine) << text;

      StreamOptions ops_opts;
      ops_opts.engine = EngineChoice::kOps;
      StringSink ops_sink;
      StreamStats ops_stats;
      Status os = StreamMftString(opt, doc.value, &ops_sink, ops_opts,
                                  &ops_stats);
      ASSERT_TRUE(os.ok()) << text << "\n" << os.ToString();
      ASSERT_EQ(ops_stats.used_ops_engine, lowers) << text;
      if (lowers) {
        // Fully lowered runs never enter the table machine.
        ASSERT_EQ(ops_stats.bridge_runs, 0u) << text;
        ASSERT_EQ(ops_stats.cells_created, 0u) << text;
        ASSERT_EQ(ops_stats.exprs_created, 0u) << text;
      }
      ASSERT_EQ(ops_sink.str(), table_sink.str())
          << "ops engine vs table engine\nquery: " << text
          << "\ndoc: " << doc.value << "\nlowers: " << lowers
          << "\nwhy: " << why;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryProperty, ::testing::Range(0, 80));

// Predicate-heavy queries through the reference evaluator and both engine
// cores: the choice-frame lowering (held residuals, pruning, text cases)
// must agree with the lazy table machine and with the reference.
class RandomPredicateProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomPredicateProperty, TableOpsAndReferenceAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2862933555777941757ULL + 3);
  QueryGen gen(&rng, /*predicate_heavy=*/true);
  const std::string text = gen.Generate();
  auto parsed = ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << text << "\n" << parsed.status().ToString();
  const QueryExpr& query = *parsed.value();
  ASSERT_TRUE(ValidateQuery(query).ok()) << text;
  auto raw = TranslateQuery(query);
  ASSERT_TRUE(raw.ok()) << text << "\n" << raw.status().ToString();
  Mft opt = OptimizeMft(raw.value());
  ASSERT_TRUE(opt.Validate().ok()) << text;
  opt.dispatch();
  std::string why;
  const bool lowers = lower::GetLoweredPlan(opt, &why) != nullptr;

  for (int d = 0; d < 4; ++d) {
    Forest doc = RandomDoc(&rng, 4);
    const std::string xml = ForestToXml(doc);
    Result<Forest> reference = EvaluateQuery(query, doc);
    ASSERT_TRUE(reference.ok()) << text;
    StringSink want;
    EmitForest(reference.value(), &want);
    for (EngineChoice engine : {EngineChoice::kTable, EngineChoice::kOps}) {
      StreamOptions o;
      o.engine = engine;
      StringSink got;
      StreamStats stats;
      Status st = StreamMftString(opt, xml, &got, o, &stats);
      ASSERT_TRUE(st.ok()) << text << "\n" << st.ToString();
      ASSERT_EQ(got.str(), want.str())
          << (engine == EngineChoice::kOps ? "ops" : "table")
          << " vs reference\nquery: " << text << "\ndoc: " << xml
          << "\nlowers: " << lowers << " (" << why << ")";
      if (engine == EngineChoice::kOps) {
        ASSERT_EQ(stats.used_ops_engine, lowers) << text;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPredicateProperty,
                         ::testing::Range(0, 120));

}  // namespace
}  // namespace xqmft
