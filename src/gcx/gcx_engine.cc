#include "gcx/gcx_engine.h"

#include <set>
#include <vector>

#include "util/memory_tracker.h"
#include "util/strings.h"
#include "xml/forest.h"
#include "xpath/eval.h"
#include "xquery/evaluator.h"

namespace xqmft {

namespace {

// Rough per-node footprint of a buffered Tree (for the buffer accounting and
// the max_buffer_bytes cap).
std::size_t NodeBytes(std::string_view label) {
  return sizeof(Tree) + label.size();
}

std::size_t EstimateForestBytes(const Forest& f) {
  std::size_t n = 0;
  for (const Tree& t : f) n += NodeBytes(t.label) + EstimateForestBytes(t.children);
  return n;
}

// A projection path: keep nodes advancing along `steps`; a node completing
// the path keeps its whole subtree (its value may be copied to the output).
struct ProjPath {
  RelPath steps;
};

// Fragment checks -----------------------------------------------------------

Status CheckNoFollowingSibling(const RelPath& steps);

Status CheckPredicates(const std::vector<Predicate>& preds) {
  for (const Predicate& p : preds) {
    XQMFT_RETURN_NOT_OK(CheckNoFollowingSibling(p.path));
  }
  return Status::OK();
}

Status CheckNoFollowingSibling(const RelPath& steps) {
  for (const PathStep& s : steps) {
    if (s.axis == Axis::kFollowingSibling) {
      return Status::NotSupported(
          "GCX fragment: the following-sibling axis is not supported");
    }
    XQMFT_RETURN_NOT_OK(CheckPredicates(s.predicates));
  }
  return Status::OK();
}

Status CheckQueryPaths(const QueryExpr& q) {
  switch (q.kind) {
    case QueryKind::kElement:
    case QueryKind::kSequence:
      for (const auto& c : q.children) XQMFT_RETURN_NOT_OK(CheckQueryPaths(*c));
      return Status::OK();
    case QueryKind::kString:
      return Status::OK();
    case QueryKind::kFor:
      XQMFT_RETURN_NOT_OK(CheckNoFollowingSibling(q.path.steps));
      return CheckQueryPaths(*q.body);
    case QueryKind::kLet:
      XQMFT_RETURN_NOT_OK(CheckQueryPaths(*q.value));
      return CheckQueryPaths(*q.body);
    case QueryKind::kPath:
      return CheckNoFollowingSibling(q.path.steps);
  }
  return Status::OK();
}

}  // namespace

// Compilation ----------------------------------------------------------------

struct GcxQuery::Impl {
  const QueryExpr* query;

  enum class TokKind { kStart, kEnd, kText, kSlot };
  struct Token {
    TokKind kind;
    std::string text;
    int slot = -1;
  };
  std::vector<Token> skeleton;

  // One step of the projection automaton with its node test interned: the
  // streaming match loop compares SymbolIds against the parser's event ids
  // instead of label strings — the same id space the MFT engine matches in,
  // keeping the Figure 4 comparison honest.
  struct CompiledStep {
    Axis axis;
    NodeTestKind kind;
    SymbolId id;  // interned test name (kName only)
  };
  using CompiledPath = std::vector<CompiledStep>;

  struct Slot {
    const QueryExpr* clause;          // kFor or kPath
    const RelPath* steps;             // $input-rooted steps
    std::string var;                  // loop variable ("" for kPath slots)
    const QueryExpr* body = nullptr;  // loop body (null for kPath slots)
    std::vector<const Predicate*> final_preds;  // slot path's final-step preds
    std::vector<ProjPath> projection;
    bool project_all = false;
    CompiledPath steps_c;                  // interned form of *steps
    std::vector<CompiledPath> projection_c;  // interned projection paths
  };
  std::vector<Slot> slots;

  /// Query-lifetime table the path tests are interned into; each Run() takes
  /// a copy so parser-discovered input names never leak between runs.
  SymbolTable symbols;

  Status Build(const QueryExpr& q);
  Status BuildSkeleton(const QueryExpr& q);
  Status AddSlot(const QueryExpr& clause);
  void CollectBodyProjection(const QueryExpr& e, const std::string& var,
                             const RelPath& prefix, Slot* slot);
  void AddProjectionPath(const RelPath& steps, Slot* slot);
  CompiledPath CompilePath(const RelPath& steps);
};

Status GcxQuery::Impl::Build(const QueryExpr& q) {
  query = &q;
  XQMFT_RETURN_NOT_OK(CheckQueryPaths(q));
  XQMFT_RETURN_NOT_OK(BuildSkeleton(q));
  // Intern every path test now that all slots exist (projection paths are
  // collected incrementally during skeleton construction).
  for (Slot& slot : slots) {
    slot.steps_c = CompilePath(*slot.steps);
    slot.projection_c.reserve(slot.projection.size());
    for (const ProjPath& p : slot.projection) {
      slot.projection_c.push_back(CompilePath(p.steps));
    }
  }
  return Status::OK();
}

GcxQuery::Impl::CompiledPath GcxQuery::Impl::CompilePath(
    const RelPath& steps) {
  CompiledPath out;
  out.reserve(steps.size());
  for (const PathStep& s : steps) {
    CompiledStep c;
    c.axis = s.axis;
    c.kind = s.test.kind;
    c.id = s.test.kind == NodeTestKind::kName
               ? symbols.Intern(NodeKind::kElement, s.test.name)
               : kInvalidSymbol;
    out.push_back(c);
  }
  return out;
}

Status GcxQuery::Impl::BuildSkeleton(const QueryExpr& q) {
  switch (q.kind) {
    case QueryKind::kElement:
      skeleton.push_back({TokKind::kStart, q.name});
      for (const auto& c : q.children) {
        XQMFT_RETURN_NOT_OK(BuildSkeleton(*c));
      }
      skeleton.push_back({TokKind::kEnd, q.name});
      return Status::OK();
    case QueryKind::kString:
      skeleton.push_back({TokKind::kText, q.str});
      return Status::OK();
    case QueryKind::kSequence:
      for (const auto& c : q.children) {
        XQMFT_RETURN_NOT_OK(BuildSkeleton(*c));
      }
      return Status::OK();
    case QueryKind::kFor:
    case QueryKind::kPath:
      return AddSlot(q);
    case QueryKind::kLet:
      return Status::NotSupported("GCX fragment: top-level let");
  }
  return Status::OK();
}

Status GcxQuery::Impl::AddSlot(const QueryExpr& clause) {
  Slot slot;
  slot.clause = &clause;
  const Path& path = clause.path;
  if (path.IsBareVariable()) {
    return Status::NotSupported("GCX fragment: bare $input output");
  }
  // Predicates are allowed on the final step only (they become GCX-style
  // where-clauses evaluated on the buffered fragment).
  for (std::size_t i = 0; i + 1 < path.steps.size(); ++i) {
    if (!path.steps[i].predicates.empty()) {
      return Status::NotSupported(
          "GCX fragment: predicate on a non-final path step");
    }
  }
  slot.steps = &path.steps;
  for (const Predicate& p : path.steps.back().predicates) {
    slot.final_preds.push_back(&p);
    AddProjectionPath(p.path, &slot);
  }
  if (clause.kind == QueryKind::kFor) {
    slot.var = clause.name;
    slot.body = clause.body.get();
    CollectBodyProjection(*clause.body, clause.name, {}, &slot);
  } else {
    slot.project_all = true;  // the matched subtree is copied verbatim
  }
  skeleton.push_back(
      {TokKind::kSlot, "", static_cast<int>(slots.size())});
  slots.push_back(std::move(slot));
  return Status::OK();
}

void GcxQuery::Impl::AddProjectionPath(const RelPath& steps, Slot* slot) {
  if (steps.empty()) {
    slot->project_all = true;
    return;
  }
  // Projection matching uses axis and node test only, so store the steps
  // with predicates stripped (also the well-foundedness of the recursion
  // below: predicate paths are re-anchored on a predicate-free prefix).
  RelPath clean;
  clean.reserve(steps.size());
  for (const PathStep& s : steps) {
    PathStep c;
    c.axis = s.axis;
    c.test = s.test;
    clean.push_back(std::move(c));
  }
  slot->projection.push_back(ProjPath{clean});
  // Predicate paths inside the steps join the projection too, anchored at
  // the step they test.
  for (std::size_t i = 0; i < steps.size(); ++i) {
    for (const Predicate& p : steps[i].predicates) {
      RelPath full(clean.begin(), clean.begin() + static_cast<long>(i) + 1);
      for (const PathStep& ps : p.path) full.push_back(ps);
      AddProjectionPath(full, slot);
    }
  }
}

// Collects the paths the loop body needs, rewritten relative to the slot
// binding. `var` is the variable whose paths are rooted at `prefix`.
void GcxQuery::Impl::CollectBodyProjection(const QueryExpr& e,
                                           const std::string& var,
                                           const RelPath& prefix, Slot* slot) {
  switch (e.kind) {
    case QueryKind::kElement:
    case QueryKind::kSequence:
      for (const auto& c : e.children) {
        CollectBodyProjection(*c, var, prefix, slot);
      }
      return;
    case QueryKind::kString:
      return;
    case QueryKind::kFor: {
      // The nested loop's path extends the prefix; its body is relative to
      // the nested variable.
      RelPath nested = prefix;
      for (const PathStep& s : e.path.steps) nested.push_back(s);
      AddProjectionPath(nested, slot);
      CollectBodyProjection(*e.body, e.name, nested, slot);
      return;
    }
    case QueryKind::kLet:
      CollectBodyProjection(*e.value, var, prefix, slot);
      CollectBodyProjection(*e.body, var, prefix, slot);
      return;
    case QueryKind::kPath: {
      if (e.path.IsBareVariable()) {
        // A copied binding: keep everything below its prefix.
        AddProjectionPath(prefix, slot);
        if (prefix.empty()) slot->project_all = true;
        return;
      }
      RelPath full = prefix;
      for (const PathStep& s : e.path.steps) full.push_back(s);
      AddProjectionPath(full, slot);
      return;
    }
  }
}

// Runtime ---------------------------------------------------------------------

namespace {

// Does an interned projection step match an element event with id `sym`?
// One integer compare on the hot path — no label strings.
inline bool StepMatchesElement(const GcxQuery::Impl::CompiledStep& s,
                               SymbolId sym) {
  switch (s.kind) {
    case NodeTestKind::kName:
      return s.id == sym;
    case NodeTestKind::kAnyElement:
    case NodeTestKind::kAnyNode:
      return true;
    case NodeTestKind::kText:
      return false;
  }
  return false;
}

inline bool StepMatchesText(const GcxQuery::Impl::CompiledStep& s) {
  return s.kind == NodeTestKind::kText || s.kind == NodeTestKind::kAnyNode;
}

// Per-slot streaming state.
class SlotRun {
 public:
  SlotRun(const GcxQuery::Impl::Slot& slot, MemoryTracker* tracker)
      : slot_(slot), tracker_(tracker) {
    active_stack_.push_back({0});
  }

  // Feeds a start-element event. Never delivers: a match only opens the
  // buffered fragment here; binding results are appended via `deliver` when
  // the fragment completes, in OnText (immediate text bindings) or OnEnd
  // (the buffer root closing). `sym` is the event's interned id in the run's
  // table; `name` is only read when a node enters a buffer.
  Status OnStart(SymbolId sym, std::string_view name) {
    if (buffering_) {
      ++buffer_depth_;
      ProjectStart(sym, name);
      return Status::OK();
    }
    const GcxQuery::Impl::CompiledPath& steps = slot_.steps_c;
    const int n = static_cast<int>(steps.size());
    const std::vector<int>& top = active_stack_.back();
    std::set<int> next_set;
    bool matched = false;
    for (int i : top) {
      const auto& s = steps[static_cast<std::size_t>(i)];
      if (s.axis == Axis::kDescendant) next_set.insert(i);
      if (StepMatchesElement(s, sym)) {
        if (i + 1 == n) {
          matched = true;
        } else {
          next_set.insert(i + 1);
        }
      }
    }
    std::vector<int> next(next_set.begin(), next_set.end());
    active_stack_.push_back(next);
    if (matched) StartBuffer(NodeKind::kElement, name, next);
    return Status::OK();
  }

  template <typename Deliver>
  Status OnText(std::string_view text, const Deliver& deliver) {
    if (buffering_) {
      ProjectText(text);
      return Status::OK();
    }
    const GcxQuery::Impl::CompiledPath& steps = slot_.steps_c;
    const int n = static_cast<int>(steps.size());
    for (int i : active_stack_.back()) {
      const auto& s = steps[static_cast<std::size_t>(i)];
      if (i + 1 == n && StepMatchesText(s)) {
        // A text-node binding completes immediately.
        Forest buffer{Tree::Text(std::string(text))};
        return FinishBinding(std::move(buffer), {}, deliver);
      }
    }
    return Status::OK();
  }

  template <typename Deliver>
  Status OnEnd(const Deliver& deliver) {
    if (buffering_) {
      if (buffer_depth_ > 0) {
        --buffer_depth_;
        ProjectEnd();
        return Status::OK();
      }
      // The buffer root closes.
      buffering_ = false;
      Forest buffer = std::move(buffer_);
      buffer_.clear();
      frames_.clear();
      std::vector<int> cont = std::move(cont_);
      active_stack_.pop_back();
      return FinishBinding(std::move(buffer), cont, deliver);
    }
    active_stack_.pop_back();
    return Status::OK();
  }

  std::size_t bindings() const { return bindings_; }

 private:
  struct Frame {
    Forest* attach = nullptr;  // children list of the nearest kept ancestor
    bool kept = false;
    bool keep_all = false;
    std::vector<std::pair<int, int>> positions;  // (projection path, step)
  };

  void StartBuffer(NodeKind kind, std::string_view name,
                   const std::vector<int>& cont) {
    buffering_ = true;
    buffer_depth_ = 0;
    cont_ = cont;
    buffer_.clear();
    buffer_.push_back(Tree(kind, std::string(name)));
    Charge(name);
    Frame root;
    root.attach = &buffer_[0].children;
    root.kept = true;
    // Nested matches are resolved by re-scanning the buffer, so everything
    // must be retained when they are possible.
    root.keep_all = slot_.project_all || !cont.empty();
    for (std::size_t p = 0; p < slot_.projection.size(); ++p) {
      root.positions.emplace_back(static_cast<int>(p), 0);
    }
    frames_.push_back(std::move(root));
  }

  void ProjectStart(SymbolId sym, std::string_view name) {
    const Frame& parent = frames_.back();
    Frame f;
    f.keep_all = parent.keep_all;
    bool advanced = false;
    for (const auto& [p, i] : parent.positions) {
      const GcxQuery::Impl::CompiledPath& steps =
          slot_.projection_c[static_cast<std::size_t>(p)];
      const auto& s = steps[static_cast<std::size_t>(i)];
      if (s.axis == Axis::kDescendant) f.positions.emplace_back(p, i);
      if (StepMatchesElement(s, sym)) {
        if (i + 1 == static_cast<int>(steps.size())) {
          f.keep_all = true;  // path target: keep the whole subtree
          advanced = true;
        } else {
          f.positions.emplace_back(p, i + 1);
          advanced = true;
        }
      }
    }
    f.kept = parent.keep_all || advanced;
    if (f.kept) {
      parent_attach_check();
      frames_.back().attach->push_back(
          Tree(NodeKind::kElement, std::string(name)));
      f.attach = &frames_.back().attach->back().children;
      Charge(name);
    } else {
      // Pruned: descendants that survive attach to the nearest kept
      // ancestor (safe: only descendant-axis positions continue here).
      f.attach = frames_.back().attach;
    }
    frames_.push_back(std::move(f));
  }

  void ProjectText(std::string_view text) {
    const Frame& parent = frames_.back();
    bool keep = parent.keep_all;
    for (const auto& [p, i] : parent.positions) {
      const GcxQuery::Impl::CompiledPath& steps =
          slot_.projection_c[static_cast<std::size_t>(p)];
      if (StepMatchesText(steps[static_cast<std::size_t>(i)])) keep = true;
    }
    if (keep) {
      parent.attach->push_back(Tree::Text(std::string(text)));
      Charge(text);
    }
  }

  void ProjectEnd() { frames_.pop_back(); }

  void parent_attach_check() { XQMFT_CHECK(frames_.back().attach != nullptr); }

  void Charge(std::string_view label) {
    std::size_t b = NodeBytes(label);
    buffer_bytes_ += b;
    tracker_->Charge(b);
  }

  void ReleaseBuffer() {
    tracker_->Release(buffer_bytes_);
    buffer_bytes_ = 0;
  }

  // Collects nested matches below `f` (pre-order) for active positions
  // `set`, mirroring the streaming matcher over the buffered fragment.
  void NestedMatches(const Forest& f, const std::vector<int>& set,
                     std::vector<NodeRef>* out) const {
    if (set.empty()) return;
    const RelPath& steps = *slot_.steps;
    const int n = static_cast<int>(steps.size());
    for (std::size_t idx = 0; idx < f.size(); ++idx) {
      const Tree& t = f[idx];
      std::set<int> next_set;
      bool matched = false;
      for (int i : set) {
        const PathStep& s = steps[static_cast<std::size_t>(i)];
        if (s.axis == Axis::kDescendant) next_set.insert(i);
        if (s.test.Matches(t.kind, t.label)) {
          if (i + 1 == n) {
            matched = true;
          } else {
            next_set.insert(i + 1);
          }
        }
      }
      if (matched) out->push_back(NodeRef{&f, idx});
      NestedMatches(t.children,
                    std::vector<int>(next_set.begin(), next_set.end()), out);
    }
  }

  template <typename Deliver>
  Status FinishBinding(Forest buffer, const std::vector<int>& cont,
                       const Deliver& deliver) {
    std::vector<NodeRef> bindings;
    bindings.push_back(NodeRef{&buffer, 0});
    NestedMatches(buffer[0].children, cont, &bindings);
    Status st = Status::OK();
    for (const NodeRef& b : bindings) {
      bool pass = true;
      for (const Predicate* p : slot_.final_preds) {
        if (!EvalPredicate(buffer, b, *p)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      ++bindings_;
      Forest result;
      if (slot_.body == nullptr) {
        result.push_back(b.node());  // copy the matched subtree
      } else {
        Result<Forest> r = EvaluateQueryBound(*slot_.body, buffer, slot_.var, b);
        if (!r.ok()) {
          st = r.status();
          break;
        }
        result = std::move(r).value();
      }
      st = deliver(std::move(result));
      if (!st.ok()) break;
    }
    ReleaseBuffer();
    return st;
  }

  const GcxQuery::Impl::Slot& slot_;
  MemoryTracker* tracker_;
  std::vector<std::vector<int>> active_stack_;
  bool buffering_ = false;
  int buffer_depth_ = 0;
  Forest buffer_;
  std::vector<int> cont_;
  std::vector<Frame> frames_;
  std::size_t buffer_bytes_ = 0;
  std::size_t bindings_ = 0;
};

// Counting wrapper so GcxStats can report output events.
class CountingForwardSink : public OutputSink {
 public:
  explicit CountingForwardSink(OutputSink* inner) : inner_(inner) {}
  void StartElement(std::string_view name) override {
    inner_->StartElement(name);
    ++events_;
  }
  void EndElement(std::string_view name) override {
    inner_->EndElement(name);
    ++events_;
  }
  void Text(std::string_view content) override {
    inner_->Text(content);
    ++events_;
  }
  std::size_t events() const { return events_; }

 private:
  OutputSink* inner_;
  std::size_t events_ = 0;
};

}  // namespace

GcxQuery::GcxQuery(const QueryExpr& query) : impl_(new Impl) {
  impl_->query = &query;
}
GcxQuery::~GcxQuery() = default;

Status GcxSupports(const QueryExpr& query) {
  GcxQuery::Impl impl;
  return impl.Build(query);
}

Result<std::unique_ptr<GcxQuery>> GcxQuery::Compile(const QueryExpr& query) {
  XQMFT_RETURN_NOT_OK(ValidateQuery(query));
  std::unique_ptr<GcxQuery> out(new GcxQuery(query));
  XQMFT_RETURN_NOT_OK(out->impl_->Build(query));
  return out;
}

Status GcxQuery::Run(ByteSource* source, OutputSink* sink, GcxOptions options,
                     GcxStats* stats) const {
  const Impl& impl = *impl_;
  MemoryTracker tracker;
  CountingForwardSink counting(sink);

  std::vector<SlotRun> runs;
  runs.reserve(impl.slots.size());
  for (const auto& slot : impl.slots) runs.emplace_back(slot, &tracker);

  // Single-slot queries stream binding results directly; multi-slot queries
  // (e.g. the doubling query) must buffer each slot's results until the
  // skeleton position is reached at end of input.
  const bool streaming_mode = impl.slots.size() == 1;
  std::vector<Forest> slot_results(impl.slots.size());

  std::size_t emitted_prefix = 0;
  if (streaming_mode) {
    // Emit skeleton tokens up to the slot.
    while (emitted_prefix < impl.skeleton.size() &&
           impl.skeleton[emitted_prefix].kind != Impl::TokKind::kSlot) {
      const auto& tok = impl.skeleton[emitted_prefix];
      if (tok.kind == Impl::TokKind::kStart) counting.StartElement(tok.text);
      if (tok.kind == Impl::TokKind::kEnd) counting.EndElement(tok.text);
      if (tok.kind == Impl::TokKind::kText) counting.Text(tok.text);
      ++emitted_prefix;
    }
  }

  auto deliver_for = [&](std::size_t slot_index) {
    return [&, slot_index](Forest result) -> Status {
      if (streaming_mode) {
        EmitForest(result, &counting);
      } else {
        std::size_t b = EstimateForestBytes(result);
        tracker.Charge(b);
        AppendForest(&slot_results[slot_index], std::move(result));
      }
      if (tracker.current_bytes() > options.max_buffer_bytes) {
        return Status::ResourceExhausted(StrFormat(
            "GCX buffer limit exceeded (%zu > %zu bytes)",
            tracker.current_bytes(), options.max_buffer_bytes));
      }
      return Status::OK();
    };
  };

  // Run-local table copy: path-test ids stay aligned with the compiled
  // steps, input names discovered by the parser grow only this copy.
  SymbolTable symbols = impl.symbols;
  SaxParser parser(source, &symbols);
  XmlEvent ev;
  while (true) {
    XQMFT_RETURN_NOT_OK(parser.Next(&ev));
    if (ev.type == XmlEventType::kEndOfDocument) break;
    for (std::size_t s = 0; s < runs.size(); ++s) {
      switch (ev.type) {
        case XmlEventType::kStartElement:
          XQMFT_RETURN_NOT_OK(runs[s].OnStart(ev.symbol, ev.name));
          break;
        case XmlEventType::kText:
          XQMFT_RETURN_NOT_OK(runs[s].OnText(ev.text, deliver_for(s)));
          break;
        case XmlEventType::kEndElement:
          XQMFT_RETURN_NOT_OK(runs[s].OnEnd(deliver_for(s)));
          break;
        default:
          break;
      }
      if (tracker.current_bytes() > options.max_buffer_bytes) {
        return Status::ResourceExhausted(StrFormat(
            "GCX buffer limit exceeded (%zu > %zu bytes)",
            tracker.current_bytes(), options.max_buffer_bytes));
      }
    }
  }

  // Emit the remaining skeleton (everything, in buffered mode).
  for (std::size_t i = streaming_mode ? emitted_prefix + 1 : 0;
       i < impl.skeleton.size(); ++i) {
    const auto& tok = impl.skeleton[i];
    switch (tok.kind) {
      case Impl::TokKind::kStart:
        counting.StartElement(tok.text);
        break;
      case Impl::TokKind::kEnd:
        counting.EndElement(tok.text);
        break;
      case Impl::TokKind::kText:
        counting.Text(tok.text);
        break;
      case Impl::TokKind::kSlot:
        if (!streaming_mode) {
          EmitForest(slot_results[static_cast<std::size_t>(tok.slot)],
                     &counting);
        }
        break;
    }
  }

  if (stats != nullptr) {
    stats->peak_bytes = tracker.peak_bytes();
    stats->bytes_in = parser.bytes_consumed();
    stats->output_events = counting.events();
    stats->bindings = 0;
    for (const SlotRun& r : runs) stats->bindings += r.bindings();
  }
  return Status::OK();
}

Status GcxTransformString(const QueryExpr& query, const std::string& xml,
                          OutputSink* sink, GcxOptions options,
                          GcxStats* stats) {
  XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<GcxQuery> q, GcxQuery::Compile(query));
  StringSource source(xml);
  return q->Run(&source, sink, options, stats);
}

}  // namespace xqmft
