#include "multiquery/union_projection.h"

#include <utility>

namespace xqmft {
namespace {

// One integer compare on the hot path — no label strings (mirrors the GCX
// projection matcher).
inline bool StepMatchesElement(Axis /*axis*/, NodeTestKind kind, SymbolId id,
                               SymbolId sym) {
  switch (kind) {
    case NodeTestKind::kName:
      return id == sym;
    case NodeTestKind::kAnyElement:
    case NodeTestKind::kAnyNode:
      return true;
    case NodeTestKind::kText:
      return false;
  }
  return false;
}

inline bool StepMatchesText(NodeTestKind kind) {
  return kind == NodeTestKind::kText || kind == NodeTestKind::kAnyNode;
}

}  // namespace

bool UnionProjection::Applies(
    const std::vector<const QueryProjection*>& projections) {
  for (const QueryProjection* qp : projections) {
    if (qp == nullptr || qp->whole_document) return false;
  }
  return true;
}

UnionProjection::UnionProjection(
    const std::vector<const QueryProjection*>& projections,
    SymbolTable* symbols) {
  if (!Applies(projections)) return;  // disabled
  for (const QueryProjection* qp : projections) {
    for (const ProjectionPath& pp : qp->paths) {
      if (pp.steps.empty()) continue;  // document node: no events to keep
      std::vector<Step> path;
      path.reserve(pp.steps.size());
      for (std::size_t i = 0; i < pp.steps.size(); ++i) {
        const PathStep& s = pp.steps[i];
        Step step;
        step.axis = s.axis;
        step.kind = s.test.kind;
        if (s.test.kind == NodeTestKind::kName) {
          step.id = symbols->Intern(NodeKind::kElement, s.test.name);
        }
        step.last = i + 1 == pp.steps.size();
        step.keep_subtree = step.last && pp.keep_subtree;
        path.push_back(step);
      }
      // Exact duplicates (the same path registered by several plans, or
      // twice within one) would only duplicate positions; drop them.
      bool dup = false;
      for (const std::vector<Step>& have : paths_) {
        if (have.size() != path.size()) continue;
        bool eq = true;
        for (std::size_t i = 0; i < path.size() && eq; ++i) {
          eq = have[i].axis == path[i].axis && have[i].kind == path[i].kind &&
               have[i].id == path[i].id &&
               have[i].keep_subtree == path[i].keep_subtree;
        }
        if (eq) {
          dup = true;
          break;
        }
      }
      if (!dup) paths_.push_back(std::move(path));
    }
  }
  enabled_ = true;
  sets_.emplace_back();
  for (std::uint32_t p = 0; p < paths_.size(); ++p) {
    sets_[0].push_back(Pos{p, 0});
  }
}

void UnionProjection::PushNext(Pos p) {
  for (const Pos& have : next_) {
    if (have.path == p.path && have.step == p.step) return;
  }
  next_.push_back(p);
}

bool UnionProjection::Feed(const XmlEvent& event) {
  if (!enabled_) return true;
  switch (event.type) {
    case XmlEventType::kEndOfDocument:
      return true;
    case XmlEventType::kText: {
      if (!frames_.empty() && frames_.back() == FrameKind::kKeep) return true;
      for (const Pos& p : sets_[sets_top_]) {
        if (StepMatchesText(paths_[p.path][p.step].kind)) return true;
      }
      return false;
    }
    case XmlEventType::kStartElement: {
      if (!frames_.empty() && frames_.back() == FrameKind::kKeep) {
        frames_.push_back(FrameKind::kKeep);
        return true;
      }
      SymbolId sym = event.symbol;
      bool advanced = false;
      bool keep_subtree = false;
      next_.clear();
      for (const Pos& p : sets_[sets_top_]) {
        const Step& s = paths_[p.path][p.step];
        // A descendant-axis position stays live below this node whether or
        // not it also matches it.
        if (s.axis == Axis::kDescendant) PushNext(p);
        if (!StepMatchesElement(s.axis, s.kind, s.id, sym)) continue;
        advanced = true;
        if (s.last) {
          if (s.keep_subtree) keep_subtree = true;
        } else {
          PushNext(Pos{p.path, p.step + 1});
        }
      }
      if (keep_subtree) {
        frames_.push_back(FrameKind::kKeep);
        return true;
      }
      if (!advanced && next_.empty()) return false;  // caller skips it
      frames_.push_back(FrameKind::kTrack);
      ++sets_top_;
      if (sets_top_ == sets_.size()) sets_.emplace_back();
      sets_[sets_top_].clear();
      sets_[sets_top_].swap(next_);
      return true;
    }
    case XmlEventType::kEndElement: {
      if (frames_.empty()) return true;  // unbalanced input: parser's problem
      if (frames_.back() == FrameKind::kTrack) --sets_top_;
      frames_.pop_back();
      return true;
    }
  }
  return true;
}

ProjectedSource::ProjectedSource(
    EventSource* inner, std::vector<const QueryProjection*> projections,
    const CancelToken* cancel)
    : inner_(inner), projections_(std::move(projections)), cancel_(cancel) {}

void ProjectedSource::BindSymbols(SymbolTable* symbols) {
  inner_->BindSymbols(symbols);
  projection_ = std::make_unique<UnionProjection>(projections_, symbols);
}

Status ProjectedSource::Next(XmlEvent* event) {
  while (true) {
    XQMFT_RETURN_NOT_OK(inner_->Next(event));
    if (event->type == XmlEventType::kEndOfDocument) return Status::OK();
    ++events_total_;
    if (projection_->Feed(*event)) return Status::OK();
    ++events_skipped_;
    if (event->type != XmlEventType::kStartElement) continue;
    const std::size_t before = inner_->bytes_consumed();
    std::uint64_t inside = 0;
    XQMFT_RETURN_NOT_OK(inner_->SkipSubtree(&inside));
    events_total_ += inside;
    events_skipped_ += inside;
    ++subtrees_skipped_;
    bytes_skipped_ += inner_->bytes_consumed() - before;
    if (cancel_ != nullptr) XQMFT_RETURN_NOT_OK(cancel_->Check());
  }
}

}  // namespace xqmft
