#include "lower/ops_engine.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace xqmft {
namespace lower {

namespace {
constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
constexpr std::size_t kAlign = alignof(std::max_align_t);
// Default rope-chunk payload capacity: nine packed 5-byte records. Together
// with the 16-byte header this stays inside the per-append prealloc budget
// (lower.cc's kPreallocPerAppend) — the invariant that keeps element-context
// rope appends inside the pre-mark block.
constexpr std::uint32_t kRopeChunkCap = 48;
}  // namespace

void* OpsEngine::BumpArena::Alloc(std::size_t n) {
  n = (n + (kAlign - 1)) & ~(kAlign - 1);
  // Advance past chunks too small for this request (possible after a Reset
  // replays the chunk sequence with different allocation sizes).
  while (chunk_ < chunks_.size() && chunks_[chunk_].size - off_ < n) {
    ++chunk_;
    off_ = 0;
  }
  if (chunk_ == chunks_.size()) {
    Chunk c;
    c.size = std::max(kChunkBytes, n);
    c.bytes = std::make_unique<char[]>(c.size);
    chunks_.push_back(std::move(c));
    off_ = 0;
  }
  void* p = chunks_[chunk_].bytes.get() + off_;
  off_ += n;
  live_ += n;
  tracker_->Charge(n);
  return p;
}

OpsEngine::OpsEngine(const LoweredPlan& plan, OutputSink* sink,
                     SymbolTable* symbols, MemoryTracker* tracker,
                     std::uint64_t max_steps, const CancelToken* cancel,
                     std::uint32_t cancel_check_events)
    : plan_(&plan),
      sink_(sink),
      symbols_(symbols),
      tracker_(tracker),
      max_steps_(max_steps),
      cancel_(cancel),
      cancel_check_events_(cancel_check_events),
      arena_(tracker),
      frame_pool_(tracker),
      choice_pool_(tracker) {
  const std::uint32_t k = plan.choice_params;
  frame_pool_.set_size(sizeof(Frame) + k * sizeof(std::uintptr_t));
  choice_pool_.set_size(sizeof(Choice) + k * sizeof(Segment*));
}

OpsEngine::~OpsEngine() {
  // Segments may still hold charges when a run ends early (error or an
  // abandoned engine); settle the shared tracker's balance wholesale.
  tracker_->Release(charged_bytes_);
}

OpsEngine::Segment* OpsEngine::NewSegment() {
  Segment* s;
  if (free_segments_ != nullptr) {
    s = free_segments_;
    free_segments_ = s->next;
  } else {
    all_segments_.push_back(std::make_unique<Segment>());
    s = all_segments_.back().get();
  }
  s->next = nullptr;
  s->hold = nullptr;
  s->closed = false;
  s->live = false;
  s->drop = false;
  const std::size_t charge = sizeof(Segment) + s->data.capacity();
  tracker_->Charge(charge);
  charged_bytes_ += charge;
  return s;
}

void OpsEngine::RecycleSegment(Segment* s) {
  const std::size_t charge = sizeof(Segment) + s->data.capacity();
  tracker_->Release(charge);
  charged_bytes_ -= charge;
  s->data.clear();  // keeps capacity for the next acquire
  s->next = free_segments_;
  free_segments_ = s;
}

void OpsEngine::ChargeAppend(Segment* s, const char* bytes, std::size_t n) {
  if (s->drop) return;  // a losing residual's writer is still running
  const std::size_t old_cap = s->data.capacity();
  s->data.append(bytes, n);
  const std::size_t new_cap = s->data.capacity();
  if (new_cap != old_cap) {
    tracker_->Charge(new_cap - old_cap);
    charged_bytes_ += new_cap - old_cap;
  }
}

OpsEngine::Segment* OpsEngine::SplitAfter(Segment* cur) {
  cur->closed = true;
  return InsertAfter(cur);
}

OpsEngine::Segment* OpsEngine::InsertAfter(Segment* prev) {
  Segment* s = NewSegment();
  s->next = prev->next;
  s->hold = prev->hold;
  s->drop = prev->drop;
  prev->next = s;
  return s;
}

namespace {
inline void PackTag(char* buf, char tag, std::uint32_t v) {
  buf[0] = tag;
  std::memcpy(buf + 1, &v, sizeof(v));
}
}  // namespace

void OpsEngine::EmitStart(Segment* s, SymbolId sym) {
  if (s->live) {
    sink_->StartElement(symbols_->name(sym));
    ++output_events_;
    return;
  }
  char buf[5];
  PackTag(buf, 'S', sym);
  ChargeAppend(s, buf, sizeof(buf));
}

void OpsEngine::EmitEnd(Segment* s, SymbolId sym) {
  if (s->live) {
    sink_->EndElement(symbols_->name(sym));
    ++output_events_;
    return;
  }
  char buf[5];
  PackTag(buf, 'E', sym);
  ChargeAppend(s, buf, sizeof(buf));
}

void OpsEngine::EmitTextSym(Segment* s, SymbolId sym) {
  if (s->live) {
    sink_->Text(symbols_->name(sym));
    ++output_events_;
    return;
  }
  char buf[5];
  PackTag(buf, 'L', sym);
  ChargeAppend(s, buf, sizeof(buf));
}

void OpsEngine::EmitTextBytes(Segment* s, std::string_view text) {
  if (s->live) {
    // The zero-copy path: input text reaching the output of a live head
    // goes straight from the parser's buffer to the sink.
    sink_->Text(text);
    ++output_events_;
    return;
  }
  char buf[5];
  PackTag(buf, 'T', static_cast<std::uint32_t>(text.size()));
  ChargeAppend(s, buf, sizeof(buf));
  ChargeAppend(s, text.data(), text.size());
}

void OpsEngine::ReplayBytes(std::string_view data) {
  const char* p = data.data();
  const char* end = p + data.size();
  while (p < end) {
    const char tag = *p++;
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    p += sizeof(v);
    switch (tag) {
      case 'S':
        sink_->StartElement(symbols_->name(v));
        break;
      case 'E':
        sink_->EndElement(symbols_->name(v));
        break;
      case 'L':
        sink_->Text(symbols_->name(v));
        break;
      default:  // 'T'
        sink_->Text(std::string_view(p, v));
        p += v;
        break;
    }
    ++output_events_;
  }
}

void OpsEngine::FlushHead() {
  while (head_ != nullptr) {
    Segment* s = head_;
    if (s->hold != nullptr) return;  // waits on a pending choice
    if (s->closed) {
      ReplayBytes(s->data);
      head_ = s->next;
      RecycleSegment(s);
      continue;
    }
    if (s->drop) return;  // its writer still runs; nothing will ever show
    if (!s->live) {
      // The head is still being written: drain what it buffered and switch
      // it to write-through until its writer splits or closes it.
      ReplayBytes(s->data);
      s->data.clear();
      s->live = true;
    }
    return;
  }
}

Status OpsEngine::ChargeSteps(std::uint64_t n) {
  if (steps_ >= max_steps_ || n > max_steps_ - steps_) {
    return Status::ResourceExhausted(
        "streaming engine exceeded the step budget");
  }
  steps_ += n;
  return Status::OK();
}

// ------------------------------------------------------------------- ropes

void* OpsEngine::RopeAlloc(std::size_t n) {
  n = (n + 7u) & ~std::size_t{7};
  if (prealloc_cur_ != nullptr &&
      static_cast<std::size_t>(prealloc_end_ - prealloc_cur_) >= n) {
    void* p = prealloc_cur_;
    prealloc_cur_ += n;
    return p;
  }
  // No block armed (text events take no mark, so a direct allocation is
  // lifetime-safe) or — defensively — the static budget was short.
  return arena_.Alloc(n);
}

void OpsEngine::RopeAppend(Rope* rope, const char* bytes, std::uint32_t n) {
  RopeChunk* t = rope->tail;
  if (t == nullptr || t->cap - t->len < n) {
    // A packed record never splits across chunks (live emits replay chunk
    // by chunk), so the chunk is sized for the whole record when the
    // default capacity cannot hold it.
    const std::uint32_t cap = std::max(kRopeChunkCap, n);
    RopeChunk* c =
        static_cast<RopeChunk*>(RopeAlloc(sizeof(RopeChunk) + cap));
    c->next = nullptr;
    c->len = 0;
    c->cap = cap;
    if (t == nullptr) {
      rope->head = c;
    } else {
      t->next = c;
    }
    rope->tail = c;
    t = c;
  }
  std::memcpy(t->bytes() + t->len, bytes, n);
  t->len += n;
}

void OpsEngine::RopePack(Rope* rope, char tag, std::uint32_t v) {
  char buf[5];
  PackTag(buf, tag, v);
  RopeAppend(rope, buf, sizeof(buf));
}

void OpsEngine::RopeEmit(Segment* cur, Rope* rope) {
  for (RopeChunk* c = rope->head; c != nullptr; c = c->next) {
    if (cur->live) {
      ReplayBytes(std::string_view(c->bytes(), c->len));
    } else {
      ChargeAppend(cur, c->bytes(), c->len);
    }
  }
  // Linear discipline: a register is consumed by its one use. Clearing it
  // keeps a buggy double-use from replaying stale chunks.
  *rope = Rope{};
}

OpsEngine::Rope* OpsEngine::MaterializeFile() {
  Rope* file = static_cast<Rope*>(RopeAlloc(sizeof(Rope) * kMaxRopeParams));
  for (std::uint32_t i = 0; i < kMaxRopeParams; ++i) {
    file[i] = i < staged_n_ ? staged_[i] : Rope{};
    staged_[i] = Rope{};
  }
  staged_n_ = 0;
  return file;
}

// ----------------------------------------------------------------- choices

void* OpsEngine::FixedPool::Alloc() {
  void* p = free_;
  if (p != nullptr) {
    free_ = *static_cast<void**>(p);
  } else {
    const std::size_t block = std::max<std::size_t>(4096, size_);
    if (blocks_.empty() || block - used_ < size_) {
      blocks_.push_back(std::make_unique<char[]>(block));
      used_ = 0;
    }
    p = blocks_.back().get() + used_;
    used_ += size_;
  }
  ++live_;
  tracker_->Charge(size_);
  return p;
}

OpsEngine::Frame* OpsEngine::NewFrame(Choice* site) {
  Frame* f = static_cast<Frame*>(frame_pool_.Alloc());
  f->site = site;
  f->value = 0;
  f->refs = 0;
  f->dead = false;
  f->orphan = false;
  std::fill(f->params(), f->params() + plan_->choice_params,
            std::uintptr_t{0});
  ++site->frames;
  return f;
}

void OpsEngine::Unref(std::uintptr_t v) {
  if (v == 0 || (v & 1) != 0) return;
  if (--reinterpret_cast<Frame*>(v)->refs != 0) return;
  // The last holder let go. A pending frame whose consumer still runs is
  // dead: it releases its parameters now, and the consumer drops at its
  // next event. Anything else is freed with what it holds. Iterative —
  // chains of frames can be as long as a sibling list.
  unref_work_.push_back(reinterpret_cast<Frame*>(v));
  auto release = [this](std::uintptr_t u) {
    if (u != 0 && (u & 1) == 0 && --reinterpret_cast<Frame*>(u)->refs == 0) {
      unref_work_.push_back(reinterpret_cast<Frame*>(u));
    }
  };
  while (!unref_work_.empty()) {
    Frame* f = unref_work_.back();
    unref_work_.pop_back();
    if (f->value != 0) {
      release(f->value);
    } else {
      std::uintptr_t* p = f->params();
      for (std::uint32_t i = 0; i < plan_->choice_params; ++i) {
        release(p[i]);
        p[i] = 0;
      }
      if (!f->orphan) {
        f->dead = true;
        continue;
      }
    }
    Choice* c = f->site;
    frame_pool_.Free(f);
    if (--c->frames == 0 && c->done) choice_pool_.Free(c);
  }
}

void OpsEngine::Drop(void* regs) {
  Frame* f = static_cast<Frame*>(regs);
  f->orphan = true;
  ++f->refs;
  Unref(reinterpret_cast<std::uintptr_t>(f));
}

void OpsEngine::SetParams(Frame* f) {
  // The staged values' references move into the frame; the old parameters'
  // are dropped after the copy (a staged value may be an old parameter).
  std::uintptr_t old[kMaxChoiceParams];
  std::uintptr_t* p = f->params();
  const std::uint32_t k = plan_->choice_params;
  for (std::uint32_t i = 0; i < k; ++i) {
    old[i] = p[i];
    p[i] = i < staged_vals_n_ ? staged_vals_[i] : 0;
  }
  staged_vals_n_ = 0;
  for (std::uint32_t i = 0; i < k; ++i) Unref(old[i]);
}

void OpsEngine::Resolve(Frame* f, std::uintptr_t v) {
  // The deciding consumer holds f until the end; v's staged reference
  // becomes the frame's value reference.
  ++f->refs;
  f->value = v;
  std::uintptr_t* p = f->params();
  for (std::uint32_t i = 0; i < plan_->choice_params; ++i) {
    const std::uintptr_t u = p[i];
    p[i] = 0;
    Unref(u);
  }
  Choice* c = f->site;
  if (!c->done && c->root == f) {
    if ((v & 1) != 0) {
      Settle(c, static_cast<std::uint32_t>(v >> 1));
    } else {
      // The site's verdict now follows v: its root reference moves there.
      c->root = reinterpret_cast<Frame*>(v);
      Ref(v);
      Unref(reinterpret_cast<std::uintptr_t>(f));
    }
  }
  Unref(reinterpret_cast<std::uintptr_t>(f));
}

void OpsEngine::Abandon(Choice* c) {
  c->done = true;
  Frame* root = c->root;
  c->root = nullptr;
  // The root holds the site's last frame count until it is released, so
  // the site is freed by whichever frame goes last.
  if (root != nullptr) Unref(reinterpret_cast<std::uintptr_t>(root));
}

void OpsEngine::DropSegment(Segment* s) {
  s->drop = true;
  s->hold = nullptr;
  s->data.clear();
}

void OpsEngine::Settle(Choice* c, std::uint32_t winner) {
  // The residuals' segments are contiguous in the chain, residual by
  // residual, up to the continuation: splits always insert right after
  // their writer's segment.
  Segment** first = c->first();
  std::uint32_t res = 0;
  for (Segment* s = first[0]; s != c->end; s = s->next) {
    while (res + 1 < c->n && s == first[res + 1]) ++res;
    Choice* h = s->hold;
    if (h == nullptr) continue;  // dropped by a nested site already
    if (res == winner) {
      // Released in place; a nested site still pending now waits directly
      // on whatever this site waited on.
      if (h == c) {
        s->hold = c->parent;
      } else if (h->parent == c) {
        h->parent = c->parent;
      }
    } else {
      if (h != c && !h->done) Abandon(h);  // a site inside a losing residual
      DropSegment(s);
    }
  }
  Abandon(c);
}

// -------------------------------------------------------------- execution

#if !defined(__GNUC__) && !defined(__clang__)
#error "the ops core dispatches through labels-as-values (GCC or Clang)"
#endif

void OpsEngine::ExecProgram(const LoweredProgramRef& ref, Segment* cur,
                            SymbolId sym, std::string_view text, void* regs,
                            Consumer* child_out, std::uint32_t* child_n,
                            Consumer* sib_out, std::uint32_t* sib_n) {
  const LoweredInsn* pc = plan_->code.data() + ref.off;
  const LoweredInsn* const end = pc + ref.len;
  Rope* const ropes = static_cast<Rope*>(regs);
  // The frame kChoice* instructions decide: a cluster consumer's own, or a
  // site's root after kChoiceClose. `fresh` holds the frames this program
  // (or this site's entry code) created, by kChoiceNew order.
  Frame* self = static_cast<Frame*>(regs);
  Frame* fresh[kMaxChoiceFresh];
  std::uint32_t n_fresh = 0;

  // Direct-threaded dispatch: each handler jumps straight to the next
  // instruction's handler, giving the branch predictor one indirect target
  // per opcode instead of a single shared switch branch.
  static const void* const kJump[kNumLowerOps] = {
      &&op_open_lit,       &&op_close_lit,       &&op_open_cur,
      &&op_close_cur,      &&op_text_lit,        &&op_text_cur,
      &&op_child,          &&op_sib,             &&op_rope_new,
      &&op_rope_open,      &&op_rope_close,      &&op_rope_text,
      &&op_rope_open_cur,  &&op_rope_close_cur,  &&op_rope_text_cur,
      &&op_rope_splice,    &&op_rope_child,      &&op_rope_sib,
      &&op_rope_emit,      &&op_choice_open,     &&op_choice_next,
      &&op_choice_close,   &&op_choice_new,      &&op_choice_arg,
      &&op_choice_spawn_child, &&op_choice_spawn_sib, &&op_choice_resolve,
  };
#define XQMFT_OPS_DISPATCH()                          \
  do {                                                \
    if (pc == end) goto op_done;                      \
    goto* kJump[static_cast<unsigned>(pc->op)];       \
  } while (0)

  XQMFT_OPS_DISPATCH();
op_open_lit:
  EmitStart(cur, pc->arg);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_close_lit:
  EmitEnd(cur, pc->arg);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_open_cur:
  EmitStart(cur, sym);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_close_cur:
  EmitEnd(cur, sym);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_text_lit:
  EmitTextSym(cur, pc->arg);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_text_cur:
  EmitTextBytes(cur, text);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_child: {
  const std::uint32_t q = pc->arg;
  ++pc;
  if (pc == end) {
    // Tail spawn: the child inherits the writer's segment outright (and its
    // register file or frame — the identity parameter pass compiles to
    // this).
    child_out[(*child_n)++] = Consumer{q, cur, regs};
    return;
  }
  Segment* child_seg = SplitAfter(cur);
  child_out[(*child_n)++] = Consumer{q, child_seg, regs};
  cur = InsertAfter(child_seg);
  XQMFT_OPS_DISPATCH();
}
op_sib: {
  const std::uint32_t q = pc->arg;
  ++pc;
  if (pc == end) {
    sib_out[(*sib_n)++] = Consumer{q, cur, regs};
    return;
  }
  Segment* sib_seg = SplitAfter(cur);
  sib_out[(*sib_n)++] = Consumer{q, sib_seg, regs};
  cur = InsertAfter(sib_seg);
  XQMFT_OPS_DISPATCH();
}
op_rope_new:
  staged_[staged_n_++] = Rope{};
  ++pc;
  XQMFT_OPS_DISPATCH();
op_rope_open:
  RopePack(&staged_[staged_n_ - 1], 'S', pc->arg);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_rope_close:
  RopePack(&staged_[staged_n_ - 1], 'E', pc->arg);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_rope_text:
  RopePack(&staged_[staged_n_ - 1], 'L', pc->arg);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_rope_open_cur:
  RopePack(&staged_[staged_n_ - 1], 'S', sym);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_rope_close_cur:
  RopePack(&staged_[staged_n_ - 1], 'E', sym);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_rope_text_cur: {
  Rope* r = &staged_[staged_n_ - 1];
  char hdr[5];
  PackTag(hdr, 'T', static_cast<std::uint32_t>(text.size()));
  RopeChunk* t = r->tail;
  const std::uint32_t n = 5 + static_cast<std::uint32_t>(text.size());
  if (t == nullptr || t->cap - t->len < n) {
    const std::uint32_t cap = std::max(kRopeChunkCap, n);
    RopeChunk* c =
        static_cast<RopeChunk*>(RopeAlloc(sizeof(RopeChunk) + cap));
    c->next = nullptr;
    c->len = 0;
    c->cap = cap;
    if (t == nullptr) {
      r->head = c;
    } else {
      t->next = c;
    }
    r->tail = c;
    t = c;
  }
  std::memcpy(t->bytes() + t->len, hdr, sizeof(hdr));
  std::memcpy(t->bytes() + t->len + sizeof(hdr), text.data(), text.size());
  t->len += n;
  ++pc;
  XQMFT_OPS_DISPATCH();
}
op_rope_splice: {
  Rope& src = ropes[pc->arg];
  if (src.head != nullptr) {
    Rope& dst = staged_[staged_n_ - 1];
    if (dst.tail != nullptr) {
      dst.tail->next = src.head;
      dst.tail = src.tail;
    } else {
      dst = src;
    }
    src = Rope{};
  }
  ++pc;
  XQMFT_OPS_DISPATCH();
}
op_rope_child: {
  const std::uint32_t q = pc->arg;
  Rope* file = MaterializeFile();
  ++pc;
  if (pc == end) {
    child_out[(*child_n)++] = Consumer{q, cur, file};
    return;
  }
  Segment* child_seg = SplitAfter(cur);
  child_out[(*child_n)++] = Consumer{q, child_seg, file};
  cur = InsertAfter(child_seg);
  XQMFT_OPS_DISPATCH();
}
op_rope_sib: {
  const std::uint32_t q = pc->arg;
  Rope* file = MaterializeFile();
  ++pc;
  if (pc == end) {
    sib_out[(*sib_n)++] = Consumer{q, cur, file};
    return;
  }
  Segment* sib_seg = SplitAfter(cur);
  sib_out[(*sib_n)++] = Consumer{q, sib_seg, file};
  cur = InsertAfter(sib_seg);
  XQMFT_OPS_DISPATCH();
}
op_rope_emit:
  RopeEmit(cur, &ropes[pc->arg]);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_choice_open: {
  // The first residual's held segment. Inside a losing residual the site
  // is moot from the start: its segments drop and its frames are dead.
  Choice* c = static_cast<Choice*>(choice_pool_.Alloc());
  c->root = nullptr;
  c->parent = cur->hold;
  c->end = nullptr;
  c->n = 1;
  c->frames = 0;
  c->done = cur->drop;
  cur = SplitAfter(cur);
  if (!cur->drop) cur->hold = c;
  c->first()[0] = cur;
  open_choices_.push_back(c);
  ++pc;
  XQMFT_OPS_DISPATCH();
}
op_choice_next: {
  Choice* c = open_choices_.back();
  cur = SplitAfter(cur);
  if (!cur->drop) cur->hold = c;
  c->first()[c->n++] = cur;
  ++pc;
  XQMFT_OPS_DISPATCH();
}
op_choice_close: {
  Choice* c = open_choices_.back();
  open_choices_.pop_back();
  cur = SplitAfter(cur);
  if (!cur->drop) cur->hold = c->parent;
  c->end = cur;
  self = NewFrame(c);
  if (!c->done) {
    c->root = self;
    self->refs = 1;  // held by the site until it settles
  }
  n_fresh = 0;
  ++pc;
  XQMFT_OPS_DISPATCH();
}
op_choice_new:
  fresh[n_fresh++] = NewFrame(self->site);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_choice_arg: {
  const std::uint32_t index = pc->arg & kChoiceIndexMask;
  std::uintptr_t v;
  switch (static_cast<ChoiceOperand>(pc->arg >> kChoiceKindShift)) {
    case ChoiceOperand::kResidual:
      v = (std::uintptr_t{index} << 1) | 1;
      break;
    case ChoiceOperand::kOwn:
      v = Chase(self->params()[index]);
      break;
    default:  // kFresh
      v = reinterpret_cast<std::uintptr_t>(fresh[index]);
      break;
  }
  Ref(v);
  staged_vals_[staged_vals_n_++] = v;
  ++pc;
  XQMFT_OPS_DISPATCH();
}
op_choice_spawn_child: {
  const std::uint32_t target = pc->arg >> kChoiceKindShift;
  Frame* f = target == 0 ? self : fresh[target - 1];
  SetParams(f);
  child_out[(*child_n)++] =
      Consumer{pc->arg & kChoiceIndexMask, nullptr, f};
  ++pc;
  XQMFT_OPS_DISPATCH();
}
op_choice_spawn_sib: {
  const std::uint32_t target = pc->arg >> kChoiceKindShift;
  Frame* f = target == 0 ? self : fresh[target - 1];
  SetParams(f);
  sib_out[(*sib_n)++] = Consumer{pc->arg & kChoiceIndexMask, nullptr, f};
  ++pc;
  XQMFT_OPS_DISPATCH();
}
op_choice_resolve:
  staged_vals_n_ = 0;
  Resolve(self, staged_vals_[0]);
  ++pc;
  XQMFT_OPS_DISPATCH();
op_done:
  // Cluster programs have no segment; everything else closes its own.
  if (cur != nullptr) cur->closed = true;
#undef XQMFT_OPS_DISPATCH
}

Status OpsEngine::Prime() {
  if (!status_.ok()) return status_;
  if (started_) return Status::OK();
  started_ = true;
  Segment* root = NewSegment();
  head_ = root;
  Scope scope;
  scope.mark = arena_.TakeMark();
  scope.items = AllocConsumers(1);
  scope.items[0] = Consumer{static_cast<std::uint32_t>(plan_->initial), root,
                            nullptr};
  scope.count = 1;
  scope.cap = 1;
  scopes_.push_back(scope);
  total_consumers_ = 1;
  spawned_ = 1;
  // Nothing is emitted before the first event (parity with the table
  // engine, whose root call blocks on the pending input cell), but the root
  // segment goes live so the first event's output streams through.
  FlushHead();
  return Status::OK();
}

Status OpsEngine::Feed(const XmlEvent& event) {
  if (!status_.ok()) return status_;
  if (!started_) XQMFT_RETURN_NOT_OK(Prime());
  if (done_) return Status::OK();  // output complete; ignore (table parity)
  // Cancellation check precedes the event's programs AND the FlushHead at
  // the bottom: a tripped run commits nothing past the previous event.
  if (cancel_ != nullptr &&
      ++events_since_cancel_check_ >= cancel_check_events_) {
    events_since_cancel_check_ = 0;
    XQMFT_RETURN_NOT_OK(Sticky(cancel_->Check()));
  }
  switch (event.type) {
    case XmlEventType::kStartElement:
      XQMFT_RETURN_NOT_OK(Sticky(OnStartElement(event)));
      break;
    case XmlEventType::kText:
      XQMFT_RETURN_NOT_OK(Sticky(OnText(event)));
      break;
    case XmlEventType::kEndElement:
      XQMFT_RETURN_NOT_OK(Sticky(OnEndElement()));
      break;
    case XmlEventType::kEndOfDocument:
      XQMFT_RETURN_NOT_OK(Sticky(OnEndOfDocument()));
      break;
    default:
      return Sticky(Status::Internal("unknown event type"));
  }
  FlushHead();
  if (total_consumers_ == 0) done_ = true;
  return Status::OK();
}

Status OpsEngine::OnStartElement(const XmlEvent& event) {
  if (skip_depth_ > 0) {
    ++skip_depth_;
    return Status::OK();
  }
  Scope& top = scopes_.back();
  if (top.count == 0) {
    skip_depth_ = 1;
    return Status::OK();
  }
  const SymbolId sym =
      event.symbol != kInvalidSymbol
          ? event.symbol
          : symbols_->Intern(NodeKind::kElement, event.name);

  XQMFT_RETURN_NOT_OK(ChargeSteps(top.count));

  // Resolve every consumer's program first: sibling rewrites may reuse
  // top.items in place, so nothing may read it once execution starts.
  scratch_.clear();
  std::uint32_t total_child = 0;
  std::uint32_t total_sib = 0;
  std::uint32_t total_prealloc = 0;
  bool all_simple = true;
  for (std::uint32_t i = 0; i < top.count; ++i) {
    const Consumer& c = top.items[i];
    const LoweredState& st = plan_->states[c.state];
    if (st.choice && Dead(c.regs)) {
      Drop(c.regs);
      all_simple = false;  // the survivors are rebuilt below
      continue;
    }
    const LoweredProgramRef* prog =
        sym < plan_->width ? &st.element[sym] : &st.element_default;
    all_simple = all_simple && prog->simple_sib;
    total_child += prog->n_child;
    total_sib += prog->n_sib;
    total_prealloc += prog->prealloc_bytes;
    scratch_.push_back(PendingExec{prog, c.seg, c.regs});
  }

  if (all_simple) {
    // Every consumer just retargets over the siblings and skips the
    // subtree: no allocation, no segment traffic — the scan hot path.
    // Register files ride along untouched (the identity parameter pass).
    for (std::uint32_t i = 0; i < top.count; ++i) {
      top.items[i].state = plan_->code[scratch_[i].prog->off].arg;
    }
    spawned_ += top.count;
    skip_depth_ = 1;
    return Status::OK();
  }

  // Sibling continuations replace the scope's consumers. Reuse the array in
  // place when it fits (a constant-size consumer set never allocates at
  // steady depth); grow geometrically otherwise. Growth happens before the
  // child mark so the array survives the child scope's reset — the retired
  // smaller arrays leak only until the parent closes, bounded by the
  // geometric sum.
  Consumer* sibs = top.items;
  std::uint32_t sib_cap = top.cap;
  if (sib_cap < total_sib) {
    sib_cap = std::max(total_sib, top.cap * 2);
    sibs = AllocConsumers(sib_cap);
  }
  // Arm the pre-mark rope block: chunks appended and register files staged
  // during this event may be handed to sibling continuations, which outlive
  // the subtree reset — so their bytes must precede the mark. The static
  // per-program budget makes the block an upper bound.
  if (total_prealloc > 0) {
    char* block = static_cast<char*>(arena_.Alloc(total_prealloc));
    prealloc_cur_ = block;
    prealloc_end_ = block + total_prealloc;
  } else {
    prealloc_cur_ = nullptr;
    prealloc_end_ = nullptr;
  }
  const BumpArena::Mark mark = arena_.TakeMark();
  Consumer* children =
      total_child > 0 ? AllocConsumers(total_child) : nullptr;

  std::uint32_t n_child = 0;
  std::uint32_t n_sib = 0;
  for (const PendingExec& p : scratch_) {
    ExecProgram(*p.prog, p.seg, sym, std::string_view(), p.regs, children,
                &n_child, sibs, &n_sib);
  }

  total_consumers_ += n_sib + n_child;
  total_consumers_ -= top.count;
  spawned_ += n_sib + n_child;
  top.items = sibs;
  top.count = n_sib;
  top.cap = sib_cap;

  if (n_child == 0) {
    arena_.Reset(mark);
    skip_depth_ = 1;
  } else {
    Scope scope;
    scope.items = children;
    scope.count = n_child;
    scope.cap = n_child;
    scope.mark = mark;
    scopes_.push_back(scope);
  }
  return Status::OK();
}

Status OpsEngine::OnText(const XmlEvent& event) {
  if (skip_depth_ > 0) return Status::OK();
  Scope& top = scopes_.back();
  if (top.count == 0) return Status::OK();

  XQMFT_RETURN_NOT_OK(ChargeSteps(top.count));

  // Text events take no mark: rope chunks and register files alloc straight
  // from the arena (they live until the enclosing element closes — exactly
  // as long as any consumer that can hold them).
  prealloc_cur_ = nullptr;
  prealloc_end_ = nullptr;

  scratch_.clear();
  std::uint32_t total_sib = 0;
  bool all_simple = true;
  // Index of the text literal the content equals: probed once, and only
  // when some consumer's state has text cases (-1 none, -2 not probed).
  int literal = -2;
  for (std::uint32_t i = 0; i < top.count; ++i) {
    const Consumer& c = top.items[i];
    const LoweredState& st = plan_->states[c.state];
    if (st.choice && Dead(c.regs)) {
      Drop(c.regs);
      all_simple = false;
      continue;
    }
    const LoweredProgramRef* prog = &st.text;
    if (!st.text_cases.empty()) {
      if (literal == -2) literal = MatchLiteral(event.text);
      if (literal >= 0) {
        prog = &st.text_cases[static_cast<std::size_t>(literal)];
      }
    }
    all_simple = all_simple && prog->simple_sib;
    total_sib += prog->n_sib;
    scratch_.push_back(PendingExec{prog, c.seg, c.regs});
  }

  if (all_simple) {
    for (std::uint32_t i = 0; i < top.count; ++i) {
      top.items[i].state = plan_->code[scratch_[i].prog->off].arg;
    }
    spawned_ += top.count;
    return Status::OK();
  }

  Consumer* sibs = top.items;
  std::uint32_t sib_cap = top.cap;
  if (sib_cap < total_sib) {
    sib_cap = std::max(total_sib, top.cap * 2);
    sibs = AllocConsumers(sib_cap);
  }

  // Text programs never spawn children (x1 over a text node lowers to the
  // callee's spliced epsilon program), so no child array and no scope push.
  std::uint32_t n_sib = 0;
  for (const PendingExec& p : scratch_) {
    std::uint32_t n_child = 0;
    ExecProgram(*p.prog, p.seg, kInvalidSymbol, event.text, p.regs, nullptr,
                &n_child, sibs, &n_sib);
  }

  total_consumers_ += n_sib;
  total_consumers_ -= top.count;
  spawned_ += n_sib;
  top.items = sibs;
  top.count = n_sib;
  top.cap = sib_cap;
  return Status::OK();
}

int OpsEngine::MatchLiteral(std::string_view text) const {
  const std::vector<std::string>& lits = plan_->text_literals;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (lits[i] == text) return static_cast<int>(i);
  }
  return -1;
}

Status OpsEngine::OnEndElement() {
  if (skip_depth_ > 0) {
    --skip_depth_;
    return Status::OK();
  }
  if (scopes_.size() == 1) {
    return Status::InvalidArgument("unbalanced end element event");
  }
  Scope top = scopes_.back();
  XQMFT_RETURN_NOT_OK(ChargeSteps(top.count));
  RunEpsilon(top);
  scopes_.pop_back();
  arena_.Reset(top.mark);
  return Status::OK();
}

void OpsEngine::RunEpsilon(const Scope& scope) {
  for (std::uint32_t i = 0; i < scope.count; ++i) {
    const Consumer& c = scope.items[i];
    const LoweredState& st = plan_->states[c.state];
    if (st.choice && Dead(c.regs)) {
      Drop(c.regs);
      continue;
    }
    std::uint32_t n_child = 0;
    std::uint32_t n_sib = 0;
    // Epsilon programs only emit, emit registers, or resolve frames; they
    // never allocate. ExecProgram closes the segment.
    ExecProgram(st.eps, c.seg, kInvalidSymbol, std::string_view(), c.regs,
                nullptr, &n_child, nullptr, &n_sib);
  }
  total_consumers_ -= scope.count;
}

Status OpsEngine::OnEndOfDocument() {
  if (skip_depth_ > 0 || scopes_.size() > 1) {
    return Status::InvalidArgument("end of document with unclosed elements");
  }
  Scope& top = scopes_.back();
  XQMFT_RETURN_NOT_OK(ChargeSteps(top.count));
  RunEpsilon(top);
  top.count = 0;
  input_done_ = true;
  return Status::OK();
}

Status OpsEngine::Finish() {
  if (status_.ok()) {
    if (!started_) Prime();  // Sticky() inside records any failure
    if (status_.ok() && !done_ && !input_done_) {
      XmlEvent end;
      end.type = XmlEventType::kEndOfDocument;
      Feed(end);
    }
    if (status_.ok() && !done_) {
      // Unreachable via the public API (end-of-document either completes
      // the run or errors); guard against direct misuse.
      Sticky(
          Status::Internal("streaming engine finished with output pending"));
    }
  }
  return status_;
}

}  // namespace lower
}  // namespace xqmft
