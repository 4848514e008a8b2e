// Register-machine execution core for lowered plans.
//
// Where the table engine materializes the output as a lazy thunk graph, the
// ops engine executes one straight-line program per (consumer, input event)
// and never allocates a thunk:
//
//   * A *consumer* is a (state, output segment, register file) triple
//     positioned in some forest of the input. Each element/text event runs
//     the consumer's program for that label; kSib instructions yield the
//     consumer's continuations over the following siblings, kChild
//     instructions spawn consumers over the element's children. At the end
//     of a forest (EndElement of the parent) the epsilon program runs and
//     the consumer dies.
//   * Consumer records live in a bump arena. The static lowering analysis
//     already proved them non-escaping — a consumer never outlives the
//     subtree of the scope that spawned it — so closing an element resets
//     the arena to the mark taken when it opened, retiring the whole
//     subtree's records in O(1) instead of refcounting each cell.
//   * Output is a chain of *segments*: single-writer byte buffers ordered by
//     final output position. A program writes its emissions into its
//     segment; a spawn splits the segment so the spawned consumer's output
//     lands exactly where the call appeared in the rule. The chain head
//     drains to the sink as soon as its writer closes it — and an *open*
//     head goes "live", forwarding writes straight to the sink with no
//     buffering, which is the steady state of a single-consumer scan.
//   * Append-only accumulating parameters are *rope registers*: per-consumer
//     byte ropes whose chunks come from the same mark/reset arena as the
//     consumer records (no refcounting). A program stages the callee's
//     register file with the kRope* opcodes — appends are packed output
//     records, a splice is an O(1) chunk-chain move (the compile-time
//     linearity discipline makes moves safe), and kRopeEmit copies a
//     register into the output stream. Chunks are drawn from a block
//     pre-allocated *before* the event's child mark (LoweredProgramRef::
//     prealloc_bytes bounds it statically), so ropes handed to sibling
//     continuations survive the subtree reset.
//   * Selector clusters (XPath predicates) run on *choice frames*. A site
//     writes each residual argument into its own *held* segment: a held
//     segment never goes live and never drains, so it blocks the chain
//     behind it and the output stays in order. The cluster's consumers
//     carry a frame in their register slot — the pending value a rule's
//     bare y_i resolves — whose parameters are residual indices or further
//     frames. When the site's root frame resolves to a residual, the
//     winner's segments (and every segment split from them) are released in
//     place, the losers' are cleared and keep dropping writes until their
//     writers finish, and every frame of the site is dead. Frames are
//     refcounted, so a frame no longer reachable from the site dies as soon
//     as the frame that held it resolves, and its consumer drops at its
//     next event (this keeps q04-shaped predicates linear). Frames and
//     sites come from fixed-size free-list pools rather than the arena: a
//     frame created deep in a subtree may be the value of a frame created
//     above it, so scope lifetimes do not bound theirs.
//
// Same contract as the table machine behind Engine: done() may become true
// before the input ends (drivers stop feeding), errors are sticky, Finish
// synthesizes the end-of-document. Selection between the two lives in
// stream/engine.cc.
#ifndef XQMFT_LOWER_OPS_ENGINE_H_
#define XQMFT_LOWER_OPS_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lower/lower.h"
#include "util/cancel.h"
#include "util/memory_tracker.h"
#include "util/status.h"
#include "xml/events.h"
#include "xml/symbol_table.h"

namespace xqmft {

namespace lower {

class OpsEngine {
 public:
  /// `plan` must outlive the engine (it is the CompiledPlan-cached lowering).
  /// `symbols` is the run-local table events are interned through; `tracker`
  /// accounts segment buffers and live consumer records (the ops-engine
  /// analogue of the cell/expr accounting behind Figure 4). `cancel` (may be
  /// null) is polled every `cancel_check_events` fed events; a trip becomes
  /// the sticky run status before the event does any work, so the sink ends
  /// at the previous event boundary and Finish never drains the segments a
  /// cancelled run left buffered (stream/engine.h's cancelled-run contract).
  OpsEngine(const LoweredPlan& plan, OutputSink* sink, SymbolTable* symbols,
            MemoryTracker* tracker, std::uint64_t max_steps,
            const CancelToken* cancel = nullptr,
            std::uint32_t cancel_check_events = 128);
  ~OpsEngine();
  OpsEngine(const OpsEngine&) = delete;
  OpsEngine& operator=(const OpsEngine&) = delete;

  Status Prime();
  Status Feed(const XmlEvent& event);
  /// Feeds the end-of-document if the driver has not; sticky status.
  Status Finish();
  bool done() const { return done_; }

  std::size_t output_events() const { return output_events_; }
  std::uint64_t steps() const { return steps_; }
  /// Consumer records served from the arena (reported as cells_arena).
  std::uint64_t consumers_spawned() const { return spawned_; }

 private:
  // A single-writer span of the output stream. `data` buffers packed records
  // ('S'/'E'/'L' + symbol id, 'T' + length + bytes) until the segment
  // becomes the chain head; a live head skips the buffer entirely.
  struct Choice;

  // A single-writer span of the output stream. `data` buffers packed records
  // ('S'/'E'/'L' + symbol id, 'T' + length + bytes) until the segment
  // becomes the chain head; a live head skips the buffer entirely. Segments
  // split from a held or dropped segment inherit its state.
  struct Segment {
    std::string data;
    Segment* next = nullptr;
    Choice* hold = nullptr;  ///< innermost pending site it waits on
    bool closed = false;  ///< writer finished; drains when it becomes head
    bool live = false;    ///< is the open head: writes go straight to sink
    bool drop = false;    ///< belongs to a losing residual: writes vanish
  };

  // One rope-register chunk: a header followed by `cap` payload bytes, all
  // from the bump arena. Appends never split a packed record across chunks,
  // so a live-segment emit can replay chunk by chunk.
  struct RopeChunk {
    RopeChunk* next;
    std::uint32_t len;
    std::uint32_t cap;
    char* bytes() { return reinterpret_cast<char*>(this + 1); }
    const char* bytes() const { return reinterpret_cast<const char*>(this + 1); }
  };

  // A rope register: a chain of chunks. Plain old data — register files are
  // arena arrays, moved by pointer swap (the linearity discipline).
  struct Rope {
    RopeChunk* head = nullptr;
    RopeChunk* tail = nullptr;
  };

  struct Consumer {
    std::uint32_t state;
    Segment* seg;  ///< null for cluster states, which never write
    /// Rope* register file (null for parameter-free states), or the Frame*
    /// a cluster state decides (LoweredState::choice).
    void* regs;
  };

  // A frame: the pending value of one cluster call, plus the parameters of
  // the consumer deciding it (trailing, LoweredPlan::choice_params slots).
  // Values are 0 (none), a residual index r as 2r+1, or a Frame*. Every
  // pending frame has exactly one deciding consumer; `refs` counts the
  // other holders (parameter slots, resolved frames' values, the site's
  // root). A pending frame whose refs reach 0 is dead; a frame is freed
  // once it has neither holders nor a consumer.
  struct Frame {
    Choice* site;
    std::uintptr_t value;  ///< 0 while pending
    std::uint32_t refs;
    bool dead;    ///< unreachable before it resolved: its consumer drops
    bool orphan;  ///< pending, but its consumer dropped it
    std::uintptr_t* params() {
      return reinterpret_cast<std::uintptr_t*>(this + 1);
    }
  };

  // One choice site: its residuals' first segments (trailing, `n` of them),
  // the continuation segment after them, and the root frame its verdict
  // follows. Freed once done and no frame of it is left.
  struct Choice {
    Frame* root;
    Choice* parent;  ///< pending site the caller's segment waits on
    Segment* end;
    std::uint32_t n;
    std::uint32_t frames;  ///< live frames of this site
    bool done;  ///< resolved, or dropped inside a losing residual
    Segment** first() { return reinterpret_cast<Segment**>(this + 1); }
  };

  // Fixed-size free-list allocator for frames and sites. Live objects are
  // charged to the tracker, like the arena's live bytes.
  class FixedPool {
   public:
    explicit FixedPool(MemoryTracker* tracker) : tracker_(tracker) {}
    ~FixedPool() { tracker_->Release(live_ * size_); }
    void set_size(std::size_t n) {
      size_ = std::max<std::size_t>((n + 7) & ~std::size_t{7}, sizeof(void*));
    }
    void* Alloc();
    void Free(void* p) {
      *static_cast<void**>(p) = free_;
      free_ = p;
      --live_;
      tracker_->Release(size_);
    }

   private:
    MemoryTracker* tracker_;
    std::vector<std::unique_ptr<char[]>> blocks_;
    void* free_ = nullptr;
    std::size_t size_ = sizeof(void*);
    std::size_t used_ = 0;  ///< bytes carved from the newest block
    std::size_t live_ = 0;
  };

  // Bump allocator for consumer records. Reset(mark) retires everything
  // allocated since Mark() in O(1); chunks are retained for reuse. Only the
  // live (allocated-since-reset) bytes are charged to the tracker, matching
  // how the slab engines charge live cells but not free-list capacity.
  class BumpArena {
   public:
    struct Mark {
      std::size_t chunk = 0;
      std::size_t off = 0;
      std::size_t live = 0;
    };

    explicit BumpArena(MemoryTracker* tracker) : tracker_(tracker) {}
    ~BumpArena() { tracker_->Release(live_); }

    void* Alloc(std::size_t n);
    Mark TakeMark() const { return Mark{chunk_, off_, live_}; }
    void Reset(const Mark& m) {
      tracker_->Release(live_ - m.live);
      chunk_ = m.chunk;
      off_ = m.off;
      live_ = m.live;
    }

   private:
    struct Chunk {
      std::unique_ptr<char[]> bytes;
      std::size_t size = 0;
    };

    MemoryTracker* tracker_;
    std::vector<Chunk> chunks_;
    std::size_t chunk_ = 0;  ///< current chunk index
    std::size_t off_ = 0;    ///< bump offset in the current chunk
    std::size_t live_ = 0;   ///< bytes allocated since the outermost reset
  };

  // The consumers positioned in one open forest: the top-level forest for
  // scopes_[0], an open element's children otherwise. `mark` is the arena
  // position when the scope opened; closing the scope resets to it.
  struct Scope {
    Consumer* items = nullptr;
    std::uint32_t count = 0;
    std::uint32_t cap = 0;  ///< in-place reuse bound for sibling rewrites
    BumpArena::Mark mark;
  };

  // Program resolution snapshot taken before execution: sibling rewrites may
  // reuse the scope's own array in place, so consumers are copied out first.
  struct PendingExec {
    const LoweredProgramRef* prog;
    Segment* seg;
    void* regs;
  };

  Status Sticky(Status s) {
    if (!s.ok() && status_.ok()) status_ = std::move(s);
    return status_.ok() ? Status::OK() : status_;
  }
  Status ChargeSteps(std::uint64_t n);

  Status OnStartElement(const XmlEvent& event);
  Status OnText(const XmlEvent& event);
  Status OnEndElement();
  Status OnEndOfDocument();
  void RunEpsilon(const Scope& scope);  ///< the scope's forest has ended
  int MatchLiteral(std::string_view text) const;  ///< index, or -1

  // Runs one program over the current event. `cur` is the consumer's
  // segment; `regs` its register file or frame. Spawns append to
  // child_out/sib_out (counts via *child_n / *sib_n). Closes `cur` unless
  // the final instruction handed it off.
  void ExecProgram(const LoweredProgramRef& ref, Segment* cur, SymbolId sym,
                   std::string_view text, void* regs, Consumer* child_out,
                   std::uint32_t* child_n, Consumer* sib_out,
                   std::uint32_t* sib_n);

  Consumer* AllocConsumers(std::uint32_t n) {
    return static_cast<Consumer*>(arena_.Alloc(n * sizeof(Consumer)));
  }

  Segment* NewSegment();
  void RecycleSegment(Segment* s);
  void ChargeAppend(Segment* s, const char* bytes, std::size_t n);
  Segment* SplitAfter(Segment* cur);
  Segment* InsertAfter(Segment* prev);

  void EmitStart(Segment* s, SymbolId sym);
  void EmitEnd(Segment* s, SymbolId sym);
  void EmitTextSym(Segment* s, SymbolId sym);
  void EmitTextBytes(Segment* s, std::string_view text);
  void ReplayBytes(std::string_view data);
  void FlushHead();

  // Rope machinery. RopeAlloc serves from the event's pre-mark block when
  // one is armed (element events) and falls back to the arena (text events
  // take no mark, so a direct allocation is lifetime-safe there).
  void* RopeAlloc(std::size_t n);
  void RopeAppend(Rope* rope, const char* bytes, std::uint32_t n);
  void RopePack(Rope* rope, char tag, std::uint32_t v);
  void RopeEmit(Segment* cur, Rope* rope);
  Rope* MaterializeFile();

  // Choice machinery.
  Frame* NewFrame(Choice* site);
  void Drop(void* regs);  ///< a dead frame's consumer lets go of it
  static bool Dead(const void* regs) {
    const Frame* f = static_cast<const Frame*>(regs);
    return f->dead || f->site->done;
  }
  static std::uintptr_t Chase(std::uintptr_t v) {
    while (v != 0 && (v & 1) == 0 &&
           reinterpret_cast<Frame*>(v)->value != 0) {
      v = reinterpret_cast<Frame*>(v)->value;
    }
    return v;
  }
  static void Ref(std::uintptr_t v) {
    if (v != 0 && (v & 1) == 0) ++reinterpret_cast<Frame*>(v)->refs;
  }
  void Unref(std::uintptr_t v);
  void SetParams(Frame* f);  ///< the staged values become f's parameters
  void Resolve(Frame* f, std::uintptr_t v);
  void Settle(Choice* c, std::uint32_t winner);
  void Abandon(Choice* c);  ///< done: release the root, free when empty
  void DropSegment(Segment* s);

  const LoweredPlan* plan_;
  OutputSink* sink_;
  SymbolTable* symbols_;
  MemoryTracker* tracker_;
  const std::uint64_t max_steps_;
  const CancelToken* cancel_;
  const std::uint32_t cancel_check_events_;
  std::uint32_t events_since_cancel_check_ = 0;

  BumpArena arena_;
  std::vector<std::unique_ptr<Segment>> all_segments_;
  Segment* free_segments_ = nullptr;
  std::size_t charged_bytes_ = 0;  ///< tracker balance owed by segments

  Segment* head_ = nullptr;  ///< oldest undrained segment of the chain
  std::vector<Scope> scopes_;
  std::vector<PendingExec> scratch_;
  std::uint64_t skip_depth_ = 0;     ///< open elements with no consumer
  std::uint64_t total_consumers_ = 0;

  // Staged register file for the next rope spawn, and the event's pre-mark
  // allocation block (see LoweredProgramRef::prealloc_bytes).
  Rope staged_[kMaxRopeParams];
  std::uint32_t staged_n_ = 0;
  char* prealloc_cur_ = nullptr;
  char* prealloc_end_ = nullptr;

  // Choice state: sites between kChoiceOpen and kChoiceClose (residual
  // code can open nested sites), the values staged for the next frame, and
  // the worklist Unref cascades through.
  std::vector<Choice*> open_choices_;
  std::uintptr_t staged_vals_[kMaxChoiceParams];
  std::uint32_t staged_vals_n_ = 0;
  std::vector<Frame*> unref_work_;
  FixedPool frame_pool_;
  FixedPool choice_pool_;

  bool started_ = false;
  bool input_done_ = false;
  bool done_ = false;
  Status status_ = Status::OK();
  std::uint64_t steps_ = 0;
  std::uint64_t spawned_ = 0;
  std::size_t output_events_ = 0;
};

}  // namespace lower
}  // namespace xqmft

#endif  // XQMFT_LOWER_OPS_ENGINE_H_
