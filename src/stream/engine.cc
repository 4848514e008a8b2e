#include "stream/engine.h"

#include <string_view>
#include <vector>

#include "lower/lower.h"
#include "lower/ops_engine.h"
#include "mft/dispatch.h"
#include "stream/cells.h"
#include "util/intrusive_ptr.h"
#include "util/ref_string.h"
#include "util/slab.h"

namespace xqmft {

// TU-local, but in a named namespace (not anonymous) so Engine::Impl — an
// external-linkage class — can hold the table machine without tripping
// -Wsubobject-linkage.
namespace engine_detail {

enum class ExprKind : unsigned char {
  kNil,
  kCons,  ///< an output node: label, child forest, following forest
  kCat,   ///< concatenation of two forests
  kCall,  ///< suspended state call q(cell, args...)
  kInd,   ///< indirection to the reduced form
};

class Expr;

// Allocation context shared by every thunk of one engine run (one pointer
// per node instead of tracker + slab). Exprs must not outlive their arena.
struct ExprArena {
  explicit ExprArena(MemoryTracker* t) : tracker(t) {}
  MemoryTracker* tracker;
  Slab<Expr> slab;
};

// Output labels are interned ids resolved only at the sink boundary; the
// one content an Expr can hold is dynamic text referenced from the input by
// a %t rule (symbol_ == kInvalidSymbol then) — a RefString sharing the
// cell's buffer, so instantiating and rewriting text thunks never copies
// bytes. Storage comes from the engine's slab, so steady-state thunk
// turnover is allocation-free.
class Expr : public RefCounted {
 public:
  explicit Expr(ExprArena* arena) : arena_(arena) {
    arena_->tracker->Charge(sizeof(Expr));
  }
  ~Expr() override {
    arena_->tracker->Release(sizeof(Expr) +
                             args_.capacity() * sizeof(IntrusivePtr<Expr>));
    // Flatten the destruction of fully-owned expression chains (Ind/Cons
    // spines can be as long as the output stream).
    std::vector<IntrusivePtr<Expr>> work;
    auto take = [&work](IntrusivePtr<Expr>* p) {
      if (*p) work.push_back(std::move(*p));
    };
    take(&child);
    take(&next);
    while (!work.empty()) {
      IntrusivePtr<Expr> e = std::move(work.back());
      work.pop_back();
      if (e->ref_count() == 1) {
        take(&e->child);
        take(&e->next);
        for (IntrusivePtr<Expr>& a : e->args_) take(&a);
      }
    }
  }

  ExprKind kind = ExprKind::kNil;

  // kCons
  NodeKind node_kind = NodeKind::kElement;
  SymbolId symbol = kInvalidSymbol;  ///< interned label; invalid => text_
  IntrusivePtr<Expr> child;  // also: kCat left, kInd target
  IntrusivePtr<Expr> next;   // also: kCat right

  // kCall
  StateId state = -1;
  IntrusivePtr<Cell> cell;

  std::string_view text() const { return text_.view(); }
  const RefString& text_ref() const { return text_; }
  // Shares the buffer (the RefString self-charges the tracker for its
  // payload, once, however many thunks reference it).
  void set_text(const RefString& t) { text_ = t; }
  void clear_text() { text_.reset(); }

  const std::vector<IntrusivePtr<Expr>>& args() const { return args_; }
  void set_args(std::vector<IntrusivePtr<Expr>> a) {
    arena_->tracker->Release(args_.capacity() * sizeof(IntrusivePtr<Expr>));
    args_ = std::move(a);
    arena_->tracker->Charge(args_.capacity() * sizeof(IntrusivePtr<Expr>));
  }

  // Collapses this expression into an indirection (after reduction) or a
  // Cons/Nil; releases call references so consumed input can be freed.
  void BecomeInd(IntrusivePtr<Expr> target) {
    kind = ExprKind::kInd;
    child = std::move(target);
    next.reset();
    cell.reset();
    set_args({});
    symbol = kInvalidSymbol;
    clear_text();
  }

 protected:
  void Dispose() override { arena_->slab.Recycle(this); }

 private:
  ExprArena* arena_;
  RefString text_;
  std::vector<IntrusivePtr<Expr>> args_;
};

// The table-machine engine core (the lazy thunk interpreter). The former
// pull loop is split at its input boundary: Pump() emits everything
// determined and *returns* when it needs input (instead of calling
// events->Next), Feed() supplies one event and re-pumps, Finish() closes
// the input and verifies completion. The pump order — reduce, emit, block,
// fill cell, resume — is exactly the old loop's, so output bytes, step
// counts and error positions are unchanged. The machine owns its cell and
// expr slab arenas; the tracker and the run table belong to the Engine
// facade below, which picks between this machine and the lowered ops
// engine.
struct TableMachine {
  TableMachine(const Mft& mft, OutputSink* sink, const StreamOptions& options,
               const CancelToken* cancel, SymbolTable* symbols,
               MemoryTracker* tracker)
      : mft_(mft),
        dispatch_(&mft.dispatch()),
        symbols_(symbols),
        tracker_(tracker),
        expr_arena_(tracker),
        cell_arena_(tracker),
        sink_(sink),
        options_(options),
        cancel_(cancel),
        builder_(&cell_arena_, symbols) {
    // Transducers that provably never read text content skip the
    // event-to-cell text copy altogether.
    builder_.set_capture_text(dispatch_->captures_text());
  }

  // The emitter stack: (expression to emit, element to close afterwards).
  struct Frame {
    IntrusivePtr<Expr> expr;
    SymbolId close_symbol = kInvalidSymbol;
  };

  bool done() const { return started_ && stack_.empty(); }

  // Records the first failure; everything after returns it unchanged.
  Status Sticky(Status s) {
    if (!s.ok() && status_.ok()) status_ = s;
    return status_.ok() ? s : status_;
  }

  Status Prime() {
    if (!status_.ok()) return status_;
    if (started_) return Status::OK();
    started_ = true;
    // Root thunk: q0 applied to the whole (pending) input forest.
    IntrusivePtr<Expr> root = NewExpr();
    root->kind = ExprKind::kCall;
    root->state = mft_.initial_state();
    root->cell = builder_.TakeRoot();
    stack_.push_back(Frame{std::move(root), kInvalidSymbol});
    return Sticky(Pump());
  }

  Status Feed(const XmlEvent& event) {
    if (!status_.ok()) return status_;
    if (!started_) XQMFT_RETURN_NOT_OK(Prime());
    if (stack_.empty()) return Status::OK();  // output complete; ignore
    // Cooperative cancellation, checked before the event does any work so a
    // trip never commits partial output for this event (the cancelled-run
    // contract: the sink ends at the previous event's boundary).
    if (cancel_ != nullptr &&
        ++events_since_cancel_check_ >= options_.cancel_check_events) {
      events_since_cancel_check_ = 0;
      XQMFT_RETURN_NOT_OK(Sticky(cancel_->Check()));
    }
    XQMFT_RETURN_NOT_OK(Sticky(builder_.Feed(event)));
    return Sticky(Pump());
  }

  Status Finish(StreamStats* stats) {
    if (status_.ok()) {
      if (!started_) Prime();  // Sticky() inside records any failure
      if (status_.ok() && !stack_.empty() && !builder_.done()) {
        XmlEvent end;
        end.type = XmlEventType::kEndOfDocument;
        Feed(end);
      }
      if (status_.ok() && !stack_.empty()) {
        // Unreachable via the public API (Pump reports blocked-after-end
        // itself), kept as a guard for direct Impl misuse.
        Sticky(Status::Internal(
            "streaming engine finished with output pending"));
      }
    }
    if (stats != nullptr) {
      stats->peak_bytes = tracker_->peak_bytes();
      stats->final_bytes = tracker_->current_bytes();
      stats->rule_applications = steps_;
      stats->cells_created = builder_.cells_created();
      stats->exprs_created = exprs_created_;
      stats->output_events = output_events_;
    }
    return status_;
  }

  // Emits as much output as the input revealed so far determines. Returns
  // with a non-empty stack when the reduction blocked on a pending cell
  // (feed more events); an empty stack means the output is complete.
  Status Pump() {
    while (!stack_.empty()) {
      Frame& top = stack_.back();
      IntrusivePtr<Expr> e = Deref(top.expr);
      top.expr = e;

      bool blocked = false;
      XQMFT_RETURN_NOT_OK(Whnf(e.get(), resume_valid_, &blocked));
      if (blocked) {
        // Consecutive blocked pumps resume the suspended reduction (nothing
        // else mutates the graph between Feeds).
        resume_valid_ = true;
        if (builder_.done()) {
          return Status::Internal(
              "streaming engine blocked after end of input");
        }
        return Status::OK();  // suspended: needs another Feed
      }
      resume_valid_ = false;
      e = Deref(e);
      top.expr = e;
      if (e->kind == ExprKind::kNil) {
        if (top.close_symbol != kInvalidSymbol) {
          sink_->EndElement(symbols_->name(top.close_symbol));
          ++output_events_;
        }
        stack_.pop_back();
        continue;
      }
      XQMFT_CHECK(e->kind == ExprKind::kCons);
      if (e->node_kind == NodeKind::kText) {
        // Static text (a rule literal) resolves through the table; dynamic
        // text (%t over an input text node) is owned by the Expr.
        sink_->Text(e->symbol != kInvalidSymbol
                        ? symbols_->name(e->symbol)
                        : e->text());
        ++output_events_;
        top.expr = e->next;
      } else {
        sink_->StartElement(symbols_->name(e->symbol));
        ++output_events_;
        Frame child_frame;
        child_frame.expr = e->child;
        child_frame.close_symbol = e->symbol;
        top.expr = e->next;
        stack_.push_back(std::move(child_frame));
      }
    }
    return Status::OK();
  }

  IntrusivePtr<Expr> NewExpr() {
    ++exprs_created_;
    return IntrusivePtr<Expr>(expr_arena_.slab.New(&expr_arena_));
  }

  static IntrusivePtr<Expr> Deref(IntrusivePtr<Expr> e) {
    while (e->kind == ExprKind::kInd) e = e->child;
    return e;
  }

  // Reduces `e` (in place) to Nil or Cons; sets *blocked if the reduction
  // needs an input cell that is still Pending. Iterative with an explicit
  // stack of Cat ancestors whose left spine is being forced — recursion
  // here would be proportional to document depth for descendant scans.
  Status Whnf(Expr* e, bool resume, bool* blocked) {
    // Resume from the last blocked position when re-pumped after a blocked
    // pump: the graph only changes through this function and through cell
    // fills, so the saved Cat spine is still valid. Without this, each
    // input event would re-walk the spine from the root — quadratic in
    // document depth for descendant scans.
    if (resume && whnf_resume_ != nullptr) {
      e = whnf_resume_;
    } else {
      cat_stack_.clear();
    }
    whnf_resume_ = nullptr;
    while (true) {
      switch (e->kind) {
        case ExprKind::kNil:
        case ExprKind::kCons: {
          if (cat_stack_.empty()) return Status::OK();
          // Rewrite the innermost pending Cat now that its left is WHNF.
          Expr* cat = cat_stack_.back();
          cat_stack_.pop_back();
          IntrusivePtr<Expr> lt = Deref(cat->child);
          if (lt->kind == ExprKind::kNil) {
            IntrusivePtr<Expr> right = cat->next;
            cat->BecomeInd(right);
            e = right.get();  // kept alive by cat's indirection
            continue;
          }
          XQMFT_CHECK(lt->kind == ExprKind::kCons);
          // Cons(l, c, n) ++ r  =>  Cons(l, c, n ++ r)
          IntrusivePtr<Expr> tail = NewExpr();
          tail->kind = ExprKind::kCat;
          tail->child = lt->next;
          tail->next = cat->next;
          cat->kind = ExprKind::kCons;
          cat->node_kind = lt->node_kind;
          cat->symbol = lt->symbol;
          cat->set_text(lt->text_ref());
          cat->child = lt->child;
          cat->next = tail;
          cat->cell.reset();
          cat->set_args({});
          e = cat;
          continue;
        }
        case ExprKind::kInd: {
          // Path-compress the indirection chain, then continue on the target.
          IntrusivePtr<Expr> t = Deref(e->child);
          e->child = t;
          e = t.get();
          continue;
        }
        case ExprKind::kCat:
          cat_stack_.push_back(e);
          e = e->child.get();
          continue;
        case ExprKind::kCall: {
          const Cell* cell = e->cell.get();
          if (cell->state() == CellState::kPending) {
            // Suspend, remembering where to resume, and compress the link
            // from the innermost Cat to this call so the indirections of
            // consumed input are released during the suspension (otherwise
            // sparse-match scans retain the whole skipped stretch).
            whnf_resume_ = e;
            if (!cat_stack_.empty()) {
              Expr* cat = cat_stack_.back();
              cat->child = Deref(cat->child);
            }
            *blocked = true;
            return Status::OK();
          }
          if (steps_ >= options_.max_steps) {
            return Status::ResourceExhausted(
                "streaming engine exceeded the step budget");
          }
          // Step-granular cancellation: one event can trigger an unbounded
          // reduction (a no-opt plan pumps its whole buffered output at the
          // end-of-document), so deadlines are also polled on the rule
          // application path, amortized to one clock read per ~1k steps.
          if (cancel_ != nullptr && (steps_ & 1023u) == 0) {
            XQMFT_RETURN_NOT_OK(cancel_->Check());
          }
          ++steps_;
          // Dense dispatch: rule selection is an array index on the interned
          // symbol — no hashing, no label strings on the element path.
          const Rhs* rhs;
          if (cell->state() == CellState::kEps) {
            rhs = dispatch_->Epsilon(e->state);
          } else if (cell->kind() == NodeKind::kText) {
            rhs = dispatch_->ForText(e->state, cell->text());
          } else {
            rhs = dispatch_->ForElement(e->state, cell->symbol());
          }
          if (rhs == nullptr) {
            return Status::Internal("no applicable rule for state " +
                                    mft_.state_name(e->state));
          }
          IntrusivePtr<Cell> cell_ref = e->cell;
          std::vector<IntrusivePtr<Expr>> args = e->args();
          IntrusivePtr<Expr> inst = Instantiate(*rhs, cell_ref, args, nullptr);
          e->BecomeInd(inst);
          e = Deref(inst).get();
          continue;
        }
      }
    }
  }

  // Builds the expression graph for an RHS forest. `tail` (may be null) is
  // appended after the instantiated forest.
  IntrusivePtr<Expr> Instantiate(const Rhs& rhs,
                                 const IntrusivePtr<Cell>& cell,
                                 const std::vector<IntrusivePtr<Expr>>& args,
                                 IntrusivePtr<Expr> tail) {
    IntrusivePtr<Expr> acc = std::move(tail);
    for (auto it = rhs.rbegin(); it != rhs.rend(); ++it) {
      const RhsNode& item = *it;
      switch (item.kind) {
        case RhsKind::kLabel: {
          IntrusivePtr<Expr> node = NewExpr();
          node->kind = ExprKind::kCons;
          if (item.current_label) {
            node->node_kind = cell->kind();
            if (cell->kind() == NodeKind::kText) {
              node->set_text(cell->text_ref());
            } else {
              node->symbol = cell->symbol();
            }
          } else {
            node->node_kind = item.symbol.kind;
            node->symbol = item.symbol_id;
          }
          node->child = Instantiate(item.children, cell, args, nullptr);
          node->next = acc ? std::move(acc) : NilExpr();
          acc = std::move(node);
          break;
        }
        case RhsKind::kParam: {
          const IntrusivePtr<Expr>& value =
              args[static_cast<std::size_t>(item.param) - 1];
          if (!acc) {
            acc = value;  // shared: evaluated at most once
          } else {
            IntrusivePtr<Expr> cat = NewExpr();
            cat->kind = ExprKind::kCat;
            cat->child = value;
            cat->next = std::move(acc);
            acc = std::move(cat);
          }
          break;
        }
        case RhsKind::kCall: {
          IntrusivePtr<Expr> call = NewExpr();
          call->kind = ExprKind::kCall;
          call->state = item.state;
          switch (item.input) {
            case InputVar::kX0:
              call->cell = cell;
              break;
            case InputVar::kX1:
              call->cell = cell->child();
              break;
            case InputVar::kX2:
              call->cell = cell->sibling();
              break;
          }
          std::vector<IntrusivePtr<Expr>> call_args;
          call_args.reserve(item.args.size());
          for (const Rhs& arg : item.args) {
            call_args.push_back(Instantiate(arg, cell, args, nullptr));
          }
          call->set_args(std::move(call_args));
          if (!acc) {
            acc = std::move(call);
          } else {
            IntrusivePtr<Expr> cat = NewExpr();
            cat->kind = ExprKind::kCat;
            cat->child = std::move(call);
            cat->next = std::move(acc);
            acc = std::move(cat);
          }
          break;
        }
      }
    }
    if (!acc) acc = NilExpr();
    return acc;
  }

  IntrusivePtr<Expr> NilExpr() {
    // Nil is immutable; share one instance.
    if (!nil_) {
      nil_ = NewExpr();
      nil_->kind = ExprKind::kNil;
    }
    return nil_;
  }

  const Mft& mft_;
  const RuleDispatch* dispatch_;
  SymbolTable* symbols_;    // the facade's run table
  MemoryTracker* tracker_;  // the facade's tracker; outlives the machine
  // The arenas precede every member holding a cell or an expr: members
  // destruct in reverse order, so all cells and exprs are recycled before
  // the slabs free their blocks.
  ExprArena expr_arena_;
  CellArena cell_arena_;
  OutputSink* sink_;
  StreamOptions options_;
  const CancelToken* cancel_;  // the run's token; null = not cancellable
  CellBuilder builder_;
  IntrusivePtr<Expr> nil_;
  std::vector<Frame> stack_;
  std::vector<Expr*> cat_stack_;
  Expr* whnf_resume_ = nullptr;  // blocked call to resume from
  bool resume_valid_ = false;    // last pump blocked; spine still valid
  bool started_ = false;         // root thunk built, prefix pumped
  std::uint32_t events_since_cancel_check_ = 0;
  Status status_ = Status::OK();  // sticky: first failure of the run
  std::uint64_t steps_ = 0;
  std::uint64_t exprs_created_ = 0;
  std::size_t output_events_ = 0;
};

}  // namespace engine_detail

// The engine facade: owns the run's tracker and run-local symbol table, and
// selects the execution core. The lowered ops engine runs whenever the plan
// is lowerable and the caller did not pin the table machine; unlowerable
// plans always take the table machine (kOps included — the fallback is
// silent here, and the CLI reports it). Both cores sit behind the same
// Prime/Feed/Finish contract, so every driver — the one-plan pass,
// multi-query fan-out, document-set Run, the service loop — inherits the
// selection untouched.
struct Engine::Impl {
  Impl(const Mft& mft, OutputSink* sink, const StreamOptions& options,
       const CancelToken* cancel)
      : symbols(mft.symbols()) {
    const lower::LoweredPlan* lowered = nullptr;
    if (options.engine != EngineChoice::kTable) {
      lowered = lower::GetLoweredPlan(mft);
    }
    if (lowered != nullptr) {
      ops_ = std::make_unique<lower::OpsEngine>(
          *lowered, sink, &symbols, &tracker, options.max_steps, cancel,
          options.cancel_check_events);
    } else {
      table_ = std::make_unique<engine_detail::TableMachine>(
          mft, sink, options, cancel, &symbols, &tracker);
    }
  }

  bool done() const { return ops_ != nullptr ? ops_->done() : table_->done(); }
  Status Prime() {
    return ops_ != nullptr ? ops_->Prime() : table_->Prime();
  }
  Status Feed(const XmlEvent& event) {
    return ops_ != nullptr ? ops_->Feed(event) : table_->Feed(event);
  }
  std::size_t output_events() const {
    return ops_ != nullptr ? ops_->output_events() : table_->output_events_;
  }

  Status Finish(StreamStats* stats) {
    if (ops_ == nullptr) return table_->Finish(stats);
    Status s = ops_->Finish();
    if (stats != nullptr) {
      stats->peak_bytes = tracker.peak_bytes();
      stats->final_bytes = tracker.current_bytes();
      stats->rule_applications = ops_->steps();
      stats->cells_arena = ops_->consumers_spawned();
      stats->used_ops_engine = true;
      stats->output_events = ops_->output_events();
    }
    return s;
  }

  // The tracker and the run table precede the cores, which charge and
  // intern into them until they destruct. The run table, copied from the
  // transducer's base table, is deliberately outside the tracked metric:
  // it is bounded by the number of *distinct* names, alphabet-sized like
  // the transducer, while the tracker measures what Figure 4 measures,
  // retention proportional to the streamed input.
  MemoryTracker tracker;
  SymbolTable symbols;
  std::unique_ptr<engine_detail::TableMachine> table_;
  std::unique_ptr<lower::OpsEngine> ops_;
};

Engine::Engine(const Mft& mft, OutputSink* sink, StreamOptions options,
               const CancelToken* cancel)
    : impl_(std::make_unique<Impl>(mft, sink, options, cancel)) {}
Engine::~Engine() = default;

SymbolTable* Engine::symbols() { return &impl_->symbols; }
Status Engine::Prime() { return impl_->Prime(); }
Status Engine::Feed(const XmlEvent& event) { return impl_->Feed(event); }
Status Engine::Finish(StreamStats* stats) { return impl_->Finish(stats); }
bool Engine::done() const { return impl_->done(); }
std::size_t Engine::output_events() const { return impl_->output_events(); }

}  // namespace xqmft
