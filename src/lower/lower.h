// Execution lowering: compiles a RuleDispatch into per-state opcode programs.
//
// The table engine (stream/engine.cc) interprets rules one thunk at a time:
// every rule application allocates Call/Cons/Cat expressions, and every
// input event re-enters the graph reducer. For the transducers the XQuery
// translation actually produces, most of that machinery is overhead: rule
// selection per node is a single dense-table index and every call site's
// output lands at a fixed position in the output stream.
//
// Lowering turns each (state, input-label) rule into a flat program of
// packed instructions executed straight-line per input event:
//
//   kOpenLit s   emit <s>                  kTextLit s   emit text literal s
//   kCloseLit s  emit </s>                 kTextCur     emit the node's text
//   kOpenCur     emit <current-label>      kChild q     run q over children
//   kCloseCur    emit </current-label>     kSib q       run q over siblings
//
// plus the kRope* family for rope registers and the kChoice* family for
// choice frames (both below, at LowerOp).
//
// Stay moves (x0 calls) are inlined at compile time — a program is the whole
// x0-closure of a rule, so the runtime never "applies a rule" at all; it
// executes one program per (consumer, event). Programs are deduplicated and
// memoized per (state, context); an x0 cycle (which the lazy engine would
// grind through its step budget) makes the plan unlowerable instead.
//
// Accumulating parameters lower two ways:
//
//   * Append-only parameters become *rope registers*: a bounded number
//     (kMaxRopeParams) of byte ropes whose chunks come from the engine's
//     mark/reset bump arena — no refcounting on the fast path. The analysis
//     admits a state when every rule threads each parameter linearly (used
//     at most once, extended only by appending emission-only output) and
//     the compiler emits the kRope* opcode family: stage fresh ropes,
//     append literal/current-label records, splice a parameter through,
//     spawn the callee with the staged register file, or emit a register
//     into the output stream.
//   * *Selector clusters* — the states XPath predicates translate to, where
//     every rule is a bare y_i or one cluster call whose arguments are y_js
//     or further cluster calls — become *choice frames*. A cluster's output
//     is exactly one of its call's arguments, so a call site
//     `q(x, R_1·C, .., R_n·C)` is factored: the shared suffix C stays
//     caller code, each residual R_i runs as caller code into its own
//     *held* output segment, and the cluster runs as consumers whose
//     registers hold a frame (a pending choice among residual indices and
//     other frames). The frame that resolves the site releases the winner's
//     segments in place and drops the losers'; frames no longer reachable
//     from the site die (refcounted) and their consumers drop at their next
//     event. The kChoice* opcodes build frames and resolve them. Eager
//     evaluation matches the table machine's lazy one only when the cluster
//     is total (every reachable state has default and epsilon rules), so a
//     non-total cluster keeps the plan on the table machine.
//
// Text nodes dispatch on content too: a state that tests text literals (or
// inlines one through an x0 call) gets one text program per literal of the
// plan, chosen at runtime by comparing the event's content against the
// literals RuleDispatch precompiled.
//
// A plan is lowerable iff every call site lands in one of those classes,
// x0-call inlining terminates, and the generated code stays under the size
// cap. A plan with any other call site — a general or nonlinear parameter
// state, such as the Section 2.1 example's `y1` used twice — runs wholly on
// the table machine; lowering is a strict fast path, never a semantics
// change (asserted wholesale by the differential suites).
#ifndef XQMFT_LOWER_LOWER_H_
#define XQMFT_LOWER_LOWER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mft/mft.h"
#include "util/status.h"
#include "xml/events.h"
#include "xml/symbol_table.h"

namespace xqmft {
namespace lower {

enum class LowerOp : unsigned char {
  kOpenLit = 0,  ///< StartElement(arg), arg an interned element symbol
  kCloseLit,     ///< EndElement(arg)
  kOpenCur,      ///< StartElement(current event's symbol)
  kCloseCur,     ///< EndElement(current event's symbol)
  kTextLit,      ///< Text(name of arg), arg an interned text-kind symbol
  kTextCur,      ///< Text(current text event's content)
  kChild,        ///< spawn a consumer in state arg over the node's children
  kSib,          ///< continue in state arg over the node's following siblings
  // Rope registers for append-only accumulating parameters. A program
  // stages the callee's register file one rope at a time (kRopeNew opens a
  // fresh staging rope; the append/splice ops extend the most recently
  // staged one), then hands the staged file to the spawned consumer.
  kRopeNew,       ///< stage a fresh empty rope
  kRopeOpen,      ///< append <arg> to the staging rope
  kRopeClose,     ///< append </arg> to the staging rope
  kRopeText,      ///< append text literal arg to the staging rope
  kRopeOpenCur,   ///< append <current-label> to the staging rope
  kRopeCloseCur,  ///< append </current-label> to the staging rope
  kRopeTextCur,   ///< append the text node's content to the staging rope
  kRopeSplice,    ///< move own register arg onto the staging rope (linear)
  kRopeChild,     ///< kChild with the staged register file as arguments
  kRopeSib,       ///< kSib with the staged register file as arguments
  kRopeEmit,      ///< copy own register arg into the output stream
  // Choice frames for selector clusters. A site opens with kChoiceOpen,
  // runs each residual into its own held segment (kChoiceNext between
  // them), and kChoiceClose starts the continuation segment and the site's
  // root frame; the cluster's entry code follows. Values are operands
  // (ChoiceOperand): a residual index, the running frame's own parameter,
  // or a frame created earlier in the same program.
  kChoiceOpen,        ///< open a site with arg residuals
  kChoiceNext,        ///< start the next residual's held segment
  kChoiceClose,       ///< end the residuals; the site's root frame is `self`
  kChoiceNew,         ///< create a pending frame (the next fresh index)
  kChoiceArg,         ///< stage operand arg as the next frame parameter
  kChoiceSpawnChild,  ///< arg = ChoiceSpawn(state, target): staged params
  kChoiceSpawnSib,    ///< go to the target, whose consumer runs over x1/x2
  kChoiceResolve,     ///< resolve `self` with the one staged value
};

/// Number of LowerOp values (dispatch-table size for the execution loop).
inline constexpr int kNumLowerOps = 27;

/// Bound on rope registers per state (parameters of an append-only state).
/// Small by design: the register file travels inline with each consumer.
inline constexpr std::uint32_t kMaxRopeParams = 4;

/// Bounds on a selector cluster: parameters per frame, and frames one
/// program may create. Wider clusters keep the plan on the table machine.
inline constexpr std::uint32_t kMaxChoiceParams = 8;
inline constexpr std::uint32_t kMaxChoiceFresh = 16;

/// Operand kinds of kChoiceArg, packed into the high byte of the argument.
enum class ChoiceOperand : std::uint32_t {
  kResidual = 0,  ///< residual index of the site
  kOwn = 1,       ///< parameter of the running consumer's frame
  kFresh = 2,     ///< frame created by this program's kChoiceNew
};
inline constexpr std::uint32_t kChoiceKindShift = 24;
inline constexpr std::uint32_t kChoiceIndexMask = (1u << kChoiceKindShift) - 1;

/// kChoiceSpawn* argument: the callee state in the low bits, the target in
/// the high byte (0 = `self`, k + 1 = fresh frame k).
inline constexpr std::uint32_t ChoiceSpawn(std::uint32_t state,
                                           std::uint32_t target) {
  return (target << kChoiceKindShift) | state;
}

struct LoweredInsn {
  LowerOp op;
  std::uint32_t arg = 0;
};

/// \brief One program: a [off, off+len) slice of LoweredPlan::code, plus the
/// facts the runtime wants without scanning it.
struct LoweredProgramRef {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
  std::uint32_t n_child = 0;  ///< number of kChild/kRopeChild instructions
  std::uint32_t n_sib = 0;    ///< number of kSib/kRopeSib instructions
  /// Upper bound on arena bytes the program allocates for rope chunks and
  /// staged register files. Charged as one block *before* the event's child
  /// mark, so ropes handed to sibling continuations survive the subtree
  /// reset (the register-file analogue of the consumer-array growth rule).
  std::uint32_t prealloc_bytes = 0;
  /// Last instruction is kChild/kSib (or a rope spawn): the spawned
  /// consumer inherits the writer's output segment instead of splitting it
  /// (the program writes nothing after the spawn). Collapses scan states to
  /// zero segment churn.
  bool tail_spawn = false;
  /// The program is exactly [kSib q]: the consumer just retargets to q and
  /// skips the subtree — no allocation, no segment work. (An identity
  /// parameter pass `q(x2, y1..yn)` compiles to exactly this: the consumer
  /// keeps its register file.)
  bool simple_sib = false;
};

/// \brief All programs of one state, indexed the same way RuleDispatch
/// resolves rules: dense per-symbol for ids below the alphabet width,
/// fallbacks for everything else.
struct LoweredState {
  std::vector<LoweredProgramRef> element;  ///< by SymbolId, size = width
  LoweredProgramRef element_default;       ///< element ids >= width
  LoweredProgramRef text;                  ///< text matching no literal
  LoweredProgramRef eps;                   ///< end of the consumed forest
  /// Per LoweredPlan::text_literals: the program for a text node with that
  /// content. Empty unless the state's text rule depends on content.
  std::vector<LoweredProgramRef> text_cases;
  std::uint8_t n_ropes = 0;  ///< rope registers (the state's parameters)
  /// A selector-cluster state: its consumers carry a choice frame instead
  /// of a register file, and drop once the frame is dead.
  bool choice = false;
};

/// \brief The lowered form of a transducer. Immutable once built; shared by
/// every concurrent run of the plan (same contract as RuleDispatch).
struct LoweredPlan {
  std::vector<LoweredInsn> code;
  std::vector<LoweredState> states;  ///< by StateId
  SymbolId width = 0;                ///< dense-table width (= dispatch width)
  StateId initial = 0;

  /// The text literals any state's text cases test, in the order of
  /// LoweredState::text_cases.
  std::vector<std::string> text_literals;
  /// Parameter slots of every choice frame (the widest selector state).
  std::uint32_t choice_params = 0;

  /// Always false; kept for bench/xqbench, which reads it.
  bool hybrid = false;
  /// Human-readable summary of how the plan lowered ("full"), surfaced by
  /// --stats and serving.
  std::string lowering_note;
};

/// Compiles `mft` to a LoweredPlan. The dispatch is compiled as a side
/// effect (lowering translates its tables). Fails with InvalidArgument and a
/// human-readable reason when the transducer is not lowerable.
Result<LoweredPlan> LowerMft(const Mft& mft);

/// The cached lowering of `mft`: compiles on first call and parks the result
/// (or the not-lowerable reason) in the transducer's lowering-cache slot.
/// Returns null when the plan is not lowerable, with the reason in `*why`;
/// on success `*why` carries the lowering note ("full").
/// Same thread contract as Mft::dispatch(): the first call is
/// single-threaded; afterwards the plan is immutable and safe to share
/// (CompiledPlan forces the fill before a plan can be shared).
const LoweredPlan* GetLoweredPlan(const Mft& mft, std::string* why = nullptr);

}  // namespace lower
}  // namespace xqmft

#endif  // XQMFT_LOWER_LOWER_H_
