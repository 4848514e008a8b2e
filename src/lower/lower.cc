#include "lower/lower.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "mft/dispatch.h"

namespace xqmft {
namespace lower {

namespace {

// Hard cap on generated code: x0 inlining is exponential in the worst case
// (a chain of states each calling the previous twice), so a runaway blowup
// must degrade to "not lowerable", not to an OOM.
constexpr std::size_t kMaxCodeSize = std::size_t{1} << 20;

// Per-instruction arena budgets for the pre-mark rope block (see
// LoweredProgramRef::prealloc_bytes). A rope append allocates at most one
// chunk (8 pad + 16 header + 48 capacity); a rope spawn materializes one
// register file (kMaxRopeParams ropes + pad). Overestimates are cheap: the
// block is bump-allocated and reclaimed wholesale at scope close.
constexpr std::uint32_t kPreallocPerAppend = 80;
constexpr std::uint32_t kPreallocPerSpawn = 96;

// How a state executes under the lowered plan.
enum class StateClass : unsigned char {
  kPlain,     ///< parameter-free, compiles to opcode programs
  kAppend,    ///< parameters thread linearly: rope registers
  kSelector,  ///< pass-through cluster: choice-frame programs
  kGeneral,   ///< anything else: a call to it keeps the plan table-only
};

// A value of a selector cluster while a choice program is compiled: a
// residual of the site, a parameter of the running consumer's frame, or a
// cluster call not yet evaluated (its arguments are further values). Calls
// are followed through x0 at compile time; what remains runs as consumers.
struct ChoiceExpr {
  enum class Kind : unsigned char { kResidual, kOwn, kCall };
  Kind kind = Kind::kResidual;
  std::uint32_t index = 0;  ///< residual / parameter index
  StateId state = -1;       ///< kCall: callee
  InputVar input = InputVar::kX0;
  std::uint32_t ctx = 0;    ///< kCall: context the call's rule fires in
  std::vector<int> args;    ///< kCall: argument values
  int fresh = -1;           ///< kCall: frame created for it, once emitted
};

// The values of one choice program (a site's entry code, or one cluster
// state's program) and the frames it has created so far.
struct ChoiceScope {
  std::vector<ChoiceExpr> exprs;
  std::uint32_t n_fresh = 0;
};

// Compilation context of a program: which input the state is being applied
// to, which determines how %t and x1 resolve.
//   [0, width)   element node with that interned symbol (%t is a literal)
//   width        element node with an id outside the alphabet (%t is kOpenCur)
//   width + 1    text node matching no literal (%t is kTextCur; x1 is empty)
//   width + 2    end of forest (epsilon rule; emission only)
//   width + 3 + i  text node whose content is text literal i
class Compiler {
 public:
  explicit Compiler(const Mft& mft)
      : mft_(mft), dispatch_(mft.dispatch()), width_(dispatch_.width()) {}

  Result<LoweredPlan> Run() {
    Classify();

    const StateId q0 = mft_.initial_state();
    if (mft_.num_params(q0) > 0) {
      return Fail("initial state carries parameters");
    }

    memo_.assign(static_cast<std::size_t>(mft_.num_states()) * NumCtx(), -1);

    plan_.width = width_;
    plan_.initial = q0;
    plan_.choice_params = choice_params_;
    plan_.states.resize(static_cast<std::size_t>(mft_.num_states()));
    for (StateId q = 0; q < mft_.num_states(); ++q) {
      const StateClass cls = class_[static_cast<std::size_t>(q)];
      if (cls != StateClass::kPlain && cls != StateClass::kAppend) continue;
      if (!CompileState(q)) return Fail(error_);
    }
    // Cluster states compile only once a site reaches them: an unreachable
    // cluster need not be total.
    while (!sel_queue_.empty()) {
      const StateId q = sel_queue_.back();
      sel_queue_.pop_back();
      if (!CompileState(q)) return Fail(error_);
    }
    plan_.lowering_note = "full";
    return std::move(plan_);
  }

 private:
  std::uint32_t CtxDefault() const { return width_; }
  std::uint32_t CtxText() const { return width_ + 1; }
  std::uint32_t CtxEps() const { return width_ + 2; }
  std::uint32_t CtxLit(std::size_t i) const {
    return width_ + 3 + static_cast<std::uint32_t>(i);
  }
  bool IsTextCtx(std::uint32_t ctx) const {
    return ctx == CtxText() || ctx >= CtxLit(0);
  }
  std::size_t NumCtx() const {
    return static_cast<std::size_t>(width_) + 3 + plan_.text_literals.size();
  }

  static Status Fail(std::string why) {
    return Status::InvalidArgument("not lowerable: " + std::move(why));
  }

  // The rule `q` applies in context `ctx` (null when it has none).
  const Rhs* RuleAt(StateId q, std::uint32_t ctx) const {
    if (ctx <= CtxDefault()) return dispatch_.ForElement(q, ctx);
    if (ctx == CtxText()) return dispatch_.TextFallback(q);
    if (ctx == CtxEps()) return dispatch_.Epsilon(q);
    return dispatch_.ForText(q, plan_.text_literals[ctx - CtxLit(0)]);
  }

  // Compiles every context of an executable state into plan_.states[q]
  // (the vector is sized once up front, so the reference stays valid).
  bool CompileState(StateId q) {
    const StateClass cls = class_[static_cast<std::size_t>(q)];
    LoweredState& st = plan_.states[static_cast<std::size_t>(q)];
    st.n_ropes = cls == StateClass::kAppend
                     ? static_cast<std::uint8_t>(mft_.num_params(q))
                     : 0;
    st.choice = cls == StateClass::kSelector;
    auto compile = [&](std::uint32_t ctx, LoweredProgramRef* dst) {
      const int p = CompileProgram(q, ctx);
      if (p < 0) return false;
      *dst = finished_[static_cast<std::size_t>(p)];
      return true;
    };
    if (!compile(CtxDefault(), &st.element_default) ||
        !compile(CtxText(), &st.text) || !compile(CtxEps(), &st.eps)) {
      return false;
    }
    // A cluster rule without x0 calls compiles the same in every element
    // context (clusters emit nothing, so %t cannot fold either): elements
    // that take the default rule share its program.
    const Rhs* fallback = RuleAt(q, CtxDefault());
    const bool shared = st.choice && !CallsX0(*fallback);
    st.element.resize(width_);
    for (SymbolId id = 0; id < width_; ++id) {
      const Rhs* rule = dispatch_.ForElement(q, id);
      if (shared && (rule == nullptr || rule == fallback)) {
        st.element[id] = st.element_default;
      } else if (!compile(id, &st.element[id])) {
        return false;
      }
    }
    if (text_dep_[static_cast<std::size_t>(q)]) {
      st.text_cases.resize(plan_.text_literals.size());
      for (std::size_t i = 0; i < plan_.text_literals.size(); ++i) {
        if (!compile(CtxLit(i), &st.text_cases[i])) return false;
      }
    }
    return true;
  }

  // ---------------------------------------------------------------- analysis

  // Classifies every state (see StateClass), collects the plan's text
  // literals, and marks the states whose text program depends on content.
  void Classify() {
    const std::size_t n = static_cast<std::size_t>(mft_.num_states());
    class_.assign(n, StateClass::kGeneral);
    queued_.assign(n, false);
    sel_.assign(n, false);
    app_.assign(n, false);
    text_dep_.assign(n, false);

    for (StateId q = 0; q < mft_.num_states(); ++q) {
      const int np = mft_.num_params(q);
      if (np == 0) {
        class_[static_cast<std::size_t>(q)] = StateClass::kPlain;
      } else {
        sel_[static_cast<std::size_t>(q)] = true;
        app_[static_cast<std::size_t>(q)] =
            np <= static_cast<int>(kMaxRopeParams);
      }
      for (const RuleDispatch::TextCase& c : dispatch_.TextCases(q)) {
        text_dep_[static_cast<std::size_t>(q)] = true;
        const std::string lit(c.literal);
        if (std::find(plan_.text_literals.begin(), plan_.text_literals.end(),
                      lit) == plan_.text_literals.end()) {
          plan_.text_literals.push_back(lit);
        }
      }
    }

    // Demotion fixpoints: a shape may reference other parameter states, so
    // iterate until no state loses its flag.
    for (bool changed = true; changed;) {
      changed = false;
      for (StateId q = 0; q < mft_.num_states(); ++q) {
        if (sel_[static_cast<std::size_t>(q)] && !SelectorShape(q)) {
          sel_[static_cast<std::size_t>(q)] = false;
          changed = true;
        }
      }
    }
    // A cluster state runs on choice frames wherever it is called, so it
    // cannot also be a rope-register state.
    for (std::size_t i = 0; i < n; ++i) app_[i] = app_[i] && !sel_[i];
    for (bool changed = true; changed;) {
      changed = false;
      for (StateId q = 0; q < mft_.num_states(); ++q) {
        if (app_[static_cast<std::size_t>(q)] && !AppendShape(q)) {
          app_[static_cast<std::size_t>(q)] = false;
          changed = true;
        }
      }
    }
    // Least fixpoint: a text program depends on content when the state
    // tests literals or its text rule inlines (x0) a state that does.
    for (bool changed = true; changed;) {
      changed = false;
      for (StateId q = 0; q < mft_.num_states(); ++q) {
        const Rhs* text = dispatch_.TextFallback(q);
        if (!text_dep_[static_cast<std::size_t>(q)] && text != nullptr &&
            InlinesTextDependent(*text)) {
          text_dep_[static_cast<std::size_t>(q)] = true;
          changed = true;
        }
      }
    }

    for (StateId q = 0; q < mft_.num_states(); ++q) {
      if (mft_.num_params(q) == 0) continue;
      std::size_t i = static_cast<std::size_t>(q);
      class_[i] = app_[i] ? StateClass::kAppend
                          : (sel_[i] ? StateClass::kSelector
                                     : StateClass::kGeneral);
      if (class_[i] == StateClass::kSelector) {
        choice_params_ = std::max(
            choice_params_, static_cast<std::uint32_t>(mft_.num_params(q)));
      }
    }
  }

  bool InlinesTextDependent(const Rhs& rhs) const {
    for (const RhsNode& item : rhs) {
      if (item.kind == RhsKind::kLabel) {
        if (InlinesTextDependent(item.children)) return true;
      } else if (item.kind == RhsKind::kCall) {
        if (item.input == InputVar::kX0 && item.state >= 0 &&
            text_dep_[static_cast<std::size_t>(item.state)]) {
          return true;
        }
        // Arguments are evaluated at the caller's position.
        for (const Rhs& arg : item.args) {
          if (InlinesTextDependent(arg)) return true;
        }
      }
    }
    return false;
  }

  // A *selector* cluster passes parameters through verbatim: every rule is
  // a single bare parameter or a single call into the cluster whose
  // arguments are themselves bare parameters or cluster calls, and the
  // epsilon rule selects a parameter. By induction the cluster's output is
  // exactly one of the original call's arguments, unchanged — the property
  // that licenses common-suffix factoring at the call site.
  bool SelectorShape(StateId q) const {
    const StateRules& r = mft_.rules(q);
    auto rule_ok = [&](const Rhs& rhs) {
      if (rhs.size() != 1) return false;
      const RhsNode& n0 = rhs[0];
      if (n0.kind == RhsKind::kParam) return true;
      if (n0.kind != RhsKind::kCall) return false;
      if (n0.state < 0 || mft_.num_params(n0.state) == 0) return false;
      if (!sel_[static_cast<std::size_t>(n0.state)]) return false;
      if (static_cast<int>(n0.args.size()) != mft_.num_params(n0.state)) {
        return false;
      }
      for (const Rhs& arg : n0.args) {
        if (!SelectorArg(arg)) return false;
      }
      return true;
    };
    for (const auto& [symbol, rhs] : r.symbol_rules) {
      (void)symbol;
      if (!rule_ok(rhs)) return false;
    }
    if (r.text_rule && !rule_ok(*r.text_rule)) return false;
    if (r.default_rule && !rule_ok(*r.default_rule)) return false;
    if (!r.epsilon_rule || r.epsilon_rule->size() != 1 ||
        (*r.epsilon_rule)[0].kind != RhsKind::kParam) {
      return false;
    }
    return true;
  }

  bool SelectorArg(const Rhs& arg) const {
    if (arg.size() != 1) return false;
    const RhsNode& n0 = arg[0];
    if (n0.kind == RhsKind::kParam) return true;
    if (n0.kind != RhsKind::kCall) return false;
    if (n0.state < 0 || mft_.num_params(n0.state) == 0) return false;
    if (!sel_[static_cast<std::size_t>(n0.state)]) return false;
    if (static_cast<int>(n0.args.size()) != mft_.num_params(n0.state)) {
      return false;
    }
    for (const Rhs& a : n0.args) {
      if (!SelectorArg(a)) return false;
    }
    return true;
  }

  // The *append-only* discipline: every rule threads each parameter
  // linearly — used at most once, either emitted into the output or spliced
  // into an argument of a further append-only call — and call arguments are
  // emission-only otherwise (no state calls inside an argument). Such
  // parameters compile to rope registers.
  bool AppendShape(StateId q) const {
    const StateRules& r = mft_.rules(q);
    bool used[kMaxRopeParams];
    auto rule_ok = [&](const Rhs& rhs) {
      std::fill(used, used + kMaxRopeParams, false);
      return AppendRhs(rhs, q, used);
    };
    for (const auto& [symbol, rhs] : r.symbol_rules) {
      (void)symbol;
      if (!rule_ok(rhs)) return false;
    }
    if (r.text_rule && !rule_ok(*r.text_rule)) return false;
    if (r.default_rule && !rule_ok(*r.default_rule)) return false;
    if (r.epsilon_rule && !rule_ok(*r.epsilon_rule)) return false;
    return true;
  }

  bool AppendRhs(const Rhs& rhs, StateId q, bool* used) const {
    for (const RhsNode& item : rhs) {
      switch (item.kind) {
        case RhsKind::kLabel:
          if (!AppendRhs(item.children, q, used)) return false;
          break;
        case RhsKind::kParam: {
          const int idx = item.param - 1;
          if (idx < 0 || idx >= mft_.num_params(q) || used[idx]) return false;
          used[idx] = true;
          break;
        }
        case RhsKind::kCall: {
          if (item.args.empty()) break;  // plain scan call, fine anywhere
          if (item.input == InputVar::kX0) return false;  // needs remapping
          if (item.state < 0 || !app_[static_cast<std::size_t>(item.state)]) {
            return false;
          }
          for (const Rhs& arg : item.args) {
            if (!AppendArg(arg, q, used)) return false;
          }
          break;
        }
      }
    }
    return true;
  }

  bool AppendArg(const Rhs& arg, StateId q, bool* used) const {
    for (const RhsNode& item : arg) {
      switch (item.kind) {
        case RhsKind::kLabel:
          if (!AppendArg(item.children, q, used)) return false;
          break;
        case RhsKind::kParam: {
          const int idx = item.param - 1;
          if (idx < 0 || idx >= mft_.num_params(q) || used[idx]) return false;
          used[idx] = true;
          break;
        }
        case RhsKind::kCall:
          return false;  // a call's output is not emission-only
      }
    }
    return true;
  }

  // Every state a choice site can reach must be able to fire: the opcode
  // core evaluates every branch of the cluster eagerly, where the table
  // machine only evaluates the branch the input selects, so a missing
  // default/epsilon rule would turn "never evaluated" into a run error.
  // Returns the first state without both rules, or -1 when total.
  StateId ClusterGap(StateId q0) const {
    std::vector<StateId> stack{q0};
    std::set<StateId> seen{q0};
    auto visit = [&](const Rhs& rhs, auto&& self) -> void {
      for (const RhsNode& item : rhs) {
        if (item.kind == RhsKind::kLabel) {
          self(item.children, self);
        } else if (item.kind == RhsKind::kCall) {
          if (item.state >= 0 && seen.insert(item.state).second) {
            stack.push_back(item.state);
          }
          for (const Rhs& arg : item.args) self(arg, self);
        }
      }
    };
    while (!stack.empty()) {
      const StateId q = stack.back();
      stack.pop_back();
      const StateRules& r = mft_.rules(q);
      if (!r.default_rule || !r.epsilon_rule) return q;
      for (const auto& [symbol, rhs] : r.symbol_rules) {
        (void)symbol;
        visit(rhs, visit);
      }
      if (r.text_rule) visit(*r.text_rule, visit);
      visit(*r.default_rule, visit);
      visit(*r.epsilon_rule, visit);
    }
    return -1;
  }

  // Why a call to the general parameter state `q0` keeps the plan on the
  // table machine: names a reachable state whose rule duplicates a
  // parameter (the case rope registers and choice frames cannot express).
  std::string GeneralReason(StateId q0) const {
    std::vector<StateId> stack{q0};
    std::set<StateId> seen{q0};
    while (!stack.empty()) {
      const StateId q = stack.back();
      stack.pop_back();
      bool dup = false;
      auto visit = [&](const Rhs& rhs, std::vector<int>* uses,
                       auto&& self) -> void {
        for (const RhsNode& item : rhs) {
          if (item.kind == RhsKind::kLabel) {
            self(item.children, uses, self);
          } else if (item.kind == RhsKind::kParam) {
            const std::size_t i = static_cast<std::size_t>(item.param);
            if (i < uses->size() && ++(*uses)[i] > 1) dup = true;
          } else {
            if (item.state >= 0 && mft_.num_params(item.state) > 0 &&
                seen.insert(item.state).second) {
              stack.push_back(item.state);
            }
            for (const Rhs& arg : item.args) self(arg, uses, self);
          }
        }
      };
      const StateRules& r = mft_.rules(q);
      auto rule = [&](const Rhs& rhs) {
        std::vector<int> uses(static_cast<std::size_t>(mft_.num_params(q)) + 1);
        visit(rhs, &uses, visit);
      };
      for (const auto& [symbol, rhs] : r.symbol_rules) {
        (void)symbol;
        rule(rhs);
      }
      if (r.text_rule) rule(*r.text_rule);
      if (r.default_rule) rule(*r.default_rule);
      if (r.epsilon_rule) rule(*r.epsilon_rule);
      if (dup) {
        return "nonlinear parameter use in state '" + mft_.state_name(q) +
               "' (reached from '" + mft_.state_name(q0) + "')";
      }
    }
    return "state '" + mft_.state_name(q0) +
           "' is neither append-only nor a selector cluster";
  }

  // ----------------------------------------------------------- compilation

  // Compiles the program for (q, ctx); returns its index in finished_, or -1
  // with error_ set. Memoized; a cycle through the memo means the x0-call
  // closure of some rule revisits (q, ctx) before emitting anything that
  // consumes input — the lazy engine would spin on it too.
  int CompileProgram(StateId q, std::uint32_t ctx) {
    std::int32_t& slot = memo_[static_cast<std::size_t>(q) * NumCtx() + ctx];
    if (slot >= 0) return slot;
    if (slot == kInProgress) {
      error_ = "x0-call cycle through state '" + mft_.state_name(q) + "'";
      return -1;
    }
    if (ctx < width_ && dispatch_.ForElement(q, ctx) == nullptr) {
      // A text-kind id: no element event can carry it, but the dense table
      // must stay rectangular — alias the generic-element program.
      slot = kInProgress;
      const int p = CompileProgram(q, CtxDefault());
      slot = p;
      return p;
    }
    slot = kInProgress;

    const Rhs* rhs = RuleAt(q, ctx);
    if (rhs == nullptr) {
      error_ = "state '" + mft_.state_name(q) + "' has no applicable rule";
      return -1;
    }

    std::vector<LoweredInsn> tmp;
    if (class_[static_cast<std::size_t>(q)] == StateClass::kSelector) {
      if (!EmitClusterProgram(q, *rhs, ctx, &tmp)) return -1;
    } else {
      const StateId owner =
          mft_.num_params(q) > 0 && app_[static_cast<std::size_t>(q)] ? q
                                                                       : -1;
      bool used[kMaxRopeParams] = {false, false, false, false};
      if (!EmitRhs(*rhs, owner, ctx, used, &tmp)) return -1;
    }

    int ref = Intern(std::move(tmp));
    if (ref < 0) return -1;
    slot = ref;
    return ref;
  }

  // Appends the instructions for one RHS forest in context `ctx` to *out.
  // `owner` is the append-only state whose rope registers parameter
  // references resolve against (-1 in parameter-free programs); `used`
  // tracks the rule's linear-use discipline.
  bool EmitRhs(const Rhs& rhs, StateId owner, std::uint32_t ctx, bool* used,
               std::vector<LoweredInsn>* out) {
    for (const RhsNode& item : rhs) {
      switch (item.kind) {
        case RhsKind::kLabel: {
          if (item.current_label) {
            if (ctx < width_) {
              // %t over a known element symbol folds to a literal.
              out->push_back({LowerOp::kOpenLit, ctx});
              if (!EmitRhs(item.children, owner, ctx, used, out)) return false;
              out->push_back({LowerOp::kCloseLit, ctx});
            } else if (ctx == CtxDefault()) {
              out->push_back({LowerOp::kOpenCur, 0});
              if (!EmitRhs(item.children, owner, ctx, used, out)) return false;
              out->push_back({LowerOp::kCloseCur, 0});
            } else if (IsTextCtx(ctx)) {
              // %t over a text node copies its content; an output text node
              // has no children to emit (the lazy engine never forces them).
              out->push_back({LowerOp::kTextCur, 0});
            } else {
              error_ = "%t in an epsilon rule";  // excluded by Validate()
              return false;
            }
          } else if (item.symbol.kind == NodeKind::kText) {
            out->push_back({LowerOp::kTextLit, item.symbol_id});
          } else {
            out->push_back({LowerOp::kOpenLit, item.symbol_id});
            if (!EmitRhs(item.children, owner, ctx, used, out)) return false;
            out->push_back({LowerOp::kCloseLit, item.symbol_id});
          }
          break;
        }
        case RhsKind::kCall: {
          if (!item.args.empty()) {
            if (!EmitParamCall(item, owner, ctx, used, out)) return false;
            break;
          }
          if (!EmitPlainCall(item, ctx, out)) return false;
          break;
        }
        case RhsKind::kParam: {
          const int idx = item.param - 1;
          if (owner < 0 || idx < 0 || idx >= mft_.num_params(owner)) {
            error_ = "parameter reference in rhs";
            return false;
          }
          if (used[idx]) {
            error_ = "state '" + mft_.state_name(owner) +
                     "' uses a parameter twice";
            return false;
          }
          used[idx] = true;
          out->push_back(
              {LowerOp::kRopeEmit, static_cast<std::uint32_t>(idx)});
          break;
        }
      }
      if (out->size() > kMaxCodeSize) {
        error_ = "lowered program exceeds the size limit";
        return false;
      }
    }
    return true;
  }

  // An argument-free state call: the parameter-free fast path.
  bool EmitPlainCall(const RhsNode& item, std::uint32_t ctx,
                     std::vector<LoweredInsn>* out) {
    const StateId callee = item.state;
    if (mft_.num_params(callee) > 0) {
      error_ = "call to state '" + mft_.state_name(callee) +
               "' is missing its arguments";
      return false;
    }
    switch (item.input) {
      case InputVar::kX0:
        return Splice(callee, ctx, out);
      case InputVar::kX1: {
        if (IsTextCtx(ctx)) {
          // A text node's child forest is empty: running q over it is
          // exactly q's epsilon program.
          return Splice(callee, CtxEps(), out);
        }
        if (ctx == CtxEps()) {
          error_ = "x1 in an epsilon rule";  // excluded by Validate()
          return false;
        }
        out->push_back(
            {LowerOp::kChild, static_cast<std::uint32_t>(callee)});
        return true;
      }
      case InputVar::kX2: {
        if (ctx == CtxEps()) {
          error_ = "x2 in an epsilon rule";  // excluded by Validate()
          return false;
        }
        out->push_back({LowerOp::kSib, static_cast<std::uint32_t>(callee)});
        return true;
      }
    }
    error_ = "unknown input variable";
    return false;
  }

  // A parameter-carrying call. Append-only callees run on rope registers
  // (x0 calls inline the callee's rule with the arguments substituted);
  // selector clusters become choice sites; anything else keeps the plan on
  // the table machine.
  bool EmitParamCall(const RhsNode& item, StateId owner, std::uint32_t ctx,
                     bool* used, std::vector<LoweredInsn>* out) {
    const StateId callee = item.state;
    const int cn = mft_.num_params(callee);
    if (cn == 0 || static_cast<int>(item.args.size()) != cn) {
      error_ = "call to state '" + mft_.state_name(callee) +
               "' has the wrong arity";
      return false;
    }
    if (ctx == CtxEps() && item.input != InputVar::kX0) {
      error_ = item.input == InputVar::kX1 ? "x1 in an epsilon rule"
                                           : "x2 in an epsilon rule";
      return false;
    }

    if (sel_[static_cast<std::size_t>(callee)]) {
      return EmitChoiceSite(item, owner, ctx, used, out);
    }
    if (app_[static_cast<std::size_t>(callee)]) {
      if (item.input != InputVar::kX0) {
        return EmitRopeCall(item, owner, ctx, used, out);
      }
      error_ = "x0 call to append-only state '" + mft_.state_name(callee) +
               "'";
    } else if (item.input == InputVar::kX0) {
      error_ = "call to '" + mft_.state_name(callee) +
               "': " + GeneralReason(callee);
    } else {
      error_ = item.input == InputVar::kX1
                   ? "parameter-carrying call over children does not lower"
                   : "parameter-carrying call over following siblings";
    }
    return false;
  }

  // An x1/x2 call to an append-only state.
  bool EmitRopeCall(const RhsNode& item, StateId owner, std::uint32_t ctx,
                    bool* used, std::vector<LoweredInsn>* out) {
    const StateId callee = item.state;
    const int cn = mft_.num_params(callee);
    if (item.input == InputVar::kX1 && IsTextCtx(ctx)) {
      // Empty child forest: the callee's epsilon rule with these arguments
      // substituted — plain emission. The arguments read the caller's
      // node, so the rule compiles in the caller's context, which is only
      // sound while the epsilon rule makes no calls of its own.
      const Rhs* eps = RuleAt(callee, CtxEps());
      if (eps == nullptr || HasCall(*eps)) {
        error_ = "state '" + mft_.state_name(callee) +
                 (eps == nullptr ? "' has no applicable rule"
                                 : "' calls a state from its epsilon rule");
        return false;
      }
      return EmitRhs(SubstParams(*eps, item.args), owner, ctx, used, out);
    }
    // Identity pass q'(xi, y1..yn): the spawned consumer simply inherits
    // the caller's register file — a plain kChild/kSib, which keeps the
    // sibling-scan hot path allocation-free.
    if (owner >= 0 && cn == mft_.num_params(owner) &&
        IsIdentityArgs(item.args)) {
      for (int i = 0; i < cn; ++i) {
        if (used[i]) {
          error_ = "state '" + mft_.state_name(owner) +
                   "' uses a parameter twice";
          return false;
        }
        used[i] = true;
      }
      out->push_back({item.input == InputVar::kX1 ? LowerOp::kChild
                                                  : LowerOp::kSib,
                      static_cast<std::uint32_t>(item.state)});
      return true;
    }
    // Stage the register file rope by rope.
    for (const Rhs& arg : item.args) {
      out->push_back({LowerOp::kRopeNew, 0});
      if (!EmitRopeArg(arg, owner, ctx, used, out)) return false;
    }
    out->push_back({item.input == InputVar::kX1 ? LowerOp::kRopeChild
                                                : LowerOp::kRopeSib,
                    static_cast<std::uint32_t>(item.state)});
    return true;
  }

  // A call into a selector cluster: `q(x, R_1·C, .., R_n·C)`. Whichever
  // argument the cluster selects, the output is R_w·C, so C is emitted as
  // ordinary caller code after the site and only the residuals R_i wait on
  // the choice. When the cluster's verdict is already fixed at compile time
  // (a text or epsilon anchor, or a rule that selects without reading
  // input) only the winning residual is emitted; otherwise the residuals go
  // to held segments and the cluster runs on choice frames.
  bool EmitChoiceSite(const RhsNode& item, StateId owner, std::uint32_t ctx,
                      bool* used, std::vector<LoweredInsn>* out) {
    const StateId callee = item.state;
    const StateId gap = ClusterGap(callee);
    if (gap >= 0) {
      error_ = "selector cluster '" + mft_.state_name(callee) +
               "' is not total: state '" + mft_.state_name(gap) +
               "' lacks a default or epsilon rule";
      return false;
    }
    if (choice_params_ > kMaxChoiceParams) {
      error_ = "selector cluster '" + mft_.state_name(callee) +
               "' carries more than " + std::to_string(kMaxChoiceParams) +
               " parameters";
      return false;
    }

    // Common-suffix factoring.
    std::size_t min_len = item.args[0].size();
    for (const Rhs& arg : item.args) min_len = std::min(min_len, arg.size());
    std::size_t suffix = 0;
    while (suffix < min_len) {
      const RhsNode& probe = item.args[0][item.args[0].size() - 1 - suffix];
      bool all = true;
      for (const Rhs& arg : item.args) {
        if (!(arg[arg.size() - 1 - suffix] == probe)) {
          all = false;
          break;
        }
      }
      if (!all) break;
      ++suffix;
    }
    const Rhs& a0 = item.args[0];
    const Rhs common(a0.end() - static_cast<std::ptrdiff_t>(suffix), a0.end());
    std::vector<Rhs> residuals;
    bool identical = true;
    for (const Rhs& arg : item.args) {
      residuals.emplace_back(arg.begin(),
                             arg.end() - static_cast<std::ptrdiff_t>(suffix));
      identical = identical && arg.size() == suffix;
    }
    if (identical) {
      // Identical arguments: whichever the cluster selects, the output is
      // the shared forest — drop the call entirely.
      return EmitRhs(a0, owner, ctx, used, out);
    }

    ChoiceScope scope;
    std::vector<int> values;
    for (std::size_t i = 0; i < residuals.size(); ++i) {
      ChoiceExpr r;
      r.kind = ChoiceExpr::Kind::kResidual;
      r.index = static_cast<std::uint32_t>(i);
      values.push_back(Push(&scope, std::move(r)));
    }
    ChoiceExpr root;
    root.kind = ChoiceExpr::Kind::kCall;
    root.state = callee;
    root.input = item.input;
    root.ctx = ctx;
    root.args = values;
    const int e = Follow(&scope, Push(&scope, std::move(root)));
    if (e < 0) return false;
    if (scope.exprs[static_cast<std::size_t>(e)].kind ==
        ChoiceExpr::Kind::kResidual) {
      const Rhs& win = residuals[scope.exprs[static_cast<std::size_t>(e)].index];
      return EmitRhs(win, owner, ctx, used, out) &&
             EmitRhs(common, owner, ctx, used, out);
    }

    out->push_back(
        {LowerOp::kChoiceOpen, static_cast<std::uint32_t>(residuals.size())});
    for (std::size_t i = 0; i < residuals.size(); ++i) {
      if (i > 0) out->push_back({LowerOp::kChoiceNext, 0});
      if (!EmitRhs(residuals[i], owner, ctx, used, out)) return false;
    }
    out->push_back({LowerOp::kChoiceClose, 0});
    if (!EmitSpawn(&scope, e, /*target=*/0, /*own=*/false, out)) return false;
    return EmitRhs(common, owner, ctx, used, out);
  }

  // The program of cluster state `q` in context `ctx`: resolve the running
  // frame (`self`) with a value, or hand it to the consumer that decides it.
  bool EmitClusterProgram(StateId q, const Rhs& rule, std::uint32_t ctx,
                          std::vector<LoweredInsn>* out) {
    ChoiceScope scope;
    std::vector<int> own;
    for (int i = 0; i < mft_.num_params(q); ++i) {
      ChoiceExpr p;
      p.kind = ChoiceExpr::Kind::kOwn;
      p.index = static_cast<std::uint32_t>(i);
      own.push_back(Push(&scope, std::move(p)));
    }
    int e = MakeExpr(&scope, rule[0], own, ctx);
    e = Follow(&scope, e);
    if (e < 0) return false;
    if (scope.exprs[static_cast<std::size_t>(e)].kind ==
        ChoiceExpr::Kind::kCall) {
      return EmitSpawn(&scope, e, /*target=*/0, /*own=*/true, out);
    }
    const std::int64_t v = Materialize(&scope, e, out);
    if (v < 0) return false;
    out->push_back({LowerOp::kChoiceArg, static_cast<std::uint32_t>(v)});
    out->push_back({LowerOp::kChoiceResolve, 0});
    return true;
  }

  static int Push(ChoiceScope* scope, ChoiceExpr e) {
    scope->exprs.push_back(std::move(e));
    return static_cast<int>(scope->exprs.size()) - 1;
  }

  // The value of one rule node (a parameter or a cluster call) whose rule
  // fires in `ctx` with parameters bound to `env`.
  int MakeExpr(ChoiceScope* scope, const RhsNode& node,
               const std::vector<int>& env, std::uint32_t ctx) {
    if (node.kind == RhsKind::kParam) {
      return env[static_cast<std::size_t>(node.param) - 1];
    }
    ChoiceExpr call;
    call.kind = ChoiceExpr::Kind::kCall;
    call.state = node.state;
    call.input = node.input;
    call.ctx = ctx;
    for (const Rhs& arg : node.args) {
      call.args.push_back(MakeExpr(scope, arg[0], env, ctx));
    }
    return Push(scope, std::move(call));
  }

  bool SameExpr(const ChoiceScope& scope, int a, int b) const {
    if (a == b) return true;
    const ChoiceExpr& x = scope.exprs[static_cast<std::size_t>(a)];
    const ChoiceExpr& y = scope.exprs[static_cast<std::size_t>(b)];
    if (x.kind != y.kind) return false;
    if (x.kind != ChoiceExpr::Kind::kCall) return x.index == y.index;
    if (x.state != y.state || x.input != y.input || x.ctx != y.ctx ||
        x.args.size() != y.args.size()) {
      return false;
    }
    for (std::size_t i = 0; i < x.args.size(); ++i) {
      if (!SameExpr(scope, x.args[i], y.args[i])) return false;
    }
    return true;
  }

  // Evaluates a value as far as compile time allows: a call whose
  // arguments are all the same value is that value (the cluster is total),
  // x0 calls apply the callee's rule at the same node, and x1 over a text
  // node is the callee's epsilon rule. Stops at a parameter/residual or at
  // a call that reads input (x1 over an element, or x2). Returns -1 with
  // error_ set on an x0 cycle.
  int Follow(ChoiceScope* scope, int e) {
    std::vector<std::pair<StateId, std::uint32_t>> seen;
    while (true) {
      const ChoiceExpr cur = scope->exprs[static_cast<std::size_t>(e)];
      if (cur.kind != ChoiceExpr::Kind::kCall) return e;
      bool same = true;
      for (int a : cur.args) same = same && SameExpr(*scope, a, cur.args[0]);
      if (same) {
        e = cur.args[0];
        continue;
      }
      std::uint32_t rctx;
      if (cur.input == InputVar::kX0) {
        rctx = cur.ctx;
      } else if (cur.input == InputVar::kX1 && IsTextCtx(cur.ctx)) {
        rctx = CtxEps();
      } else {
        return e;
      }
      const std::pair<StateId, std::uint32_t> key{cur.state, rctx};
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
        error_ = "x0-call cycle through state '" +
                 mft_.state_name(cur.state) + "'";
        return -1;
      }
      seen.push_back(key);
      const Rhs* rule = RuleAt(cur.state, rctx);
      if (rule == nullptr) {
        error_ = "state '" + mft_.state_name(cur.state) +
                 "' has no applicable rule";
        return -1;
      }
      e = MakeExpr(scope, (*rule)[0], cur.args, rctx);
    }
  }

  // The kChoiceArg operand for a value, creating (and spawning) the frame
  // of a call that reads input the first time it is needed. -1 on error.
  std::int64_t Materialize(ChoiceScope* scope, int e,
                           std::vector<LoweredInsn>* out) {
    e = Follow(scope, e);
    if (e < 0) return -1;
    const ChoiceExpr& x = scope->exprs[static_cast<std::size_t>(e)];
    auto operand = [](ChoiceOperand kind, std::uint32_t index) {
      return static_cast<std::int64_t>(
          (static_cast<std::uint32_t>(kind) << kChoiceKindShift) | index);
    };
    if (x.kind == ChoiceExpr::Kind::kResidual) {
      return operand(ChoiceOperand::kResidual, x.index);
    }
    if (x.kind == ChoiceExpr::Kind::kOwn) {
      return operand(ChoiceOperand::kOwn, x.index);
    }
    if (x.fresh >= 0) {
      return operand(ChoiceOperand::kFresh,
                     static_cast<std::uint32_t>(x.fresh));
    }
    if (scope->n_fresh >= kMaxChoiceFresh) {
      error_ = "selector program creates more than " +
               std::to_string(kMaxChoiceFresh) + " frames";
      return -1;
    }
    const std::uint32_t k = scope->n_fresh++;
    scope->exprs[static_cast<std::size_t>(e)].fresh = static_cast<int>(k);
    out->push_back({LowerOp::kChoiceNew, 0});
    if (!EmitSpawn(scope, e, k + 1, /*own=*/false, out)) return -1;
    return operand(ChoiceOperand::kFresh, k);
  }

  // Starts the consumer that decides `target` (0 = the running frame, k+1
  // = fresh frame k): call `e` reads input, so its state runs over the
  // children or the following siblings with the call's arguments as the
  // frame's parameters. A cluster program passing its own parameters
  // through unchanged keeps its frame: a plain kChild/kSib.
  bool EmitSpawn(ChoiceScope* scope, int e, std::uint32_t target, bool own,
                 std::vector<LoweredInsn>* out) {
    const ChoiceExpr call = scope->exprs[static_cast<std::size_t>(e)];
    const bool child = call.input == InputVar::kX1;
    std::vector<std::uint32_t> ops;
    bool identity = own && target == 0;
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      const std::int64_t v = Materialize(scope, call.args[i], out);
      if (v < 0) return false;
      ops.push_back(static_cast<std::uint32_t>(v));
      identity = identity &&
                 ops.back() == ((static_cast<std::uint32_t>(ChoiceOperand::kOwn)
                                 << kChoiceKindShift) |
                                static_cast<std::uint32_t>(i));
    }
    if (!queued_[static_cast<std::size_t>(call.state)]) {
      queued_[static_cast<std::size_t>(call.state)] = true;
      sel_queue_.push_back(call.state);
    }
    if (identity) {
      out->push_back({child ? LowerOp::kChild : LowerOp::kSib,
                      static_cast<std::uint32_t>(call.state)});
      return true;
    }
    for (std::uint32_t v : ops) out->push_back({LowerOp::kChoiceArg, v});
    out->push_back({child ? LowerOp::kChoiceSpawnChild
                          : LowerOp::kChoiceSpawnSib,
                    ChoiceSpawn(static_cast<std::uint32_t>(call.state),
                                target)});
    return true;
  }

  static bool CallsX0(const Rhs& rhs) {
    for (const RhsNode& item : rhs) {
      if (item.kind == RhsKind::kLabel && CallsX0(item.children)) return true;
      if (item.kind != RhsKind::kCall) continue;
      if (item.input == InputVar::kX0) return true;
      for (const Rhs& arg : item.args) {
        if (CallsX0(arg)) return true;
      }
    }
    return false;
  }

  static bool HasCall(const Rhs& rhs) {
    for (const RhsNode& item : rhs) {
      if (item.kind == RhsKind::kCall) return true;
      if (item.kind == RhsKind::kLabel && HasCall(item.children)) return true;
    }
    return false;
  }

  static bool IsIdentityArgs(const std::vector<Rhs>& args) {
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i].size() != 1 || args[i][0].kind != RhsKind::kParam ||
          args[i][0].param != static_cast<int>(i) + 1) {
        return false;
      }
    }
    return true;
  }

  // Replaces parameter references in `rhs` by the given argument forests
  // (recursively, through label children and call arguments).
  Rhs SubstParams(const Rhs& rhs, const std::vector<Rhs>& args) const {
    Rhs out;
    for (const RhsNode& item : rhs) {
      if (item.kind == RhsKind::kParam) {
        const Rhs& a = args[static_cast<std::size_t>(item.param) - 1];
        out.insert(out.end(), a.begin(), a.end());
        continue;
      }
      RhsNode copy = item;
      if (copy.kind == RhsKind::kLabel) {
        copy.children = SubstParams(copy.children, args);
      } else if (copy.kind == RhsKind::kCall) {
        for (Rhs& arg : copy.args) arg = SubstParams(arg, args);
      }
      out.push_back(std::move(copy));
    }
    return out;
  }

  // Compiles one call argument into rope appends on the staging rope.
  bool EmitRopeArg(const Rhs& arg, StateId owner, std::uint32_t ctx,
                   bool* used, std::vector<LoweredInsn>* out) {
    for (const RhsNode& item : arg) {
      switch (item.kind) {
        case RhsKind::kLabel: {
          if (item.current_label) {
            if (ctx < width_) {
              out->push_back({LowerOp::kRopeOpen, ctx});
              if (!EmitRopeArg(item.children, owner, ctx, used, out)) {
                return false;
              }
              out->push_back({LowerOp::kRopeClose, ctx});
            } else if (ctx == CtxDefault()) {
              out->push_back({LowerOp::kRopeOpenCur, 0});
              if (!EmitRopeArg(item.children, owner, ctx, used, out)) {
                return false;
              }
              out->push_back({LowerOp::kRopeCloseCur, 0});
            } else if (ctx == CtxText()) {
              out->push_back({LowerOp::kRopeTextCur, 0});
            } else {
              error_ = "%t in an epsilon rule";
              return false;
            }
          } else if (item.symbol.kind == NodeKind::kText) {
            out->push_back({LowerOp::kRopeText, item.symbol_id});
          } else {
            out->push_back({LowerOp::kRopeOpen, item.symbol_id});
            if (!EmitRopeArg(item.children, owner, ctx, used, out)) {
              return false;
            }
            out->push_back({LowerOp::kRopeClose, item.symbol_id});
          }
          break;
        }
        case RhsKind::kParam: {
          const int idx = item.param - 1;
          if (owner < 0 || idx < 0 || idx >= mft_.num_params(owner)) {
            error_ = "parameter reference in rhs";
            return false;
          }
          if (used[idx]) {
            error_ = "state '" + mft_.state_name(owner) +
                     "' uses a parameter twice";
            return false;
          }
          used[idx] = true;
          out->push_back(
              {LowerOp::kRopeSplice, static_cast<std::uint32_t>(idx)});
          break;
        }
        case RhsKind::kCall:
          error_ = "state call inside an append-only argument";
          return false;
      }
    }
    return true;
  }

  bool Splice(StateId q, std::uint32_t ctx, std::vector<LoweredInsn>* out) {
    int p = CompileProgram(q, ctx);
    if (p < 0) return false;
    const LoweredProgramRef& ref = finished_[static_cast<std::size_t>(p)];
    out->insert(out->end(), plan_.code.begin() + ref.off,
                plan_.code.begin() + ref.off + ref.len);
    return true;
  }

  // Deduplicates and appends a finished program; returns its finished_
  // index, or -1 when the code store would exceed the cap.
  int Intern(std::vector<LoweredInsn> tmp) {
    std::vector<std::uint64_t> key;
    key.reserve(tmp.size());
    for (const LoweredInsn& insn : tmp) {
      key.push_back((static_cast<std::uint64_t>(insn.op) << 32) | insn.arg);
    }
    auto it = dedupe_.find(key);
    if (it != dedupe_.end()) return it->second;

    if (plan_.code.size() + tmp.size() > kMaxCodeSize) {
      error_ = "lowered program exceeds the size limit";
      return -1;
    }
    LoweredProgramRef ref;
    ref.off = static_cast<std::uint32_t>(plan_.code.size());
    ref.len = static_cast<std::uint32_t>(tmp.size());
    for (const LoweredInsn& insn : tmp) {
      switch (insn.op) {
        case LowerOp::kChild:
        case LowerOp::kRopeChild:
        case LowerOp::kChoiceSpawnChild:
          ++ref.n_child;
          break;
        case LowerOp::kSib:
        case LowerOp::kRopeSib:
        case LowerOp::kChoiceSpawnSib:
          ++ref.n_sib;
          break;
        case LowerOp::kRopeOpen:
        case LowerOp::kRopeClose:
        case LowerOp::kRopeText:
        case LowerOp::kRopeOpenCur:
        case LowerOp::kRopeCloseCur:
          ref.prealloc_bytes += kPreallocPerAppend;
          break;
        default:
          break;
      }
      if (insn.op == LowerOp::kRopeChild || insn.op == LowerOp::kRopeSib) {
        ref.prealloc_bytes += kPreallocPerSpawn;
      }
    }
    if (!tmp.empty()) {
      const LowerOp last = tmp.back().op;
      ref.tail_spawn = last == LowerOp::kChild || last == LowerOp::kSib ||
                       last == LowerOp::kRopeChild ||
                       last == LowerOp::kRopeSib;
    }
    ref.simple_sib = tmp.size() == 1 && tmp[0].op == LowerOp::kSib;
    plan_.code.insert(plan_.code.end(), tmp.begin(), tmp.end());

    int idx = static_cast<int>(finished_.size());
    finished_.push_back(ref);
    dedupe_.emplace(std::move(key), idx);
    return idx;
  }

  static constexpr std::int32_t kInProgress = -2;

  const Mft& mft_;
  const RuleDispatch& dispatch_;
  const SymbolId width_;
  LoweredPlan plan_;
  std::vector<StateClass> class_;
  std::vector<bool> sel_;       // selector-cluster shape
  std::vector<bool> app_;       // append-only shape (rope registers)
  std::vector<bool> text_dep_;  // text program depends on content
  std::uint32_t choice_params_ = 0;  // widest selector state
  std::vector<StateId> sel_queue_;   // cluster states awaiting programs
  std::vector<bool> queued_;         // ever pushed onto sel_queue_
  std::vector<std::int32_t> memo_;  // (state, ctx) -> finished_ index
  std::vector<LoweredProgramRef> finished_;
  std::map<std::vector<std::uint64_t>, int> dedupe_;
  std::string error_;
};

// What the Mft's type-erased lowering-cache slot actually holds: the plan,
// or the reason there is none. Negative results are cached too — an
// unlowerable transducer should not re-run the analysis per engine.
struct LoweredCacheEntry {
  std::unique_ptr<const LoweredPlan> plan;
  std::string reason;
};

}  // namespace

Result<LoweredPlan> LowerMft(const Mft& mft) { return Compiler(mft).Run(); }

const LoweredPlan* GetLoweredPlan(const Mft& mft, std::string* why) {
  auto cached =
      std::static_pointer_cast<const LoweredCacheEntry>(mft.lowering_cache());
  if (cached == nullptr) {
    auto entry = std::make_shared<LoweredCacheEntry>();
    Result<LoweredPlan> r = LowerMft(mft);
    if (r.ok()) {
      entry->plan =
          std::make_unique<const LoweredPlan>(std::move(r).value());
    } else {
      entry->reason = r.status().message();
    }
    cached = std::move(entry);
    mft.set_lowering_cache(
        std::static_pointer_cast<const void>(cached));
  }
  if (why != nullptr) {
    *why = cached->plan != nullptr ? cached->plan->lowering_note
                                   : cached->reason;
  }
  return cached->plan.get();
}

}  // namespace lower
}  // namespace xqmft
