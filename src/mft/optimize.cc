#include "mft/optimize.h"

#include <functional>
#include <optional>
#include <set>
#include <utility>

#include "util/strings.h"

namespace xqmft {

namespace {

// Rounds of the four passes before OptimizeMft stops even if a pass still
// reports a change.
constexpr int kMaxIterations = 100;

// Applies `fn` to every rule RHS of `mft`.
void ForEachRhs(Mft* mft, const std::function<void(StateId, Rhs*)>& fn) {
  for (StateId q = 0; q < mft->num_states(); ++q) {
    StateRules& r = mft->mutable_rules(q);
    for (auto& [sym, rhs] : r.symbol_rules) fn(q, &rhs);
    if (r.text_rule) fn(q, &*r.text_rule);
    if (r.default_rule) fn(q, &*r.default_rule);
    if (r.epsilon_rule) fn(q, &*r.epsilon_rule);
  }
}

void ForEachRhsConst(const Mft& mft,
                     const std::function<void(StateId, const Rhs&)>& fn) {
  for (StateId q = 0; q < mft.num_states(); ++q) {
    const StateRules& r = mft.rules(q);
    for (const auto& [sym, rhs] : r.symbol_rules) fn(q, rhs);
    if (r.text_rule) fn(q, *r.text_rule);
    if (r.default_rule) fn(q, *r.default_rule);
    if (r.epsilon_rule) fn(q, *r.epsilon_rule);
  }
}

// Collects the parameters with a *bare* occurrence in `rhs`: an occurrence
// not inside an argument of a state call (label children are still bare).
void CollectBareParams(const Rhs& rhs, std::set<int>* out) {
  for (const RhsNode& node : rhs) {
    switch (node.kind) {
      case RhsKind::kParam:
        out->insert(node.param);
        break;
      case RhsKind::kLabel:
        CollectBareParams(node.children, out);
        break;
      case RhsKind::kCall:
        break;  // arguments are not bare positions
    }
  }
}

// Visits every call node in `rhs`, at any nesting depth (label children and
// call arguments included).
void ForEachCall(const Rhs& rhs,
                 const std::function<void(const RhsNode&)>& fn) {
  for (const RhsNode& node : rhs) {
    switch (node.kind) {
      case RhsKind::kParam:
        break;
      case RhsKind::kLabel:
        ForEachCall(node.children, fn);
        break;
      case RhsKind::kCall:
        fn(node);
        for (const Rhs& arg : node.args) ForEachCall(arg, fn);
        break;
    }
  }
}

// True if `rhs` is a ground output forest: fixed labels only (no calls,
// parameters, or %t).
bool IsGround(const Rhs& rhs) {
  for (const RhsNode& node : rhs) {
    if (node.kind != RhsKind::kLabel || node.current_label) return false;
    if (!IsGround(node.children)) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pass 1: unused parameter reduction
// ---------------------------------------------------------------------------

bool RemoveUnusedParameters(Mft* mft, int* removed) {
  const int n = mft->num_states();
  // necessary[q] = set of 1-based parameter indices known to reach output.
  std::vector<std::set<int>> necessary(static_cast<std::size_t>(n));

  // Seed: bare occurrences.
  ForEachRhsConst(*mft, [&](StateId q, const Rhs& rhs) {
    CollectBareParams(rhs, &necessary[static_cast<std::size_t>(q)]);
  });

  // Closure: a parameter is necessary if it occurs bare in an argument
  // passed into a necessary parameter position of any call.
  bool grew = true;
  while (grew) {
    grew = false;
    ForEachRhsConst(*mft, [&](StateId q, const Rhs& rhs) {
      ForEachCall(rhs, [&](const RhsNode& call) {
        const std::set<int>& callee_needs =
            necessary[static_cast<std::size_t>(call.state)];
        for (std::size_t j = 0; j < call.args.size(); ++j) {
          if (!callee_needs.count(static_cast<int>(j) + 1)) continue;
          std::set<int> bare;
          CollectBareParams(call.args[j], &bare);
          for (int i : bare) {
            if (necessary[static_cast<std::size_t>(q)].insert(i).second) {
              grew = true;
            }
          }
        }
      });
    });
  }

  // keep/remap tables.
  int total_removed = 0;
  std::vector<std::vector<int>> remap(static_cast<std::size_t>(n));
  std::vector<int> new_counts(static_cast<std::size_t>(n));
  for (StateId q = 0; q < n; ++q) {
    int m = mft->num_params(q);
    remap[static_cast<std::size_t>(q)].assign(static_cast<std::size_t>(m) + 1,
                                              -1);
    int next = 0;
    for (int i = 1; i <= m; ++i) {
      if (necessary[static_cast<std::size_t>(q)].count(i)) {
        remap[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)] =
            ++next;
      } else {
        ++total_removed;
      }
    }
    new_counts[static_cast<std::size_t>(q)] = next;
  }
  if (removed != nullptr) *removed = total_removed;
  if (total_removed == 0) return false;

  // Rebuild with dropped parameters.
  Mft out;
  for (StateId q = 0; q < n; ++q) {
    out.AddState(mft->state_name(q), new_counts[static_cast<std::size_t>(q)]);
  }
  out.set_initial_state(mft->initial_state());

  std::function<Rhs(StateId, const Rhs&)> rewrite = [&](StateId host,
                                                        const Rhs& rhs) -> Rhs {
    Rhs result;
    for (const RhsNode& node : rhs) {
      switch (node.kind) {
        case RhsKind::kParam: {
          int ni = remap[static_cast<std::size_t>(host)]
                        [static_cast<std::size_t>(node.param)];
          XQMFT_CHECK(ni > 0);  // bare occurrence of an unused parameter
          result.push_back(RhsNode::Param(ni));
          break;
        }
        case RhsKind::kLabel: {
          RhsNode copy = node;
          copy.children = rewrite(host, node.children);
          result.push_back(std::move(copy));
          break;
        }
        case RhsKind::kCall: {
          RhsNode copy;
          copy.kind = RhsKind::kCall;
          copy.state = node.state;
          copy.input = node.input;
          const std::set<int>& callee_needs =
              necessary[static_cast<std::size_t>(node.state)];
          for (std::size_t j = 0; j < node.args.size(); ++j) {
            if (callee_needs.count(static_cast<int>(j) + 1)) {
              copy.args.push_back(rewrite(host, node.args[j]));
            }
          }
          result.push_back(std::move(copy));
          break;
        }
      }
    }
    return result;
  };

  for (StateId q = 0; q < n; ++q) {
    const StateRules& r = mft->rules(q);
    for (const auto& [sym, rhs] : r.symbol_rules) {
      out.SetSymbolRule(q, sym, rewrite(q, rhs));
    }
    if (r.text_rule) out.SetTextRule(q, rewrite(q, *r.text_rule));
    if (r.default_rule) out.SetDefaultRule(q, rewrite(q, *r.default_rule));
    if (r.epsilon_rule) out.SetEpsilonRule(q, rewrite(q, *r.epsilon_rule));
  }
  *mft = std::move(out);
  return true;
}

// ---------------------------------------------------------------------------
// Pass 2: constant parameter reduction
// ---------------------------------------------------------------------------

bool RemoveConstantParameters(Mft* mft, int* removed) {
  const int n = mft->num_states();
  struct Candidate {
    bool viable = true;
    bool has_witness = false;
    Rhs value;
  };
  std::vector<std::vector<Candidate>> cand(static_cast<std::size_t>(n));
  for (StateId q = 0; q < n; ++q) {
    cand[static_cast<std::size_t>(q)].resize(
        static_cast<std::size_t>(mft->num_params(q)));
  }

  // Classify every call argument: ground constant, self pass-through, or
  // disqualifying.
  ForEachRhsConst(*mft, [&](StateId host, const Rhs& rhs) {
    ForEachCall(rhs, [&](const RhsNode& call) {
      for (std::size_t j = 0; j < call.args.size(); ++j) {
        Candidate& c = cand[static_cast<std::size_t>(call.state)][j];
        if (!c.viable) continue;
        const Rhs& arg = call.args[j];
        // Self pass-through: y_{j+1} in a rule of the same state.
        if (host == call.state && arg.size() == 1 &&
            arg[0].kind == RhsKind::kParam &&
            arg[0].param == static_cast<int>(j) + 1) {
          continue;
        }
        if (IsGround(arg)) {
          if (!c.has_witness) {
            c.has_witness = true;
            c.value = arg;
          } else if (!(c.value == arg)) {
            c.viable = false;
          }
          continue;
        }
        c.viable = false;
      }
    });
  });

  // Decide removals. A parameter with no ground witness anywhere has no
  // defined constant value; leave it to the other passes.
  int total_removed = 0;
  std::vector<std::vector<int>> remap(static_cast<std::size_t>(n));
  std::vector<int> new_counts(static_cast<std::size_t>(n));
  std::vector<std::vector<const Rhs*>> subst(static_cast<std::size_t>(n));
  for (StateId q = 0; q < n; ++q) {
    int m = mft->num_params(q);
    remap[static_cast<std::size_t>(q)].assign(static_cast<std::size_t>(m) + 1,
                                              -1);
    subst[static_cast<std::size_t>(q)].assign(
        static_cast<std::size_t>(m) + 1, nullptr);
    int next = 0;
    for (int i = 1; i <= m; ++i) {
      Candidate& c =
          cand[static_cast<std::size_t>(q)][static_cast<std::size_t>(i) - 1];
      if (c.viable && c.has_witness) {
        subst[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)] =
            &c.value;
        ++total_removed;
      } else {
        remap[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)] =
            ++next;
      }
    }
    new_counts[static_cast<std::size_t>(q)] = next;
  }
  if (removed != nullptr) *removed = total_removed;
  if (total_removed == 0) return false;

  Mft out;
  for (StateId q = 0; q < n; ++q) {
    out.AddState(mft->state_name(q), new_counts[static_cast<std::size_t>(q)]);
  }
  out.set_initial_state(mft->initial_state());

  std::function<Rhs(StateId, const Rhs&)> rewrite = [&](StateId host,
                                                        const Rhs& rhs) -> Rhs {
    Rhs result;
    for (const RhsNode& node : rhs) {
      switch (node.kind) {
        case RhsKind::kParam: {
          const Rhs* sub = subst[static_cast<std::size_t>(host)]
                                [static_cast<std::size_t>(node.param)];
          if (sub != nullptr) {
            // Splice the constant forest in place of the parameter.
            for (const RhsNode& c : *sub) result.push_back(c);
          } else {
            int ni = remap[static_cast<std::size_t>(host)]
                          [static_cast<std::size_t>(node.param)];
            XQMFT_CHECK(ni > 0);
            result.push_back(RhsNode::Param(ni));
          }
          break;
        }
        case RhsKind::kLabel: {
          RhsNode copy = node;
          copy.children = rewrite(host, node.children);
          result.push_back(std::move(copy));
          break;
        }
        case RhsKind::kCall: {
          RhsNode copy;
          copy.kind = RhsKind::kCall;
          copy.state = node.state;
          copy.input = node.input;
          for (std::size_t j = 0; j < node.args.size(); ++j) {
            if (subst[static_cast<std::size_t>(node.state)][j + 1] == nullptr) {
              copy.args.push_back(rewrite(host, node.args[j]));
            }
          }
          result.push_back(std::move(copy));
          break;
        }
      }
    }
    return result;
  };

  for (StateId q = 0; q < n; ++q) {
    const StateRules& r = mft->rules(q);
    for (const auto& [sym, rhs] : r.symbol_rules) {
      out.SetSymbolRule(q, sym, rewrite(q, rhs));
    }
    if (r.text_rule) out.SetTextRule(q, rewrite(q, *r.text_rule));
    if (r.default_rule) out.SetDefaultRule(q, rewrite(q, *r.default_rule));
    if (r.epsilon_rule) out.SetEpsilonRule(q, rewrite(q, *r.epsilon_rule));
  }
  *mft = std::move(out);
  return true;
}

// ---------------------------------------------------------------------------
// Pass 3: stay-move removal (inlining)
// ---------------------------------------------------------------------------

namespace {

// True if all calls in `rhs` (at any depth) use x0 and no %t labels occur.
bool StayInlinable(const Rhs& rhs) {
  for (const RhsNode& node : rhs) {
    switch (node.kind) {
      case RhsKind::kParam:
        break;
      case RhsKind::kLabel:
        if (node.current_label) return false;
        if (!StayInlinable(node.children)) return false;
        break;
      case RhsKind::kCall:
        if (node.input != InputVar::kX0) return false;
        for (const Rhs& arg : node.args) {
          if (!StayInlinable(arg)) return false;
        }
        break;
    }
  }
  return true;
}

bool CallsState(const Rhs& rhs, StateId q) {
  bool found = false;
  ForEachCall(rhs, [&](const RhsNode& call) {
    if (call.state == q) found = true;
  });
  return found;
}

// Clones `body` with every call input x0 replaced by `target` and every
// parameter y_j replaced by args[j-1] (spliced verbatim).
Rhs InstantiateStayBody(const Rhs& body, InputVar target,
                        const std::vector<Rhs>& args) {
  Rhs result;
  for (const RhsNode& node : body) {
    switch (node.kind) {
      case RhsKind::kParam: {
        const Rhs& a = args[static_cast<std::size_t>(node.param) - 1];
        for (const RhsNode& c : a) result.push_back(c);
        break;
      }
      case RhsKind::kLabel: {
        RhsNode copy = node;
        copy.children = InstantiateStayBody(node.children, target, args);
        result.push_back(std::move(copy));
        break;
      }
      case RhsKind::kCall: {
        RhsNode copy;
        copy.kind = RhsKind::kCall;
        copy.state = node.state;
        copy.input = target;  // stay bodies only contain x0 calls
        for (const Rhs& arg : node.args) {
          copy.args.push_back(InstantiateStayBody(arg, target, args));
        }
        result.push_back(std::move(copy));
        break;
      }
    }
  }
  return result;
}

// Rewrites `rhs`, inlining every call to `q` with `body`.
Rhs InlineCalls(const Rhs& rhs, StateId q, const Rhs& body) {
  Rhs result;
  for (const RhsNode& node : rhs) {
    switch (node.kind) {
      case RhsKind::kParam:
        result.push_back(node);
        break;
      case RhsKind::kLabel: {
        RhsNode copy = node;
        copy.children = InlineCalls(node.children, q, body);
        result.push_back(std::move(copy));
        break;
      }
      case RhsKind::kCall: {
        std::vector<Rhs> args;
        args.reserve(node.args.size());
        for (const Rhs& arg : node.args) {
          args.push_back(InlineCalls(arg, q, body));
        }
        if (node.state == q) {
          Rhs inlined = InstantiateStayBody(body, node.input, args);
          for (RhsNode& c : inlined) result.push_back(std::move(c));
        } else {
          RhsNode copy;
          copy.kind = RhsKind::kCall;
          copy.state = node.state;
          copy.input = node.input;
          copy.args = std::move(args);
          result.push_back(std::move(copy));
        }
        break;
      }
    }
  }
  return result;
}

}  // namespace

bool InlineStayStates(Mft* mft, int* inlined) {
  if (inlined != nullptr) *inlined = 0;
  for (StateId q = 0; q < mft->num_states(); ++q) {
    if (q == mft->initial_state()) continue;
    const StateRules& r = mft->rules(q);
    if (!r.symbol_rules.empty() || r.text_rule.has_value()) continue;
    if (!r.default_rule || !r.epsilon_rule) continue;
    if (!(*r.default_rule == *r.epsilon_rule)) continue;
    const Rhs body = *r.default_rule;  // copy: rules are rewritten below
    if (!StayInlinable(body)) continue;
    if (CallsState(body, q)) continue;  // self-recursive stay state
    ForEachRhs(mft, [&](StateId host, Rhs* rhs) {
      if (host == q) return;  // q's own rules become dead
      *rhs = InlineCalls(*rhs, q, body);
    });
    if (inlined != nullptr) *inlined = 1;
    return true;  // one state per invocation; the fixpoint loop iterates
  }
  return false;
}

// ---------------------------------------------------------------------------
// Pass 4: unreachable state removal
// ---------------------------------------------------------------------------

bool RemoveUnreachableStates(Mft* mft, int* removed) {
  const int n = mft->num_states();
  std::vector<bool> reachable(static_cast<std::size_t>(n), false);
  std::vector<StateId> work{mft->initial_state()};
  reachable[static_cast<std::size_t>(mft->initial_state())] = true;
  auto visit_rhs = [&](const Rhs& rhs, std::vector<StateId>* out) {
    ForEachCall(rhs, [&](const RhsNode& call) {
      if (!reachable[static_cast<std::size_t>(call.state)]) {
        reachable[static_cast<std::size_t>(call.state)] = true;
        out->push_back(call.state);
      }
    });
  };
  while (!work.empty()) {
    StateId q = work.back();
    work.pop_back();
    const StateRules& r = mft->rules(q);
    for (const auto& [sym, rhs] : r.symbol_rules) visit_rhs(rhs, &work);
    if (r.text_rule) visit_rhs(*r.text_rule, &work);
    if (r.default_rule) visit_rhs(*r.default_rule, &work);
    if (r.epsilon_rule) visit_rhs(*r.epsilon_rule, &work);
  }

  int dead = 0;
  std::vector<StateId> remap(static_cast<std::size_t>(n), -1);
  for (StateId q = 0; q < n; ++q) {
    if (!reachable[static_cast<std::size_t>(q)]) ++dead;
  }
  if (removed != nullptr) *removed = dead;
  if (dead == 0) return false;

  Mft out;
  for (StateId q = 0; q < n; ++q) {
    if (reachable[static_cast<std::size_t>(q)]) {
      remap[static_cast<std::size_t>(q)] =
          out.AddState(mft->state_name(q), mft->num_params(q));
    }
  }
  out.set_initial_state(
      remap[static_cast<std::size_t>(mft->initial_state())]);

  std::function<Rhs(const Rhs&)> rewrite = [&](const Rhs& rhs) -> Rhs {
    Rhs result;
    for (const RhsNode& node : rhs) {
      RhsNode copy = node;
      if (copy.kind == RhsKind::kLabel) {
        copy.children = rewrite(node.children);
      } else if (copy.kind == RhsKind::kCall) {
        copy.state = remap[static_cast<std::size_t>(node.state)];
        XQMFT_CHECK(copy.state >= 0);
        copy.args.clear();
        for (const Rhs& arg : node.args) copy.args.push_back(rewrite(arg));
      }
      result.push_back(std::move(copy));
    }
    return result;
  };

  for (StateId q = 0; q < n; ++q) {
    if (!reachable[static_cast<std::size_t>(q)]) continue;
    StateId nq = remap[static_cast<std::size_t>(q)];
    const StateRules& r = mft->rules(q);
    for (const auto& [sym, rhs] : r.symbol_rules) {
      out.SetSymbolRule(nq, sym, rewrite(rhs));
    }
    if (r.text_rule) out.SetTextRule(nq, rewrite(*r.text_rule));
    if (r.default_rule) out.SetDefaultRule(nq, rewrite(*r.default_rule));
    if (r.epsilon_rule) out.SetEpsilonRule(nq, rewrite(*r.epsilon_rule));
  }
  *mft = std::move(out);
  return true;
}

// ---------------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------------

MftStats ComputeStats(const Mft& mft) {
  MftStats s;
  s.states = static_cast<std::size_t>(mft.num_states());
  s.rules = mft.NumRules();
  s.params = mft.TotalParams();
  s.size = mft.Size();
  return s;
}

std::string MftStats::ToString() const {
  return StrFormat("states=%zu rules=%zu params=%zu size=%zu", states, rules,
                   params, size);
}

std::string OptimizeReport::ToString() const {
  return StrFormat(
      "before: %s\nafter:  %s\niterations=%d unused_params=%d "
      "constant_params=%d inlined=%d unreachable=%d",
      before.ToString().c_str(), after.ToString().c_str(), iterations,
      unused_params_removed, constant_params_removed, states_inlined,
      states_removed);
}

Mft OptimizeMft(const Mft& mft, const OptimizeOptions& options,
                OptimizeReport* report) {
  Mft m = mft;
  OptimizeReport local;
  local.before = ComputeStats(m);
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    bool changed = false;
    int count = 0;
    if (options.unused_parameters && RemoveUnusedParameters(&m, &count)) {
      changed = true;
      local.unused_params_removed += count;
    }
    if (options.constant_parameters && RemoveConstantParameters(&m, &count)) {
      changed = true;
      local.constant_params_removed += count;
    }
    if (options.stay_moves && InlineStayStates(&m, &count)) {
      changed = true;
      local.states_inlined += count;
    }
    if (options.unreachable_states && RemoveUnreachableStates(&m, &count)) {
      changed = true;
      local.states_removed += count;
    }
    local.iterations = iter + 1;
    if (!changed) break;
  }
  local.after = ComputeStats(m);
  if (report != nullptr) *report = local;
  return m;
}

}  // namespace xqmft
