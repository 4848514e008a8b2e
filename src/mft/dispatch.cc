#include "mft/dispatch.h"

namespace xqmft {

namespace {

// Interns every output label of `rhs` (recursively) and fills the
// symbol_id caches, so instantiation never touches label strings.
void ResolveRhsSymbols(const Rhs& rhs, SymbolTable* table) {
  for (const RhsNode& node : rhs) {
    switch (node.kind) {
      case RhsKind::kLabel:
        if (!node.current_label) {
          node.symbol_id = table->Intern(node.symbol.kind, node.symbol.name);
        }
        ResolveRhsSymbols(node.children, table);
        break;
      case RhsKind::kCall:
        for (const Rhs& arg : node.args) ResolveRhsSymbols(arg, table);
        break;
      case RhsKind::kParam:
        break;
    }
  }
}

// Does any RHS node (recursively) copy the current input label? Over a text
// node %t copies the content, so this makes the transducer text-capturing.
bool RhsUsesCurrentLabel(const Rhs& rhs) {
  for (const RhsNode& node : rhs) {
    switch (node.kind) {
      case RhsKind::kLabel:
        if (node.current_label) return true;
        if (RhsUsesCurrentLabel(node.children)) return true;
        break;
      case RhsKind::kCall:
        for (const Rhs& arg : node.args) {
          if (RhsUsesCurrentLabel(arg)) return true;
        }
        break;
      case RhsKind::kParam:
        break;
    }
  }
  return false;
}

}  // namespace

RuleDispatch::RuleDispatch(const Mft& mft, SymbolTable* table) {
  // Pass 1: intern every symbol mentioned anywhere (LHS patterns and RHS
  // output labels) so the dense width covers the whole rule alphabet.
  for (StateId q = 0; q < mft.num_states(); ++q) {
    const StateRules& r = mft.rules(q);
    for (const auto& [sym, rhs] : r.symbol_rules) {
      table->Intern(sym.kind, sym.name);
      ResolveRhsSymbols(rhs, table);
      // Only rules that can fire over a *text* node observe content: a
      // text-pattern LHS matches by content, and %label over a text node
      // copies it. Element-keyed rules fire on element events alone, where
      // %label resolves from the SymbolId — they never need content.
      if (sym.kind == NodeKind::kText) captures_text_ = true;
    }
    if (r.text_rule) {
      ResolveRhsSymbols(*r.text_rule, table);
      if (RhsUsesCurrentLabel(*r.text_rule)) captures_text_ = true;
    }
    if (r.default_rule) {
      ResolveRhsSymbols(*r.default_rule, table);
      // default_rule reaches text nodes only when no text_rule shadows it
      // (row.text_fallback prefers text_rule).
      if (!r.text_rule && RhsUsesCurrentLabel(*r.default_rule)) {
        captures_text_ = true;
      }
    }
    if (r.epsilon_rule) ResolveRhsSymbols(*r.epsilon_rule, table);
  }
  width_ = static_cast<SymbolId>(table->size());

  // Pass 2: one row per state, every dense slot pre-resolved to the rule
  // that Mft::LookupRule would select for that symbol.
  rows_.resize(static_cast<std::size_t>(mft.num_states()));
  for (StateId q = 0; q < mft.num_states(); ++q) {
    const StateRules& r = mft.rules(q);
    Row& row = rows_[static_cast<std::size_t>(q)];
    row.element_fallback = r.default_rule ? &*r.default_rule : nullptr;
    row.text_fallback = r.text_rule      ? &*r.text_rule
                        : r.default_rule ? &*r.default_rule
                                         : nullptr;
    row.epsilon = r.epsilon_rule ? &*r.epsilon_rule : nullptr;
    // Only element-kind ids are dense-dispatched (ForElement); text nodes
    // carry content, not ids, and always go through ForText. Text-kind ids
    // (rule output literals, text-pattern LHS symbols) keep a null slot so
    // the unused path cannot masquerade as authoritative.
    row.slots.resize(width_);
    for (SymbolId id = 0; id < width_; ++id) {
      row.slots[id] = table->kind(id) == NodeKind::kElement
                          ? row.element_fallback
                          : nullptr;
    }
    for (const auto& [sym, rhs] : r.symbol_rules) {
      if (sym.kind == NodeKind::kText) {
        row.text_cases.push_back(TextCase{sym.name, &rhs});
        continue;
      }
      row.slots[table->Find(sym.kind, sym.name)] = &rhs;
    }
  }
}

}  // namespace xqmft
