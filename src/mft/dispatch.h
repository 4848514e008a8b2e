// Dense, alphabet-indexed rule dispatch (the compiled form of an Mft's rule
// selection).
//
// The paper's engine must do O(1) work per input event; the seed
// implementation instead re-hashed the node's label on every rule
// application (Mft::LookupRule built a Symbol and probed an unordered_map).
// RuleDispatch precompiles, per state, a flat table indexed by SymbolId:
//
//   slots[q][id]  =  exact symbol rule for id, if the state has one,
//                    else the kind-appropriate fallback (text rule for text
//                    symbols, default rule otherwise)
//
// so selection on the streaming hot path is two loads and a bounds check.
// Ids not in any rule's alphabet — input names first seen at runtime get ids
// >= width() — resolve through the per-state fallback slots without looking
// at the name. Text nodes carry content, not ids: they dispatch through
// ForText, which compares the content against the precompiled literal cases
// of the rare states that actually test text literals.
//
// Compilation also resolves every RHS output label to its id
// (RhsNode::symbol_id), so rule instantiation copies ids instead of strings.
#ifndef XQMFT_MFT_DISPATCH_H_
#define XQMFT_MFT_DISPATCH_H_

#include <string>
#include <string_view>
#include <vector>

#include "mft/mft.h"
#include "xml/symbol_table.h"

namespace xqmft {

/// \brief Per-state flat rule tables over a SymbolTable's dense ids.
///
/// Pointers reference the Mft's rule storage: the Mft must outlive the
/// dispatch and its rules must not change (Mft::dispatch() enforces this by
/// rebuilding after any mutation).
class RuleDispatch {
 public:
  /// Interns all rule symbols of `mft` into `table` and builds the tables.
  RuleDispatch(const Mft& mft, SymbolTable* table);

  /// Rule for state `q` on an element node with interned name `id`.
  /// Never null on a validated transducer.
  const Rhs* ForElement(StateId q, SymbolId id) const {
    const Row& row = rows_[static_cast<std::size_t>(q)];
    if (id < width_) return row.slots[id];
    return row.element_fallback;
  }

  /// One text-literal rule of a state: fires on a text node whose content
  /// equals `literal` exactly. The view points into the Mft's rule keys.
  struct TextCase {
    std::string_view literal;
    const Rhs* rhs;
  };

  /// Rule for state `q` on a text node with the given content.
  const Rhs* ForText(StateId q, std::string_view content) const {
    const Row& row = rows_[static_cast<std::size_t>(q)];
    // Literal-testing states compare the content against their precompiled
    // cases (content is unbounded input data, never interned); no key is
    // built and no hash is probed.
    for (const TextCase& c : row.text_cases) {
      if (c.literal == content) return c.rhs;
    }
    return row.text_fallback;
  }

  /// The text-literal cases of `q`, in the order ForText tries them. The
  /// lowered ops core compiles one program per case from this same list.
  const std::vector<TextCase>& TextCases(StateId q) const {
    return rows_[static_cast<std::size_t>(q)].text_cases;
  }

  /// Rule for state `q` on a text node that matches none of its cases.
  const Rhs* TextFallback(StateId q) const {
    return rows_[static_cast<std::size_t>(q)].text_fallback;
  }

  /// Epsilon rule of `q`. Never null on a validated transducer.
  const Rhs* Epsilon(StateId q) const {
    return rows_[static_cast<std::size_t>(q)].epsilon;
  }

  /// Number of ids the dense slots cover (the table size at compile time);
  /// ids >= width() take the fallback path.
  SymbolId width() const { return width_; }

  /// True when some rule can read text *content*: a state tests text
  /// literals, or an RHS copies the current label (%t, which over a text
  /// node copies its content). When false the engine need not buffer text
  /// at all — input text can never reach the output or steer a rule.
  bool captures_text() const { return captures_text_; }

 private:
  struct Row {
    // Indexed by SymbolId, size width_. Filled for element-kind ids only
    // (ForElement is the sole reader); text-kind ids hold nullptr.
    std::vector<const Rhs*> slots;
    const Rhs* element_fallback = nullptr;  // default rule
    const Rhs* text_fallback = nullptr;     // text rule, else default rule
    const Rhs* epsilon = nullptr;
    std::vector<TextCase> text_cases;  // Symbol(kText, ...) rules
  };

  SymbolId width_ = 0;
  bool captures_text_ = false;
  std::vector<Row> rows_;
};

}  // namespace xqmft

#endif  // XQMFT_MFT_DISPATCH_H_
