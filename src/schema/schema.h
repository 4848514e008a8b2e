// Streaming schema validation (Section 1 of the paper: "Another convenient
// feature of MFTs is their ability to validate the input, during
// transformation. This allows to check a XML Schema or Relax NG in one pass
// during the streaming transformation.")
//
// The schema language is a DTD-like regular hedge grammar: one rule per
// element name constrains the sequence of its children by a regular
// expression over element names and `text`:
//
//   site   -> regions people open_auctions closed_auctions
//   people -> person*
//   person -> person_id name emailaddress homepage? creditcard?
//   name   -> text
//   any other element: unconstrained (or rejected in strict mode)
//
// Regex syntax: juxtaposition = concatenation, `|` alternation, `*` `+` `?`
// postfix, parentheses, `text` matches a text node, `any` matches any child.
// Content models compile to DFAs (Thompson construction + subset); the
// validator runs one DFA frame per open element, so validation is a
// constant-work-per-event pass. It composes with the streaming engine as
// one more event processor on the stream: ValidatingSource decorates the
// event source every run pulls from, so no engine core knows about it.
#ifndef XQMFT_SCHEMA_SCHEMA_H_
#define XQMFT_SCHEMA_SCHEMA_H_

#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "xml/event_source.h"
#include "xml/events.h"
#include "xml/forest.h"

namespace xqmft {

/// \brief A compiled regular hedge grammar.
class Schema {
 public:
  /// Parses the textual schema format (one `name -> regex` rule per line;
  /// `#` comments). `strict` rejects elements without a rule instead of
  /// leaving them unconstrained.
  static Result<std::shared_ptr<const Schema>> Parse(const std::string& text,
                                                     bool strict = false);
  ~Schema();

  bool strict() const;

  struct Impl;
  const Impl& impl() const { return *impl_; }

 private:
  Schema();
  std::unique_ptr<Impl> impl_;
};

/// \brief One-pass validator: feed the document's events in order.
class SchemaValidator {
 public:
  explicit SchemaValidator(std::shared_ptr<const Schema> schema);
  ~SchemaValidator();

  /// Feeds one event; returns InvalidArgument describing the first
  /// violation. After kEndOfDocument, validation is complete.
  Status Feed(const XmlEvent& event);

  /// True once kEndOfDocument was fed without violations.
  bool complete() const;

 private:
  struct State;
  std::shared_ptr<const Schema> schema_;
  std::unique_ptr<State> state_;
};

/// \brief EventSource decorator that feeds every event it returns to a
/// SchemaValidator. A violation is the source's error, returned in place of
/// the offending event: a run over it fails as on malformed input, and the
/// sink holds the output of the events before.
///
/// It deliberately keeps the base SkipSubtree, which pulls through Next:
/// a subtree the source projection skips is tokenized and validated event
/// by event, just not fed to any engine. A validated run therefore still
/// projects (the engines skip), while validation reads every event.
class ValidatingSource : public EventSource {
 public:
  /// `inner` and `validator` must outlive the source.
  ValidatingSource(EventSource* inner, SchemaValidator* validator)
      : inner_(inner), validator_(validator) {}

  Status Next(XmlEvent* event) override {
    XQMFT_RETURN_NOT_OK(inner_->Next(event));
    return validator_->Feed(*event);
  }
  std::size_t bytes_consumed() const override {
    return inner_->bytes_consumed();
  }
  void BindSymbols(SymbolTable* symbols) override {
    inner_->BindSymbols(symbols);
  }

 private:
  EventSource* inner_;
  SchemaValidator* validator_;
};

/// Validates a whole in-memory forest (testing convenience).
Status ValidateForest(const Schema& schema, const Forest& forest);

}  // namespace xqmft

#endif  // XQMFT_SCHEMA_SCHEMA_H_
