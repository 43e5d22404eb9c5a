// Binary instruction-word composition.
//
// Every compacted word carries the BDD conjunction of its RTs' execution
// conditions (including immediate-field values). Encoding:
//   1. resolves branch targets (conjoining the target address into the
//      branch template's immediate field),
//   2. suppresses unintended side effects: for every storage the word does
//      not write, the instruction bits are chosen - when satisfiable - so
//      that no template writing that storage can fire ("don't-care
//      completion" of the partial instruction); the per-storage writer
//      conditions are computed once per target (rtl::write_conditions),
//      and so are the instruction-bit cubes that decide most of these
//      terms without the BDD (SuppressionTerms),
//   3. extracts one satisfying assignment of the instruction bits; unused
//      bits default to 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "compact/compact.h"
#include "rtl/template.h"
#include "util/diagnostics.h"

namespace record::emit {

struct EncodedWord {
  const compact::Word* word = nullptr;
  int address = 0;
  std::vector<bool> bits;  // bits[k] = instruction bit k
  std::string label;       // label defined at this address (if any)

  [[nodiscard]] std::string hex() const;
  [[nodiscard]] std::uint64_t to_u64() const;  // low 64 bits
};

struct Assembly {
  std::vector<EncodedWord> words;
  std::map<std::string, int> labels;

  /// Code size in instruction words — the Figure-2 metric.
  [[nodiscard]] std::size_t size() const { return words.size(); }
};

struct EncodeStats {
  /// Suppression terms conjoined into their word, proven no-ops included.
  std::size_t suppressed = 0;
  /// Suppression terms skipped because conjoining them would make the word
  /// unsatisfiable (a writer the word cannot rule out).
  std::size_t unsuppressible = 0;
  /// Of `suppressed`, the terms the per-target cubes proved to be no-ops;
  /// the rest were conjoined by BddManager::constrain.
  std::size_t proven_noop = 0;
  std::size_t unresolved_labels = 0;
};

struct EncodeResult {
  Assembly assembly;
  EncodeStats stats;
};

/// The side-effect suppression terms of one word, in the order encode
/// conjoins them: the negated `any` of every storage the word does not
/// write, and the negated condition of every other writer of a storage it
/// does write. The word's cube is the union of its own templates' writer
/// cubes (rtl::WriteConditions); the word condition implies it, since it
/// implies each own template's condition. A term whose writer cube
/// conflicts with the word's cube negates a condition disjoint from the
/// word: conjoining it returns the word condition unchanged, so it is a
/// proven no-op and goes to `proven_noop`. Only `undecided` terms need the
/// BDD.
class SuppressionTerms {
 public:
  std::vector<bdd::Ref> undecided;
  std::vector<bdd::Ref> proven_noop;

  /// Refills both lists for `w`, reusing their storage.
  void collect(const compact::Word& w, const rtl::TemplateBase& base);

 private:
  std::vector<std::string_view> written_;
  std::vector<std::size_t> own_;  // indices into base.templates
  std::vector<std::uint64_t> cube_;
};

/// Reads the suppression terms from `base.writers`, which must be filled
/// (rtl::write_conditions); every target from core::Record::retarget is.
[[nodiscard]] EncodeResult encode(const compact::CompactedProgram& prog,
                                  const rtl::TemplateBase& base,
                                  util::DiagnosticSink& diags);

}  // namespace record::emit
