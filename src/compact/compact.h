// Code compaction: packing selected RTs into horizontal instruction words
// (paper section 3.2 / reference [17], "Time-constrained Code Compaction for
// DSPs").
//
// List scheduling over the dependence DAG; two RTs may share an instruction
// word iff their dependence distances allow it AND the conjunction of their
// BDD execution conditions is satisfiable (instruction-encoding
// compatibility, including immediate-field values) AND they do not write the
// same location.
//
// Per-target facts (rtl::WriteConditions, computed once per target) decide
// most of this without the BDD:
//   * cubes: a word keeps the instruction-bit literals its condition
//     implies (add_implied_literals). A candidate whose literals fix some
//     bit the other way is rejected without conjoining: the conjunction
//     would be FALSE, and computing it would create no node either.
//   * mode facts: a word none of whose templates reads a mode-register bit
//     needs no mode handling at all, and skips the BDD walk below.
//
// Mode-register state is a forward dataflow fact. It is unknown at program
// entry and at every labelled region (a branch may enter it); a mode set
// makes bits known, and the state flows through fall-through. A word whose
// condition needs a mode bit that is unknown, or known with the wrong
// value, gets a mode-set word before it (synthesized from the target's own
// mode-register templates). The set writes the whole register: bits the
// word does not need keep their known value, or 0 when unknown. The word's
// condition is then baked with the mode values the machine will hold. The
// compiler never assumes reset contents: when no template can set the
// register to the needed value, compaction reports an error.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bdd/bdd.h"
#include "compact/depdag.h"
#include "rtl/template.h"
#include "select/selector.h"
#include "util/diagnostics.h"

namespace record::compact {

struct CompactOptions {
  /// Disabled by the compaction-ablation benchmark: every RT becomes its own
  /// instruction word.
  bool enabled = true;
};

/// One horizontal instruction word. A word with no RTs is a NOP inserted to
/// pad an unfilled branch delay slot; the encoder suppresses every writer so
/// it executes as "do nothing visible".
struct Word {
  std::vector<const select::SelectedRT*> rts;
  bdd::Ref cond = bdd::kTrue;  // conjunction of all packed conditions
  bool has_branch = false;
  bool is_mode_set = false;  // synthesized mode-register set word
  std::string branch_target;
};

struct CompactedRegion {
  std::string label;
  std::vector<Word> words;
};

struct CompactedProgram {
  std::vector<CompactedRegion> regions;
  /// Mode-set RTs created during compaction (owned here; Words point into
  /// this pool as well as into the selection result).
  std::vector<std::unique_ptr<select::SelectedRT>> synthesized;

  [[nodiscard]] std::size_t word_count() const;
};

struct CompactStats {
  std::size_t input_rts = 0;
  std::size_t words = 0;
  std::size_t pairs_rejected_encoding = 0;  // condition conjunction UNSAT
  /// Of pairs_rejected_encoding: rejected by conflicting cubes alone.
  std::size_t pairs_cube_rejected = 0;
  /// Candidate pairs the cubes left open, checked by BDD conjunction.
  std::size_t pairs_conjoined = 0;
  /// Words no template of which reads a mode bit: no mode handling.
  std::size_t words_mode_free = 0;
  /// Words whose mode bits went through the BDD (support + baking).
  std::size_t words_mode_checked = 0;
  std::size_t mode_sets_inserted = 0;
  std::size_t multi_rt_words = 0;      // words packing >= 2 RTs
  std::size_t total_slot_rts = 0;      // sum of RTs over all words
  std::size_t delay_slots_filled = 0;  // words moved into branch delay slots
  std::size_t delay_nops_inserted = 0; // NOP words padding delay slots
};

struct CompactResult {
  CompactedProgram program;
  CompactStats stats;
};

/// ORs into `cube` the instruction-bit literals `rt`'s condition implies,
/// in the layout of rtl::WriteConditions::cubes (cube_words positive words,
/// then cube_words negative ones): its template's writer cube plus its
/// immediate-field literals. A pseudo RT adds nothing.
void add_implied_literals(const select::SelectedRT& rt,
                          const rtl::TemplateBase& base, std::uint64_t* cube);

[[nodiscard]] CompactResult compact(const select::SelectionResult& sel,
                                    const rtl::TemplateBase& base,
                                    const CompactOptions& options,
                                    util::DiagnosticSink& diags);

}  // namespace record::compact
