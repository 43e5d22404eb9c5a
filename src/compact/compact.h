// Code compaction: packing selected RTs into horizontal instruction words
// (paper section 3.2 / reference [17], "Time-constrained Code Compaction for
// DSPs").
//
// List scheduling over the dependence DAG; two RTs may share an instruction
// word iff their dependence distances allow it AND the conjunction of their
// BDD execution conditions is satisfiable (instruction-encoding
// compatibility, including immediate-field values) AND they do not write the
// same location. Mode-register requirements are tracked across the schedule:
// when an RT needs mode bits different from the current machine state, a
// mode-set instruction is inserted (selected from the target's own
// mode-register templates).
#pragma once

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

[[nodiscard]] CompactResult compact(const select::SelectionResult& sel,
                                    const rtl::TemplateBase& base,
                                    const CompactOptions& options,
                                    util::DiagnosticSink& diags);

}  // namespace record::compact
