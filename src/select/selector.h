// Code selection: optimal covering of IR statements by RT templates
// (paper section 3.2).
//
// Each Assign/Store statement's subject tree is parsed with the
// processor-specific BURS parser; the optimal derivation is flattened into a
// sequence of selected RT instances. Non-terminal choices in the derivation
// *are* the special-purpose-register allocation for intermediate results;
// chain rules materialise as data-transfer RTs whose cost was part of the
// optimum. Branch statements map to the target's program-control templates
// (destination "PC").
//
// Steady-state selection is allocation-light: label results and derivations
// live in a SelectScratch (flat label array + bump arena) that the selector
// reuses across statements and that callers — notably CompileService
// workers — can reuse across whole jobs. Per-rule read lists, template
// signatures and (template, immediate value) encoding conditions are
// memoised per CodeSelector, that is per compile, not per target.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.h"
#include "burstab/tableparse.h"
#include "grammar/grammar.h"
#include "ir/program.h"
#include "rtl/template.h"
#include "treeparse/arena.h"
#include "treeparse/burs.h"
#include "util/diagnostics.h"

namespace record::select {

/// Labelling engine: the dynamic-programming interpreter (TreeParser) or the
/// table-driven burstab engine. Both produce identical optimal derivations;
/// the table engine memoises per-target states and transitions on first use,
/// so a node whose combination was met before costs one lookup. kAuto
/// selects tables whenever the target carries them.
enum class Engine : std::uint8_t { kAuto, kInterpreter, kTables };

[[nodiscard]] std::string_view to_string(Engine e);

/// Reusable selection scratch: the derivation arena plus the flat labelling
/// buffers. A CodeSelector owns one internally unless the caller passes a
/// longer-lived instance (service workers keep one per thread and reuse it
/// across jobs, so a steady-state compile performs O(1) allocations).
struct SelectScratch {
  treeparse::DerivationArena arena;
  treeparse::LabelResult labels;
  treeparse::LabelResult promoted_labels;
};

/// One selected machine operation.
/// SelectedRT::reads_producer sentinels.
inline constexpr int kReadEntry = -1;    // statement-entry (live-in) value
inline constexpr int kReadCurrent = -2;  // positional: most recent write

struct SelectedRT {
  const rtl::RTTemplate* tmpl = nullptr;  // null only for pseudo operations
  int rule_id = -1;
  /// Execution condition: template condition AND immediate-field encodings.
  bdd::Ref cond = bdd::kTrue;
  std::string dest;                 // storage written
  std::vector<std::string> reads;   // storages read (registers and memories)
  /// Parallel to `reads`: which value each read consumes, known exactly
  /// from the derivation at selection time —
  ///   * kReadEntry (-1): the statement-ENTRY value (the pattern leaf
  ///     matched a program-variable subject leaf in place),
  ///   * kReadCurrent (-2): whatever the storage holds at execution time
  ///     (memory operands; spill code),
  ///   * >= 0: the statement-relative index of the RT that produces the
  ///     consumed intermediate (the last RT of the operand's subtree).
  /// Dataflow analysis (sched/order.h) uses this to spot operands destroyed
  /// by routing scratch before their consumer runs. Empty = all kReadCurrent.
  std::vector<int> reads_producer;
  std::vector<treeparse::ImmBinding> imms;
  std::string comment;              // human-readable rendering
  bool is_branch = false;
  std::string branch_target;        // label (branches only)

  [[nodiscard]] bool is_pseudo() const { return tmpl == nullptr; }
};

/// Code selected for one IR statement.
struct StmtCode {
  std::string source;            // rendered IR statement (owned copy)
  std::vector<SelectedRT> rts;   // bottom-up evaluation order
  bool is_label = false;
  std::string label;
  int parse_cost = 0;            // optimal derivation cost
};

struct SelectionResult {
  std::vector<StmtCode> stmts;
  std::size_t total_rts = 0;

  [[nodiscard]] std::string listing() const;
};

struct SelectorStats {
  std::size_t nodes_labelled = 0;
  std::size_t statements = 0;
};

/// A rule the optimal derivation did NOT use at some node: the winning rule
/// of a different non-terminal there, with its closed cost. These are the
/// choices the dynamic program weighed and rejected.
struct ExplainAlternative {
  int rule = -1;
  std::string rule_text;      // grammar::rule_to_string rendering
  std::string nonterminal;    // what it would have derived
  int cost = grammar::kInfCost;
};

/// One immediate-field binding decision of a chosen rule.
struct ExplainImm {
  int width = 0;              // instruction-word field width in bits
  std::int64_t value = 0;
  bool fits = false;          // TreeParser::immediate_fits(value, width)
};

/// One rule application of the chosen derivation, in preorder.
struct ExplainStep {
  int rule = -1;
  std::string rule_text;
  std::string nonterminal;    // derived non-terminal (the rule's LHS)
  std::string node;           // subject node ("+.16", "#5", "$reg:AX", ...)
  int cost = grammar::kInfCost;  // closed cost of LHS at the node
  bool is_chain = false;
  std::vector<ExplainImm> imms;
  std::vector<ExplainAlternative> alternatives;
};

/// Why selection chose what it chose for one IR statement.
struct StmtExplain {
  std::string source;         // rendered IR statement
  std::string subject;        // rendered subject tree (empty for branches)
  int cost = 0;               // optimal derivation cost
  bool promoted = false;      // labelled at promoted (accumulator) precision
  std::vector<ExplainStep> steps;
};

/// Collects per-statement explanations when attached to a CodeSelector (via
/// core::CompileOptions::explain). Plain value sink: selection appends, the
/// caller reads afterwards.
struct ExplainSink {
  std::vector<StmtExplain> stmts;
};

class CodeSelector {
 public:
  /// With `tables` non-null the selector labels subjects through the
  /// table-driven engine; the tables must have been compiled from `g` and
  /// must outlive the selector. With `scratch` non-null the caller's
  /// buffers are (re)used; they must outlive the selector.
  CodeSelector(const rtl::TemplateBase& base, const grammar::TreeGrammar& g,
               util::DiagnosticSink& diags,
               const burstab::TargetTables* tables = nullptr,
               SelectScratch* scratch = nullptr);

  [[nodiscard]] Engine engine() const {
    return table_parser_ ? Engine::kTables : Engine::kInterpreter;
  }

  /// Selects code for a whole program; nullopt if any statement cannot be
  /// covered (diagnostics explain which operation is missing).
  [[nodiscard]] std::optional<SelectionResult> select(
      const ir::Program& prog);

  [[nodiscard]] const SelectorStats& stats() const { return stats_; }

  /// Attach a coverage map (null detaches). Forwards to the labelling
  /// engines (matched rules, states, transition slots) and additionally
  /// records the rules CHOSEN by flatten() plus promoted-precision retries.
  void set_coverage(obs::CoverageMap* map);

  /// Attach an explain sink (null detaches): select() then appends one
  /// StmtExplain per statement describing the chosen derivation, the costs
  /// of rejected alternatives and every immediate-fit decision.
  void set_explain(ExplainSink* sink) { explain_ = sink; }

  /// Name of the storage acting as program counter for branch templates.
  static constexpr const char* kProgramCounter = "PC";

 private:
  void explain_derivation(const treeparse::Derivation& d,
                          const treeparse::LabelResult& labels,
                          StmtExplain& out) const;
  void flatten(const treeparse::Derivation& d, std::vector<SelectedRT>& out);
  [[nodiscard]] SelectedRT instantiate(const treeparse::Derivation& d);
  [[nodiscard]] std::optional<SelectedRT> make_branch(
      const ir::Stmt& stmt, const ir::Program& prog);
  [[nodiscard]] bdd::Ref imm_constraint(
      const std::vector<treeparse::ImmBinding>& imms, bdd::Ref cond);

  /// Labels through the configured engine, into `out`.
  void label_subject(const treeparse::SubjectTree& subject,
                     treeparse::LabelResult& out) const;

  /// Storage names read by the rule's pattern (memoised per rule id).
  [[nodiscard]] const std::vector<std::string>& reads_of_rule(int rule_id);
  /// Parallel to reads_of_rule: for each read, the pattern-preorder ordinal
  /// of the NonTerm leaf it came from (-1 = not NT-backed, -2 = a terminal
  /// register match, live-in by construction). Memoised per rule id.
  [[nodiscard]] const std::vector<int>& read_ordinals_of_rule(int rule_id);

  const rtl::TemplateBase& base_;
  const grammar::TreeGrammar& g_;
  util::DiagnosticSink& diags_;
  treeparse::TreeParser parser_;
  std::optional<burstab::TableParser> table_parser_;
  SelectorStats stats_;
  obs::CoverageMap* coverage_ = nullptr;
  ExplainSink* explain_ = nullptr;

  std::unique_ptr<SelectScratch> owned_scratch_;  // when none was passed
  SelectScratch* scratch_;

  // Per-selector memos (lazily filled; all keyed by stable ids).
  std::vector<std::unique_ptr<std::vector<std::string>>> reads_cache_;
  std::vector<std::unique_ptr<std::vector<int>>> read_ordinals_cache_;
  std::vector<std::string> signature_cache_;  // [template id]
  /// Memoised template-cond AND single-immediate encoding: the common
  /// one-field RT shape repeats the same few (template, value) pairs, and
  /// each BDD conjunction walks the manager under its lock.
  struct TmplValue {
    int tmpl;
    std::int64_t value;
    friend bool operator==(const TmplValue&, const TmplValue&) = default;
  };
  struct TmplValueHash {
    std::size_t operator()(const TmplValue& k) const {
      return (static_cast<std::size_t>(k.tmpl) * 1099511628211ull) ^
             std::hash<std::int64_t>{}(k.value);
    }
  };
  std::unordered_map<TmplValue, bdd::Ref, TmplValueHash> imm_cond_cache_;
};

}  // namespace record::select
