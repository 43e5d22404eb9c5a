// Table-driven subject labelling: the burstab counterpart of
// treeparse::TreeParser.
//
// label() walks the subject bottom-up assigning each node an interned state
// via table lookups — O(1) per node with a grammar-independent constant —
// and materialises the same LabelResult the interpreter produces, so
// TreeParser::reduce extracts an identical derivation (same optimal costs,
// same winning rules, same RT sequence).
//
// The per-node lookup is one probe of the tables' memoised transition map
// under a shared lock; a combination met for the first time is computed and
// memoised. Each lookup reports the transition's id (dense, per tables
// instance), which is what an attached coverage map records.
//
// Nodes whose operator owns a side-constrained rule (shared immediate
// fields, structural-equality non-terminal bindings) are labelled through
// the shared treeparse::match_pattern_cost fallback in exact TreeParser rule
// order, then re-interned so their parents continue on the fast path.
#pragma once

#include <memory>

#include "burstab/tables.h"
#include "obs/coverage.h"
#include "treeparse/burs.h"

namespace record::burstab {

class TableParser {
 public:
  /// `g` must be the grammar the tables were compiled from (not checked);
  /// both must outlive the parser.
  TableParser(const grammar::TreeGrammar& g, const TargetTables& tables)
      : g_(g), tables_(tables), reducer_(g) {}

  /// Table-driven labelling into a caller-owned (reusable) result;
  /// LabelResult-identical to TreeParser::label on the same tree.
  void label_into(const treeparse::SubjectTree& tree,
                  treeparse::LabelResult& out) const;

  [[nodiscard]] treeparse::LabelResult label(
      const treeparse::SubjectTree& tree) const {
    treeparse::LabelResult r;
    label_into(tree, r);
    return r;
  }

  [[nodiscard]] treeparse::Derivation* reduce(
      const treeparse::SubjectTree& tree,
      const treeparse::LabelResult& result,
      treeparse::DerivationArena& arena) const {
    return reducer_.reduce(tree, result, arena);
  }

  [[nodiscard]] treeparse::Derivation* parse(
      const treeparse::SubjectTree& tree,
      treeparse::DerivationArena& arena) const;

  [[nodiscard]] const TargetTables& tables() const { return tables_; }

  /// Attach a coverage map (null detaches). The disabled cost in
  /// label_into is one pointer test per node; when attached, every state
  /// assignment, transition lookup (by id), cold merge and matched rule is
  /// recorded. State and transition ids count only if these tables own the
  /// map's ids (CoverageMap::claim_ids, decided here once); otherwise each
  /// goes to the map's foreign-id counter.
  void set_coverage(obs::CoverageMap* map) {
    coverage_ = map;
    owns_ids_ = map && map->claim_ids(tables_.instance());
  }

 private:
  const grammar::TreeGrammar& g_;
  const TargetTables& tables_;
  treeparse::TreeParser reducer_;  // shared reduce path
  obs::CoverageMap* coverage_ = nullptr;
  bool owns_ids_ = false;  // coverage_ counts this instance's ids
};

}  // namespace record::burstab
