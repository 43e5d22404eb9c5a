#include "burstab/tableparse.h"

#include <algorithm>

namespace record::burstab {

using grammar::PatNode;
using grammar::Rule;
using treeparse::LabelEntry;
using treeparse::LabelResult;
using treeparse::SubjectNode;
using treeparse::SubjectTree;

namespace {

int sat_add(int a, int b) {
  if (a >= kInf || b >= kInf) return kInf;
  return a + b;
}

}  // namespace

void TableParser::label_into(const SubjectTree& tree,
                             LabelResult& result) const {
  const int nts = tables_.nonterminal_count();
  result.reset(tree.size(), nts);
  if (!tree.root()) return;

  std::vector<int> state_of(tree.size(), -1);
  std::vector<int> base_of(tree.size(), 0);

  // Closed absolute costs of already-labelled descendants, for the
  // side-constraint fallback matcher.
  const auto closed_cost = [&result](const SubjectNode& n,
                                     grammar::NtId nt) {
    return result.at(static_cast<std::size_t>(n.id),
                     static_cast<std::size_t>(nt))
        .cost;
  };
  const treeparse::CostLookup costs(closed_cost);

  struct Candidate {
    grammar::NtId lhs;
    int cost;  // absolute
    int rid;
  };
  std::vector<Candidate> cands;
  std::vector<int> raw_cost, raw_rule;
  std::vector<treeparse::ImmBinding> imm_fields;
  std::vector<std::pair<grammar::NtId, const SubjectNode*>> nt_binds;
  StateData scratch_state;

  std::vector<int> child_states;
  for (std::size_t id = 0; id < tree.size(); ++id) {
    const SubjectNode& node = tree.node(static_cast<int>(id));
    LabelEntry* mine = result.row(id);

    bool merged = false;
    if (tables_.terminal_has_constrained(node.term) && !node.is_const) {
      // Hybrid path: match only the side-constrained rules through the
      // shared matcher. When none bind (the common case — x+x patterns need
      // structurally equal operands) the node proceeds on the plain table
      // path below; otherwise the matches are interleaved with the table
      // rules' pre-closure candidates by (cost, rule id), reproducing the
      // interpreter's scan order, and the node is re-interned.
      cands.clear();
      for (const TargetTables::ConstrainedPrecheck& pc :
           tables_.constrained_prechecks_of(node.term)) {
        if (!pc.check(node)) continue;  // cheap structural reject
        const Rule& r = g_.rule(pc.rule);
        imm_fields.clear();
        nt_binds.clear();
        std::optional<int> c = treeparse::match_pattern_cost(
            *r.pattern, node, costs, imm_fields, nt_binds);
        if (c) cands.push_back(Candidate{r.lhs, *c + r.cost, pc.rule});
      }
      if (!cands.empty()) {
        child_states.clear();
        int base_sum = 0;
        for (const SubjectNode* c : node.children) {
          child_states.push_back(state_of[static_cast<std::size_t>(c->id)]);
          base_sum =
              sat_add(base_sum, base_of[static_cast<std::size_t>(c->id)]);
        }
        tables_.raw_candidates(node.term, child_states, raw_cost, raw_rule);
        for (int i = 0; i < nts; ++i) {
          const std::size_t idx = static_cast<std::size_t>(i);
          mine[idx].cost = sat_add(base_sum, raw_cost[idx]);
          mine[idx].rule = raw_rule[idx];
        }
        // Lexicographic (cost, rule id) argmin == the interpreter's strict-
        // improvement scan over all rules in id order.
        for (const Candidate& c : cands) {
          LabelEntry& e = mine[static_cast<std::size_t>(c.lhs)];
          if (c.cost < e.cost ||
              (c.cost == e.cost && (e.rule < 0 || c.rid < e.rule))) {
            e.cost = c.cost;
            e.rule = c.rid;
          }
        }
        bool changed = true;
        while (changed) {
          changed = false;
          for (int y = 0; y < nts; ++y) {
            int base = mine[static_cast<std::size_t>(y)].cost;
            if (base >= kInf) continue;
            for (int rid : g_.chain_rules_from(y)) {
              const Rule& r = g_.rule(rid);
              int total = base + r.cost;
              LabelEntry& e = mine[static_cast<std::size_t>(r.lhs)];
              if (total < e.cost) {
                e.cost = total;
                e.rule = rid;
                changed = true;
              }
            }
          }
        }

        int base = kInf;
        for (int i = 0; i < nts; ++i)
          base = std::min(base, mine[static_cast<std::size_t>(i)].cost);
        if (base >= kInf) base = 0;
        scratch_state.cost.resize(static_cast<std::size_t>(nts));
        scratch_state.rule.resize(static_cast<std::size_t>(nts));
        for (int i = 0; i < nts; ++i) {
          const LabelEntry& e = mine[static_cast<std::size_t>(i)];
          scratch_state.cost[static_cast<std::size_t>(i)] =
              e.cost >= kInf ? kInf : e.cost - base;
          scratch_state.rule[static_cast<std::size_t>(i)] = e.rule;
        }
        scratch_state.sub.assign(
            static_cast<std::size_t>(tables_.subpattern_count()), kInf);
        for (int qi : tables_.subpatterns_of_terminal(node.term)) {
          const PatNode* q = tables_.subpattern(qi);
          imm_fields.clear();
          nt_binds.clear();
          std::optional<int> c = treeparse::match_pattern_cost(
              *q, node, costs, imm_fields, nt_binds);
          if (c) scratch_state.sub[static_cast<std::size_t>(qi)] = *c - base;
        }
        scratch_state.is_const_leaf = false;
        scratch_state.fit_width_index = -1;
        scratch_state.const_class = -1;
        state_of[id] = tables_.intern_state(scratch_state);
        base_of[id] = base;
        merged = true;
      }
    } else if (tables_.terminal_has_constrained(node.term)) {
      // Constrained #const operators (possible only with exotic grammars):
      // full interpreter step plus re-intern.
      for (int rid : g_.rules_for_terminal(node.term)) {
        const Rule& r = g_.rule(rid);
        imm_fields.clear();
        nt_binds.clear();
        std::optional<int> c = treeparse::match_pattern_cost(
            *r.pattern, node, costs, imm_fields, nt_binds);
        if (!c) continue;
        int total = *c + r.cost;
        LabelEntry& e = mine[static_cast<std::size_t>(r.lhs)];
        if (total < e.cost) {
          e.cost = total;
          e.rule = rid;
        }
      }
      bool changed = true;
      while (changed) {
        changed = false;
        for (int y = 0; y < nts; ++y) {
          int base = mine[static_cast<std::size_t>(y)].cost;
          if (base >= kInf) continue;
          for (int rid : g_.chain_rules_from(y)) {
            const Rule& r = g_.rule(rid);
            int total = base + r.cost;
            LabelEntry& e = mine[static_cast<std::size_t>(r.lhs)];
            if (total < e.cost) {
              e.cost = total;
              e.rule = rid;
              changed = true;
            }
          }
        }
      }
      scratch_state.cost.resize(static_cast<std::size_t>(nts));
      scratch_state.rule.resize(static_cast<std::size_t>(nts));
      for (int i = 0; i < nts; ++i) {
        const LabelEntry& e = mine[static_cast<std::size_t>(i)];
        scratch_state.cost[static_cast<std::size_t>(i)] =
            e.cost;  // const leaves: base 0
        scratch_state.rule[static_cast<std::size_t>(i)] = e.rule;
      }
      scratch_state.sub.assign(
          static_cast<std::size_t>(tables_.subpattern_count()), kInf);
      for (int qi : tables_.subpatterns_of_terminal(node.term)) {
        const PatNode* q = tables_.subpattern(qi);
        imm_fields.clear();
        nt_binds.clear();
        std::optional<int> c = treeparse::match_pattern_cost(
            *q, node, costs, imm_fields, nt_binds);
        if (c) scratch_state.sub[static_cast<std::size_t>(qi)] = *c;
      }
      scratch_state.is_const_leaf = true;
      scratch_state.fit_width_index = tables_.fit_index_of(node.value);
      scratch_state.const_class = tables_.const_class_index(node.value);
      state_of[id] = tables_.intern_state(scratch_state);
      base_of[id] = 0;
      merged = true;
    }
    if (merged) {
      // Constrained merges re-intern instead of looking up a transition;
      // they count as cold so transition coverage denominators stay honest.
      if (coverage_) coverage_->record_cold_transition();
      continue;
    }

    int state;
    int base;
    if (node.is_const) {
      state = tables_.const_leaf_state(node.value);
      base = 0;  // #const states are kept absolute
      if (coverage_) coverage_->record_cold_transition();
    } else {
      child_states.clear();
      base = 0;
      // Children precede parents in id order by SubjectTree construction.
      for (const SubjectNode* c : node.children) {
        child_states.push_back(state_of[static_cast<std::size_t>(c->id)]);
        base = sat_add(base, base_of[static_cast<std::size_t>(c->id)]);
      }
      const TargetTables::Transition t =
          tables_.transition(node.term, child_states);
      if (coverage_) {
        if (owns_ids_)
          coverage_->record_transition(t.id);
        else
          coverage_->record_foreign_id();
      }
      state = t.state;
      base = sat_add(base, t.delta);
    }
    state_of[id] = state;
    base_of[id] = base;

    const StateView s = tables_.state_view(state);
    for (int i = 0; i < nts; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i);
      mine[idx].cost = sat_add(base, s.cost[idx]);
      mine[idx].rule = s.rule[idx];
    }
  }

  if (coverage_) {
    for (std::size_t id = 0; id < tree.size(); ++id) {
      if (owns_ids_)
        coverage_->record_state(state_of[id]);
      else
        coverage_->record_foreign_id();
      const LabelEntry* row = result.row(id);
      for (int i = 0; i < nts; ++i) {
        const LabelEntry& e = row[static_cast<std::size_t>(i)];
        if (e.rule >= 0 && e.cost < kInf)
          coverage_->record_rule_matched(e.rule);
      }
    }
  }

  result.root_cost = result
                         .at(static_cast<std::size_t>(tree.root()->id),
                             static_cast<std::size_t>(grammar::kStart))
                         .cost;
  result.ok = result.root_cost < kInf;
}

treeparse::Derivation* TableParser::parse(
    const SubjectTree& tree, treeparse::DerivationArena& arena) const {
  LabelResult r = label(tree);
  if (!r.ok) return nullptr;
  return reduce(tree, r, arena);
}

}  // namespace record::burstab
