#include "burstab/tables.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <mutex>

#include "treeparse/burs.h"

namespace record::burstab {

using grammar::NtId;
using grammar::PatNode;
using grammar::Rule;
using grammar::TermId;

namespace {

/// Saturating addition in the kInf domain.
int sat_add(int a, int b) {
  if (a >= kInf || b >= kInf) return kInf;
  return a + b;
}

std::int64_t const_pair_key(int fit_index, int const_class) {
  return (static_cast<std::int64_t>(fit_index + 1) << 32) |
         static_cast<std::int64_t>(const_class + 1);
}

}  // namespace

std::size_t TargetTables::RowHash::operator()(const RowKey& k) const {
  std::size_t h = 1469598103934665603ull;
  const int n = t->stride_;
  for (int i = 0; i < n; ++i)
    h = (h ^ static_cast<std::size_t>(static_cast<std::uint32_t>(k.row[i]))) *
        1099511628211ull;
  return h;
}

bool TargetTables::RowEq::operator()(const RowKey& a, const RowKey& b) const {
  return std::memcmp(a.row, b.row,
                     static_cast<std::size_t>(t->stride_) *
                         sizeof(std::int32_t)) == 0;
}

// --- construction -----------------------------------------------------------

bool TargetTables::pattern_is_constrained(const PatNode& pat) {
  // A rule is side-constrained iff its pattern contains two NonTerm leaves
  // of one non-terminal (structural-equality binding) or two Imm leaves
  // drawing from the same instruction field.
  std::vector<NtId> nts;
  std::vector<const std::vector<int>*> imms;
  bool constrained = false;
  auto walk = [&](auto&& self, const PatNode& p) -> void {
    if (constrained) return;
    switch (p.kind) {
      case PatNode::Kind::NonTerm:
        if (std::find(nts.begin(), nts.end(), p.nt) != nts.end())
          constrained = true;
        nts.push_back(p.nt);
        return;
      case PatNode::Kind::Imm:
        for (const std::vector<int>* prev : imms)
          if (*prev == p.imm_bits) constrained = true;
        imms.push_back(&p.imm_bits);
        return;
      case PatNode::Kind::Const:
        return;
      case PatNode::Kind::Term:
        for (const grammar::PatNodePtr& c : p.children) self(self, *c);
        return;
    }
  };
  walk(walk, pat);
  return constrained;
}

void TargetTables::prepare(const grammar::TreeGrammar& g) {
  nt_count_ = g.nonterminal_count();
  const_term_ = g.const_terminal();
  const int terms = g.terminal_count();

  rules_by_terminal_.assign(static_cast<std::size_t>(terms), {});
  const_root_rules_.assign(1, {});
  chains_from_.assign(static_cast<std::size_t>(nt_count_), {});
  rule_count_ = g.rules().size();
  terminal_constrained_.assign(static_cast<std::size_t>(terms), false);
  subs_by_terminal_.assign(static_cast<std::size_t>(terms), {});
  constrained_precheck_.assign(static_cast<std::size_t>(terms), {});

  // Subpattern dedup by structure, interned bottom-up: a Term node's shape
  // is its terminal plus, per child, the child's shape (Term) or its leaf
  // identity (NonTerm: the non-terminal; Imm: only the width, since two Imm
  // leaves of equal width match identically and bindings come from the
  // subject at reduce time; Const: the value). Subpattern indices are then
  // handed out in preorder, the first position of each shape winning.
  struct ShapeHash {
    std::size_t operator()(const std::vector<std::int64_t>& k) const {
      std::size_t h = 1469598103934665603ull;
      for (std::int64_t v : k)
        h = (h ^ static_cast<std::size_t>(v)) * 1099511628211ull;
      return h;
    }
  };
  std::unordered_map<std::vector<std::int64_t>, int, ShapeHash> shape_ids;
  std::vector<int> sub_of_shape;  // shape -> subpattern index, -1 = none yet
  // Term-kind positions of one rule child in preorder, with their shapes.
  std::vector<std::pair<const PatNode*, int>> positions;
  auto intern_shape = [&](auto&& self, const PatNode& p) -> int {
    const std::size_t at = positions.size();
    positions.emplace_back(&p, -1);
    std::vector<std::int64_t> k;
    k.reserve(1 + 2 * p.children.size());
    k.push_back(p.term);
    for (const grammar::PatNodePtr& c : p.children) {
      k.push_back(static_cast<std::int64_t>(c->kind));
      switch (c->kind) {
        case PatNode::Kind::Term:
          k.push_back(self(self, *c));
          break;
        case PatNode::Kind::NonTerm:
          k.push_back(c->nt);
          break;
        case PatNode::Kind::Imm:
          k.push_back(c->width);
          break;
        case PatNode::Kind::Const:
          k.push_back(c->value);
          break;
      }
    }
    auto [it, inserted] =
        shape_ids.emplace(std::move(k), static_cast<int>(shape_ids.size()));
    if (inserted) sub_of_shape.push_back(-1);
    positions[at].second = it->second;
    return it->second;
  };
  // Registers `p` (a Term-kind pattern position) and its Term-kind
  // descendants.
  auto register_sub = [&](const PatNode& p) {
    positions.clear();
    (void)intern_shape(intern_shape, p);
    for (const auto& [pos, shape] : positions) {
      int& sub = sub_of_shape[static_cast<std::size_t>(shape)];
      if (sub < 0) {
        sub = static_cast<int>(subpatterns_.size());
        subpatterns_.push_back(pos);
        subs_by_terminal_[static_cast<std::size_t>(pos->term)].push_back(sub);
      }
      sub_index_.emplace(pos, sub);
    }
  };

  // Collects Imm widths / Const values.
  auto scan_leaves = [&](auto&& self, const PatNode& p) -> void {
    switch (p.kind) {
      case PatNode::Kind::Imm:
        fit_widths_.push_back(p.width);
        return;
      case PatNode::Kind::Const:
        const_values_.push_back(p.value);
        return;
      case PatNode::Kind::NonTerm:
        return;
      case PatNode::Kind::Term:
        for (const grammar::PatNodePtr& c : p.children) self(self, *c);
        return;
    }
  };

  for (const Rule& r : g.rules()) {
    if (r.is_chain()) {
      chains_from_[static_cast<std::size_t>(r.pattern->nt)].push_back(
          ChainPlan{r.id, r.lhs, r.cost});
      continue;
    }
    scan_leaves(scan_leaves, *r.pattern);
    if (pattern_is_constrained(*r.pattern)) {
      ++constrained_count_;
      // Nodes of this operator run the hybrid path: table transition plus
      // a matcher sweep over exactly these rules.
      TermId root_term = r.pattern->kind == PatNode::Kind::Term
                             ? r.pattern->term
                             : const_term_;
      terminal_constrained_[static_cast<std::size_t>(root_term)] = true;
      if (r.pattern->kind == PatNode::Kind::Term) {
        ConstrainedPrecheck pc;
        pc.rule = r.id;
        pc.arity = static_cast<std::uint32_t>(r.pattern->children.size());
        for (std::size_t i = 0; i < r.pattern->children.size(); ++i) {
          const PatNode& c = *r.pattern->children[i];
          ConstrainedPrecheck::Req req;
          req.pos = static_cast<std::uint32_t>(i);
          switch (c.kind) {
            case PatNode::Kind::NonTerm:
              continue;  // matches anything derivable; matcher decides
            case PatNode::Kind::Imm:
            case PatNode::Kind::Const:
              req.want_const = true;
              break;
            case PatNode::Kind::Term:
              req.term = c.term;
              req.term_arity =
                  static_cast<std::uint32_t>(c.children.size());
              break;
          }
          pc.reqs.push_back(req);
        }
        constrained_precheck_[static_cast<std::size_t>(root_term)].push_back(
            std::move(pc));
      }
      continue;
    }
    RulePlan plan{r.id, r.lhs, r.cost, r.pattern.get()};
    if (r.pattern->kind == PatNode::Kind::Term) {
      rules_by_terminal_[static_cast<std::size_t>(r.pattern->term)].push_back(
          plan);
      if (r.pattern->term == const_term_) const_root_rules_[0].push_back(plan);
      for (const grammar::PatNodePtr& c : r.pattern->children)
        if (c->kind == PatNode::Kind::Term) register_sub(*c);
    } else {
      // Imm/Const-rooted rules attach to the constant terminal.
      const_root_rules_[0].push_back(plan);
    }
  }

  std::sort(fit_widths_.begin(), fit_widths_.end());
  fit_widths_.erase(std::unique(fit_widths_.begin(), fit_widths_.end()),
                    fit_widths_.end());
  std::sort(const_values_.begin(), const_values_.end());
  const_values_.erase(
      std::unique(const_values_.begin(), const_values_.end()),
      const_values_.end());
  for (std::size_t i = 0; i < const_values_.size(); ++i)
    const_class_of_.emplace(const_values_[i], static_cast<int>(i));

  stride_ = 2 * nt_count_ + static_cast<int>(subpatterns_.size()) + 3;
  scratch_row_.resize(static_cast<std::size_t>(stride_));
}

TargetTables::TargetTables(const grammar::TreeGrammar& g,
                           const TableBuildOptions&)
    : state_index_(16, RowHash{this}, RowEq{this}) {
  static std::atomic<std::uint64_t> next_instance{1};
  instance_ = next_instance.fetch_add(1, std::memory_order_relaxed);
  prepare(g);
}

// --- flat state rows --------------------------------------------------------

StateView TargetTables::view_of_row(const std::int32_t* row) const {
  StateView v;
  v.cost = row;
  v.rule = row + nt_count_;
  v.sub = row + 2 * nt_count_;
  const std::int32_t* meta = row + stride_ - 3;
  v.is_const_leaf = meta[0] != 0;
  v.fit_width_index = meta[1];
  v.const_class = meta[2];
  return v;
}

const std::int32_t* TargetTables::state_row_locked(int id) const {
  return state_blocks_[static_cast<std::size_t>(id / kStatesPerBlock)].get() +
         static_cast<std::size_t>(id % kStatesPerBlock) *
             static_cast<std::size_t>(stride_);
}

void TargetTables::fill_row_from_state(const StateData& s,
                                       std::int32_t* row) const {
  const std::size_t nts = static_cast<std::size_t>(nt_count_);
  const std::size_t subs = subpatterns_.size();
  assert(s.cost.size() == nts && s.rule.size() == nts && s.sub.size() == subs);
  for (std::size_t i = 0; i < nts; ++i) row[i] = s.cost[i];
  for (std::size_t i = 0; i < nts; ++i) row[nts + i] = s.rule[i];
  for (std::size_t i = 0; i < subs; ++i) row[2 * nts + i] = s.sub[i];
  std::int32_t* meta = row + stride_ - 3;
  meta[0] = s.is_const_leaf ? 1 : 0;
  meta[1] = s.fit_width_index;
  meta[2] = s.const_class;
}

int TargetTables::intern_row_locked(const std::int32_t* row) const {
  auto it = state_index_.find(RowKey{row});
  if (it != state_index_.end()) return it->second;
  if (state_count_ % kStatesPerBlock == 0)
    state_blocks_.push_back(std::make_unique<std::int32_t[]>(
        static_cast<std::size_t>(kStatesPerBlock) *
        static_cast<std::size_t>(stride_)));
  int id = state_count_++;
  std::int32_t* dst =
      const_cast<std::int32_t*>(state_row_locked(id));
  std::memcpy(dst, row,
              static_cast<std::size_t>(stride_) * sizeof(std::int32_t));
  state_index_.emplace(RowKey{dst}, id);
  return id;
}

// --- state computation ------------------------------------------------------

int TargetTables::rel_match_locked(const PatNode& p,
                                   const std::int32_t* s) const {
  const std::int32_t* meta = s + stride_ - 3;
  switch (p.kind) {
    case PatNode::Kind::NonTerm:
      return s[static_cast<std::size_t>(p.nt)];
    case PatNode::Kind::Imm: {
      if (meta[0] == 0 || meta[1] < 0) return kInf;
      // Fit is monotone in width: the value fits every registered width >=
      // its minimal fitting one.
      return fit_widths_[static_cast<std::size_t>(meta[1])] <= p.width
                 ? 0
                 : kInf;
    }
    case PatNode::Kind::Const:
      return meta[0] != 0 && meta[2] >= 0 &&
                     const_values_[static_cast<std::size_t>(meta[2])] ==
                         p.value
                 ? 0
                 : kInf;
    case PatNode::Kind::Term: {
      auto it = sub_index_.find(&p);
      assert(it != sub_index_.end() && "unregistered subpattern position");
      return s[static_cast<std::size_t>(2 * nt_count_ + it->second)];
    }
  }
  return kInf;
}

TargetTables::Transition TargetTables::compute_transition_locked(
    TermId term, const std::vector<int>& children) const {
  const std::size_t k = children.size();
  const std::size_t nts = static_cast<std::size_t>(nt_count_);
  const std::size_t subs = subpatterns_.size();
  const std::int32_t* kids[16];
  std::vector<const std::int32_t*> kids_overflow;
  const std::int32_t** kid_rows = kids;
  if (k > 16) {
    kids_overflow.resize(k);
    kid_rows = kids_overflow.data();
  }
  for (std::size_t i = 0; i < k; ++i)
    kid_rows[i] = state_row_locked(children[i]);

  // Mirrors TreeParser::label exactly: rules in registration order with
  // strict-improvement updates, then chain closure to fixpoint in the same
  // sweep order — identical costs AND identical tie-breaking. The signature
  // is staged directly into the scratch row, then interned (one copy).
  std::int32_t* row = scratch_row_.data();
  std::int32_t* cost = row;
  std::int32_t* rule = row + nts;
  std::int32_t* sub = row + 2 * nts;
  for (std::size_t i = 0; i < nts; ++i) cost[i] = kInf;
  for (std::size_t i = 0; i < nts; ++i) rule[i] = -1;
  for (const RulePlan& plan : rules_by_terminal_[static_cast<std::size_t>(
           term)]) {
    if (plan.pattern->children.size() != k) continue;
    int sum = 0;
    for (std::size_t i = 0; i < k && sum < kInf; ++i)
      sum = sat_add(sum, rel_match_locked(*plan.pattern->children[i],
                                          kid_rows[i]));
    if (sum >= kInf) continue;
    int total = sat_add(sum, plan.cost);
    std::size_t lhs = static_cast<std::size_t>(plan.lhs);
    if (total < cost[lhs]) {
      cost[lhs] = total;
      rule[lhs] = plan.id;
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (int y = 0; y < nt_count_; ++y) {
      int base = cost[static_cast<std::size_t>(y)];
      if (base >= kInf) continue;
      for (const ChainPlan& c : chains_from_[static_cast<std::size_t>(y)]) {
        int total = sat_add(base, c.cost);
        std::size_t lhs = static_cast<std::size_t>(c.lhs);
        if (total < cost[lhs]) {
          cost[lhs] = total;
          rule[lhs] = c.id;
          changed = true;
        }
      }
    }
  }

  int delta = kInf;
  for (std::size_t i = 0; i < nts; ++i) delta = std::min(delta, cost[i]);
  if (delta >= kInf) delta = 0;
  for (std::size_t i = 0; i < nts; ++i)
    if (cost[i] < kInf) cost[i] -= delta;

  for (std::size_t i = 0; i < subs; ++i) sub[i] = kInf;
  for (int qi : subs_by_terminal_[static_cast<std::size_t>(term)]) {
    const PatNode* q = subpatterns_[static_cast<std::size_t>(qi)];
    if (q->children.size() != k) continue;
    int sum = 0;
    for (std::size_t i = 0; i < k && sum < kInf; ++i)
      sum = sat_add(sum, rel_match_locked(*q->children[i], kid_rows[i]));
    if (sum < kInf) sub[static_cast<std::size_t>(qi)] = sum - delta;
  }
  std::int32_t* meta = row + stride_ - 3;
  meta[0] = 0;
  meta[1] = -1;
  meta[2] = -1;
  return Transition{intern_row_locked(row), delta};
}

int TargetTables::compute_const_state_locked(int fit_index,
                                             int const_class) const {
  // #const leaves keep absolute costs (base 0) so that rules consuming the
  // leaf through an Imm/Const pattern (operand cost 0) and through a
  // NonTerm (operand cost = the leaf's absolute cost) agree on one base.
  const std::size_t nts = static_cast<std::size_t>(nt_count_);
  const std::size_t subs = subpatterns_.size();
  std::int32_t* row = scratch_row_.data();
  std::int32_t* cost = row;
  std::int32_t* rule = row + nts;
  std::int32_t* sub = row + 2 * nts;
  for (std::size_t i = 0; i < nts; ++i) cost[i] = kInf;
  for (std::size_t i = 0; i < nts; ++i) rule[i] = -1;
  for (const RulePlan& plan : const_root_rules_[0]) {
    bool matches = false;
    switch (plan.pattern->kind) {
      case PatNode::Kind::Imm:
        matches = fit_index >= 0 &&
                  fit_widths_[static_cast<std::size_t>(fit_index)] <=
                      plan.pattern->width;
        break;
      case PatNode::Kind::Const:
        matches = const_class >= 0 &&
                  const_values_[static_cast<std::size_t>(const_class)] ==
                      plan.pattern->value;
        break;
      case PatNode::Kind::Term:
        matches = plan.pattern->children.empty();
        break;
      case PatNode::Kind::NonTerm:
        break;
    }
    if (!matches) continue;
    std::size_t lhs = static_cast<std::size_t>(plan.lhs);
    if (plan.cost < cost[lhs]) {
      cost[lhs] = plan.cost;
      rule[lhs] = plan.id;
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (int y = 0; y < nt_count_; ++y) {
      int base = cost[static_cast<std::size_t>(y)];
      if (base >= kInf) continue;
      for (const ChainPlan& c : chains_from_[static_cast<std::size_t>(y)]) {
        int total = sat_add(base, c.cost);
        std::size_t lhs = static_cast<std::size_t>(c.lhs);
        if (total < cost[lhs]) {
          cost[lhs] = total;
          rule[lhs] = c.id;
          changed = true;
        }
      }
    }
  }

  for (std::size_t i = 0; i < subs; ++i) sub[i] = kInf;
  for (int qi : subs_by_terminal_[static_cast<std::size_t>(const_term_)]) {
    const PatNode* q = subpatterns_[static_cast<std::size_t>(qi)];
    if (q->children.empty()) sub[static_cast<std::size_t>(qi)] = 0;
  }
  std::int32_t* meta = row + stride_ - 3;
  meta[0] = 1;
  meta[1] = fit_index;
  meta[2] = const_class;
  return intern_row_locked(row);
}

// --- parser-facing lookups --------------------------------------------------

int TargetTables::fit_index_of(std::int64_t value) const {
  for (std::size_t i = 0; i < fit_widths_.size(); ++i)
    if (treeparse::TreeParser::immediate_fits(value, fit_widths_[i]))
      return static_cast<int>(i);
  return -1;
}

int TargetTables::const_class_index(std::int64_t value) const {
  auto it = const_class_of_.find(value);
  return it == const_class_of_.end() ? -1 : it->second;
}

int TargetTables::const_leaf_state(std::int64_t value) const {
  const int fit_index = fit_index_of(value);
  const int const_class = const_class_index(value);
  const std::int64_t key = const_pair_key(fit_index, const_class);
  {
    std::shared_lock lock(mu_);
    auto it = const_state_by_pair_.find(key);
    if (it != const_state_by_pair_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  auto it = const_state_by_pair_.find(key);
  if (it != const_state_by_pair_.end()) return it->second;
  const int id = compute_const_state_locked(fit_index, const_class);
  const_state_by_pair_.emplace(key, id);
  return id;
}

TargetTables::Transition TargetTables::transition(
    TermId term, const std::vector<int>& children) const {
  TransKeyView view{term, &children};
  {
    std::shared_lock lock(mu_);
    auto it = trans_.find(view);
    if (it != trans_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  auto it = trans_.find(view);
  if (it != trans_.end()) return it->second;
  Transition t = compute_transition_locked(term, children);
  t.id = static_cast<int>(trans_.size());
  return trans_.emplace(TransKey{term, children}, t).first->second;
}

bool TargetTables::ConstrainedPrecheck::check(
    const treeparse::SubjectNode& node) const {
  if (node.children.size() != arity) return false;
  for (const Req& r : reqs) {
    const treeparse::SubjectNode& c = *node.children[r.pos];
    if (r.want_const) {
      if (!c.is_const) return false;
    } else if (c.is_const || c.term != r.term ||
               c.children.size() != r.term_arity) {
      return false;
    }
  }
  return true;
}

const std::vector<TargetTables::ConstrainedPrecheck>&
TargetTables::constrained_prechecks_of(TermId t) const {
  static const std::vector<ConstrainedPrecheck> kEmpty;
  if (t < 0 || static_cast<std::size_t>(t) >= constrained_precheck_.size())
    return kEmpty;
  return constrained_precheck_[static_cast<std::size_t>(t)];
}

void TargetTables::raw_candidates(TermId term,
                                  const std::vector<int>& children,
                                  std::vector<int>& cost,
                                  std::vector<int>& rule) const {
  std::shared_lock lock(mu_);
  const std::size_t k = children.size();
  cost.assign(static_cast<std::size_t>(nt_count_), kInf);
  rule.assign(static_cast<std::size_t>(nt_count_), -1);
  for (const RulePlan& plan :
       rules_by_terminal_[static_cast<std::size_t>(term)]) {
    if (plan.pattern->children.size() != k) continue;
    int sum = 0;
    for (std::size_t i = 0; i < k && sum < kInf; ++i)
      sum = sat_add(sum, rel_match_locked(*plan.pattern->children[i],
                                          state_row_locked(children[i])));
    if (sum >= kInf) continue;
    int total = sat_add(sum, plan.cost);
    std::size_t lhs = static_cast<std::size_t>(plan.lhs);
    if (total < cost[lhs]) {
      cost[lhs] = total;
      rule[lhs] = plan.id;
    }
  }
}

int TargetTables::intern_state(const StateData& s) const {
  // The fallback path re-interns the states of side-constrained nodes on
  // every parse; under concurrent readers the state almost always exists
  // already, so probe under the shared lock before escalating.
  thread_local std::vector<std::int32_t> row;
  row.resize(static_cast<std::size_t>(stride_));
  fill_row_from_state(s, row.data());
  {
    std::shared_lock lock(mu_);
    auto it = state_index_.find(RowKey{row.data()});
    if (it != state_index_.end()) return it->second;
  }
  std::unique_lock lock(mu_);
  return intern_row_locked(row.data());
}

StateView TargetTables::state_view(int id) const {
  std::shared_lock lock(mu_);
  return view_of_row(state_row_locked(id));
}

bool TargetTables::terminal_has_constrained(TermId t) const {
  return t >= 0 &&
         static_cast<std::size_t>(t) < terminal_constrained_.size() &&
         terminal_constrained_[static_cast<std::size_t>(t)];
}

const std::vector<int>& TargetTables::subpatterns_of_terminal(
    TermId t) const {
  static const std::vector<int> kEmpty;
  if (t < 0 || static_cast<std::size_t>(t) >= subs_by_terminal_.size())
    return kEmpty;
  return subs_by_terminal_[static_cast<std::size_t>(t)];
}

const PatNode* TargetTables::subpattern(int index) const {
  return subpatterns_[static_cast<std::size_t>(index)];
}

TableStats TargetTables::stats() const {
  std::shared_lock lock(mu_);
  TableStats s;
  s.states = static_cast<std::size_t>(state_count_);
  s.transitions = trans_.size();
  s.subpatterns = subpatterns_.size();
  s.constrained_rules = constrained_count_;
  s.table_rules = rule_count_ - constrained_count_;
  s.const_classes = const_state_by_pair_.size();
  return s;
}

}  // namespace record::burstab
