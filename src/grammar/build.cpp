#include "grammar/build.h"

#include <unordered_map>

#include "util/strings.h"

namespace record::grammar {

using util::fmt;

std::string dest_terminal_name(std::string_view storage) {
  return fmt("$dest:{}", storage);
}
std::string reg_terminal_name(std::string_view storage) {
  return fmt("$reg:{}", storage);
}
std::string port_terminal_name(std::string_view port) {
  return fmt("$port:{}", port);
}
std::string load_terminal_name(std::string_view mem, int width) {
  return fmt("load:{}.{}", mem, width);
}
std::string store_terminal_name(std::string_view mem) {
  return fmt("store:{}", mem);
}
std::string nonterminal_name_for(std::string_view storage) {
  return fmt("nt:{}", storage);
}

namespace {

class Builder {
 public:
  Builder(const rtl::TemplateBase& base, const BuildOptions& options,
          util::DiagnosticSink& diags)
      : base_(base), options_(options), diags_(diags) {}

  BuiltGrammar run() {
    BuiltGrammar out;
    TreeGrammar& g = out.grammar;

    // Non-terminals and the designated per-storage terminals.
    for (const rtl::StorageInfo& s : base_.storage) {
      NtId nt = g.intern_nonterminal(nonterminal_name_for(s.name));
      (void)g.intern_terminal(dest_terminal_name(s.name));
      // Start rule: START -> ASSIGN(Term(dest), NonTerm(dest)).
      std::vector<PatNodePtr> kids;
      kids.push_back(
          pat_term(g.find_terminal(dest_terminal_name(s.name)), {}));
      kids.push_back(pat_nonterm(nt));
      g.add_rule(kStart, pat_term(g.assign_terminal(), std::move(kids)),
                 /*cost=*/0, RuleKind::Start);
      ++out.stats.start_rules;
    }

    // Stop rules for readable non-memory storage:
    // NonTerm(REG) -> Term(REG).
    for (const rtl::StorageInfo& s : base_.storage) {
      if (!s.readable || s.kind == rtl::DestKind::Memory) continue;
      TermId t = g.intern_terminal(reg_terminal_name(s.name));
      g.add_rule(g.find_nonterminal(nonterminal_name_for(s.name)),
                 pat_term(t, {}), /*cost=*/0, RuleKind::Stop);
      ++out.stats.stop_rules;
    }

    // Primary input port terminals.
    for (const rtl::PortInInfo& p : base_.in_ports)
      (void)g.intern_terminal(port_terminal_name(p.name));

    // RT rules from templates.
    for (const rtl::RTTemplate& t : base_.templates) {
      NtId lhs = cached(dest_nts_, t.dest, [&] {
        return g.find_nonterminal(nonterminal_name_for(t.dest));
      });
      if (lhs < 0) {
        diags_.warning({}, fmt("template {} targets unknown storage '{}'",
                               t.id, t.dest));
        continue;
      }
      for (int variant = 0; variant < 2; ++variant) {
        bool elide_low = variant == 1;
        if (elide_low &&
            (!options_.elide_low_slices || !has_low_slice(t.value.get())))
          break;
        PatNodePtr rhs;
        if (t.dest_kind == rtl::DestKind::Memory) {
          std::vector<PatNodePtr> kids;
          kids.push_back(lower(*t.addr, g, /*elide_low=*/false));
          kids.push_back(lower(*t.value, g, elide_low));
          rhs = pat_term(cached(store_terms_, t.dest, [&] {
                           return g.intern_terminal(
                               store_terminal_name(t.dest));
                         }),
                         std::move(kids));
        } else {
          rhs = lower(*t.value, g, elide_low);
        }
        if (options_.skip_self_moves &&
            rhs->kind == PatNode::Kind::NonTerm && rhs->nt == lhs) {
          if (!elide_low) ++out.stats.self_moves_skipped;
          continue;
        }
        int id = g.add_rule(lhs, std::move(rhs), /*cost=*/1, RuleKind::RT,
                            t.id);
        ++out.stats.rt_rules;
        if (elide_low) ++out.stats.low_slice_variants;
        if (g.rule(id).is_chain()) ++out.stats.chain_rules;
      }
    }

    return out;
  }

  /// True for slice operators selecting the low half: custom "bitsK_0".
  static bool is_low_slice(const rtl::RTNode& n) {
    return n.kind == rtl::RTNode::Kind::Op &&
           n.op.kind == hdl::OpKind::Custom &&
           n.op.custom.rfind("bits", 0) == 0 &&
           n.op.custom.size() > 6 &&
           n.op.custom.compare(n.op.custom.size() - 2, 2, "_0") == 0 &&
           n.children.size() == 1;
  }

  static bool has_low_slice(const rtl::RTNode* n) {
    if (!n) return false;
    if (is_low_slice(*n)) return true;
    for (const rtl::RTNodePtr& c : n->children)
      if (has_low_slice(c.get())) return true;
    return false;
  }

 private:
  /// Table 2: the L() mapping from template expressions to rule RHS trees.
  PatNodePtr lower(const rtl::RTNode& n, TreeGrammar& g, bool elide_low) {
    if (elide_low && is_low_slice(n))
      return lower(*n.children[0], g, elide_low);
    switch (n.kind) {
      case rtl::RTNode::Kind::HardConst:
        return pat_const_leaf(n.value);
      case rtl::RTNode::Kind::Imm:
        return pat_imm(n.imm_bits);
      case rtl::RTNode::Kind::RegRead:
        // Reference to SEQ -> NonTerm (registers & mode registers).
        return pat_nonterm(cached(nts_, n.name, [&] {
          return g.intern_nonterminal(nonterminal_name_for(n.name));
        }));
      case rtl::RTNode::Kind::PortIn:
        // Reference to PORTS -> Term.
        return pat_term(cached(port_terms_, n.name, [&] {
                          return g.intern_terminal(port_terminal_name(n.name));
                        }),
                        {});
      case rtl::RTNode::Kind::MemLoad: {
        std::vector<PatNodePtr> kids;
        kids.push_back(lower(*n.children[0], g, elide_low));
        return pat_term(cached(op_terms_, OpKey{-1, n.width, n.name}, [&] {
                          return g.intern_terminal(
                              load_terminal_name(n.name, n.width));
                        }),
                        std::move(kids));
      }
      case rtl::RTNode::Kind::Op: {
        if (options_.elide_extension_ops &&
            (n.op.kind == hdl::OpKind::Sxt ||
             n.op.kind == hdl::OpKind::Zxt) &&
            n.children.size() == 1)
          return lower(*n.children[0], g, elide_low);
        std::vector<PatNodePtr> kids;
        kids.reserve(n.children.size());
        for (const rtl::RTNodePtr& c : n.children)
          kids.push_back(lower(*c, g, elide_low));
        const OpKey key{static_cast<int>(n.op.kind), n.op.width,
                        n.op.custom};
        return pat_term(
            cached(op_terms_, key, [&] { return g.intern_terminal(n.op.name()); }),
            std::move(kids));
      }
    }
    return pat_const_leaf(0);
  }

  /// Symbol ids by storage or port name, and by operator signature or
  /// (memory, width) for loads, filled on first use with exactly the
  /// intern call a lookup by rendered name would make, so symbols keep
  /// their first-use ids. Keys view names held by the base.
  template <typename Ids, typename Key, typename Intern>
  static int cached(Ids& ids, const Key& key, Intern intern) {
    auto [it, inserted] = ids.emplace(key, -1);
    if (inserted) it->second = intern();
    return it->second;
  }

  /// Operator terminal key: kind (-1 for a memory load), width and custom
  /// name (the memory's name for a load).
  struct OpKey {
    int kind;
    int width;
    std::string_view name;
    friend bool operator==(const OpKey&, const OpKey&) = default;
  };
  struct OpKeyHash {
    std::size_t operator()(const OpKey& k) const {
      return std::hash<std::string_view>()(k.name) ^
             (static_cast<std::size_t>(k.kind) << 32) ^
             static_cast<std::size_t>(k.width) * 0x9e3779b97f4a7c15ull;
    }
  };

  const rtl::TemplateBase& base_;
  BuildOptions options_;
  util::DiagnosticSink& diags_;
  using NameIds = std::unordered_map<std::string_view, int>;
  NameIds dest_nts_, nts_, port_terms_, store_terms_;
  std::unordered_map<OpKey, TermId, OpKeyHash> op_terms_;
};

}  // namespace

BuiltGrammar build_grammar(const rtl::TemplateBase& base,
                           const BuildOptions& options,
                           util::DiagnosticSink& diags) {
  return Builder(base, options, diags).run();
}

}  // namespace record::grammar
