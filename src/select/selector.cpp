#include "select/selector.h"

#include <algorithm>
#include <sstream>

#include "obs/trace.h"
#include "select/subject_map.h"
#include "util/strings.h"

namespace record::select {

using util::fmt;

std::string SelectionResult::listing() const {
  std::ostringstream os;
  for (const StmtCode& sc : stmts) {
    if (sc.is_label) {
      os << sc.label << ":\n";
      continue;
    }
    if (!sc.source.empty()) os << "; " << sc.source << '\n';
    for (const SelectedRT& rt : sc.rts) os << "    " << rt.comment << '\n';
  }
  return os.str();
}

std::string_view to_string(Engine e) {
  switch (e) {
    case Engine::kAuto:
      return "auto";
    case Engine::kTables:
      return "tables";
    case Engine::kInterpreter:
      break;
  }
  return "interpreter";
}

CodeSelector::CodeSelector(const rtl::TemplateBase& base,
                           const grammar::TreeGrammar& g,
                           util::DiagnosticSink& diags,
                           const burstab::TargetTables* tables,
                           SelectScratch* scratch)
    : base_(base), g_(g), diags_(diags), parser_(g), scratch_(scratch) {
  if (tables) table_parser_.emplace(g, *tables);
  if (!scratch_) {
    owned_scratch_ = std::make_unique<SelectScratch>();
    scratch_ = owned_scratch_.get();
  }
}

void CodeSelector::label_subject(const treeparse::SubjectTree& subject,
                                 treeparse::LabelResult& out) const {
  if (table_parser_)
    table_parser_->label_into(subject, out);
  else
    parser_.label_into(subject, out);
}

void CodeSelector::set_coverage(obs::CoverageMap* map) {
  coverage_ = map;
  parser_.set_coverage(map);
  if (table_parser_) table_parser_->set_coverage(map);
}

namespace {

/// "nt:<storage>" -> "<storage>"; empty if not a storage non-terminal.
std::string storage_of_nt(const std::string& nt_name) {
  if (nt_name.rfind("nt:", 0) == 0) return nt_name.substr(3);
  return {};
}

/// "load:<mem>.<w>" -> "<mem>"; empty otherwise.
std::string mem_of_load_terminal(const std::string& term_name) {
  if (term_name.rfind("load:", 0) != 0) return {};
  std::string rest = term_name.substr(5);
  std::size_t dot = rest.rfind('.');
  return dot == std::string::npos ? rest : rest.substr(0, dot);
}

/// Collects the pattern's storage reads alongside, for each read, the
/// pattern-preorder ordinal of the NonTerm leaf it came from — the index of
/// the matching child derivation. -1 marks reads that are not NT-backed
/// (memory loads), -2 terminal register matches (live-in by construction).
/// `nt_counter` numbers every NonTerm leaf, storage-backed or not, so the
/// ordinals line up with treeparse's derivation-children preorder.
void collect_reads(const grammar::TreeGrammar& g, const grammar::PatNode& p,
                   std::vector<std::string>& reads,
                   std::vector<int>& ordinals, int& nt_counter) {
  switch (p.kind) {
    case grammar::PatNode::Kind::NonTerm: {
      int ord = nt_counter++;
      std::string s = storage_of_nt(g.nonterminal_name(p.nt));
      if (!s.empty()) {
        reads.push_back(s);
        ordinals.push_back(ord);
      }
      return;
    }
    case grammar::PatNode::Kind::Term: {
      std::string mem = mem_of_load_terminal(g.terminal_name(p.term));
      if (!mem.empty()) {
        reads.push_back(mem);
        ordinals.push_back(-1);
      }
      std::string reg = g.terminal_name(p.term);
      if (reg.rfind("$reg:", 0) == 0) {
        reads.push_back(reg.substr(5));
        ordinals.push_back(-2);
      }
      for (const grammar::PatNodePtr& c : p.children)
        collect_reads(g, *c, reads, ordinals, nt_counter);
      return;
    }
    case grammar::PatNode::Kind::Imm:
    case grammar::PatNode::Kind::Const:
      return;
  }
}

}  // namespace

const std::vector<std::string>& CodeSelector::reads_of_rule(int rule_id) {
  if (reads_cache_.size() <= static_cast<std::size_t>(rule_id)) {
    reads_cache_.resize(g_.rules().size());
    read_ordinals_cache_.resize(g_.rules().size());
  }
  std::unique_ptr<std::vector<std::string>>& slot =
      reads_cache_[static_cast<std::size_t>(rule_id)];
  if (!slot) {
    slot = std::make_unique<std::vector<std::string>>();
    auto ords = std::make_unique<std::vector<int>>();
    int nt_counter = 0;
    collect_reads(g_, *g_.rule(rule_id).pattern, *slot, *ords, nt_counter);
    read_ordinals_cache_[static_cast<std::size_t>(rule_id)] = std::move(ords);
  }
  return *slot;
}

const std::vector<int>& CodeSelector::read_ordinals_of_rule(int rule_id) {
  (void)reads_of_rule(rule_id);  // fills both caches
  return *read_ordinals_cache_[static_cast<std::size_t>(rule_id)];
}

bdd::Ref CodeSelector::imm_constraint(
    const std::vector<treeparse::ImmBinding>& imms, bdd::Ref cond) {
  bdd::BddManager& mgr = *base_.mgr;
  for (const treeparse::ImmBinding& b : imms)
    b.for_each_literal(base_.instruction_width, [&](int var, bool bit) {
      cond = mgr.land(cond, mgr.literal(var, bit));
    });
  return cond;
}

SelectedRT CodeSelector::instantiate(const treeparse::Derivation& d) {
  const grammar::Rule& r = g_.rule(d.rule);
  SelectedRT out;
  out.rule_id = d.rule;
  out.tmpl = &base_.templates.at(static_cast<std::size_t>(r.template_id));
  out.dest = out.tmpl->dest;
  out.imms.assign(d.imms.begin(), d.imms.end());
  out.reads = reads_of_rule(d.rule);
  if (out.tmpl->addr) {
    // Memory-destination templates also read what their address tree reads.
    // (The address pattern is part of the rule's RHS store node, so
    // collect_reads above already visited it.)
  }
  if (out.imms.size() == 1) {
    auto [it, inserted] = imm_cond_cache_.try_emplace(
        TmplValue{out.tmpl->id, out.imms[0].value}, bdd::kFalse);
    if (inserted) it->second = imm_constraint(out.imms, out.tmpl->cond);
    out.cond = it->second;
  } else {
    out.cond = imm_constraint(out.imms, out.tmpl->cond);
  }
  // Renders exactly what the ostream formatting used to produce, without
  // the per-RT stringstream.
  if (signature_cache_.size() <= static_cast<std::size_t>(out.tmpl->id))
    signature_cache_.resize(base_.templates.size());
  std::string& sig = signature_cache_[static_cast<std::size_t>(out.tmpl->id)];
  if (sig.empty()) sig = out.tmpl->signature();
  std::string& cmt = out.comment;
  cmt = sig;
  if (!d.imms.empty()) {
    cmt += "  {";
    for (std::size_t i = 0; i < d.imms.size(); ++i) {
      if (i) cmt += ", ";
      cmt += "imm";
      cmt += std::to_string(d.imms[i].field_bits->size());
      cmt += '=';
      cmt += std::to_string(d.imms[i].value);
    }
    cmt += '}';
  }
  return out;
}

void CodeSelector::flatten(const treeparse::Derivation& d,
                           std::vector<SelectedRT>& out) {
  const grammar::Rule& rule = g_.rule(d.rule);
  // Chosen-rule coverage: every application in the optimal derivation,
  // including chain/start/stop rules that emit no RT.
  if (coverage_) coverage_->record_rule_chosen(d.rule);

  // Capture the pattern-preorder child layout BEFORE the Sethi-Ullman sort
  // below permutes it: reads_producer entries resolve NT ordinals against
  // this layout.
  const std::vector<int>* ords = nullptr;
  std::vector<treeparse::Derivation*> ord_children;
  if (rule.kind == grammar::RuleKind::RT) {
    ords = &read_ordinals_of_rule(d.rule);
    ord_children.assign(d.children.begin(), d.children.end());
  }

  // Children (operand subtrees / chain sources) evaluate first. Their
  // relative order is free; evaluating the subtree with more RT applications
  // first (Sethi-Ullman flavour, following the paper's reference to
  // Araujo/Malik scheduling) minimises clobbering of special-purpose
  // registers and hence spills. Stable insertion sort over the arena child
  // array: allocation-free, same order as a stable sort by descending
  // application count.
  const treeparse::ArenaSpan<treeparse::Derivation*>& ch = d.children;
  for (std::uint32_t i = 1; i < ch.count; ++i) {
    treeparse::Derivation* x = ch[i];
    std::uint32_t j = i;
    while (j > 0 && ch[j - 1]->apps < x->apps) {
      ch[j] = ch[j - 1];
      --j;
    }
    ch[j] = x;
  }
  // Flatten the children, remembering where each subtree's code ends: the
  // last RT of an operand subtree is the producer of the value its NT read
  // consumes.
  std::vector<std::pair<const treeparse::Derivation*, int>> last_rt;
  last_rt.reserve(ch.count);
  for (treeparse::Derivation* c : ch) {
    std::size_t before = out.size();
    flatten(*c, out);
    if (out.size() > before)
      last_rt.emplace_back(c, static_cast<int>(out.size()) - 1);
  }
  if (rule.kind != grammar::RuleKind::RT) return;  // start/stop apply no RT
  SelectedRT rt = instantiate(d);
  rt.reads_producer.assign(ords->size(), kReadCurrent);
  for (std::size_t i = 0; i < ords->size(); ++i) {
    int ord = (*ords)[i];
    if (ord == -2) {
      rt.reads_producer[i] = kReadEntry;  // terminal register match
    } else if (ord >= 0 && ord < static_cast<int>(ord_children.size())) {
      const treeparse::Derivation* c =
          ord_children[static_cast<std::size_t>(ord)];
      int idx = kReadEntry;  // a code-free subtree leaves the value in place
      for (const auto& [ptr, last] : last_rt)
        if (ptr == c) idx = last;
      rt.reads_producer[i] = idx;
    }
  }
  if (rt.cond == bdd::kFalse)
    diags_.warning({}, fmt("immediate encoding conflicts with the condition "
                           "of template {} ('{}')",
                           rt.tmpl->id, rt.tmpl->signature()));
  out.push_back(std::move(rt));
}

void CodeSelector::explain_derivation(const treeparse::Derivation& d,
                                      const treeparse::LabelResult& labels,
                                      StmtExplain& out) const {
  const grammar::Rule& r = g_.rule(d.rule);
  const treeparse::SubjectNode* n = d.node;
  ExplainStep step;
  step.rule = d.rule;
  step.rule_text = grammar::rule_to_string(g_, r);
  step.nonterminal = g_.nonterminal_name(r.lhs);
  step.node =
      n->is_const ? fmt("#{}", n->value) : g_.terminal_name(n->term);
  step.cost = labels
                  .at(static_cast<std::size_t>(n->id),
                      static_cast<std::size_t>(r.lhs))
                  .cost;
  step.is_chain = r.is_chain();
  for (const treeparse::ImmBinding& b : d.imms) {
    ExplainImm imm;
    imm.width = static_cast<int>(b.field_bits->size());
    imm.value = b.value;
    imm.fits = treeparse::TreeParser::immediate_fits(b.value, imm.width);
    step.imms.push_back(imm);
  }
  // The rejected alternatives at this node: the winning rules of the OTHER
  // non-terminals (the dynamic program already reduced each non-terminal to
  // its argmin, so these are the surviving competitors with their closed
  // costs).
  const treeparse::LabelEntry* row =
      labels.row(static_cast<std::size_t>(n->id));
  for (int nt = 0; nt < labels.nt_count; ++nt) {
    if (nt == r.lhs) continue;
    const treeparse::LabelEntry& e = row[static_cast<std::size_t>(nt)];
    if (e.rule < 0 || e.cost >= grammar::kInfCost) continue;
    ExplainAlternative alt;
    alt.rule = e.rule;
    alt.rule_text = grammar::rule_to_string(g_, g_.rule(e.rule));
    alt.nonterminal = g_.nonterminal_name(nt);
    alt.cost = e.cost;
    step.alternatives.push_back(std::move(alt));
  }
  out.steps.push_back(std::move(step));
  for (treeparse::Derivation* c : d.children)
    explain_derivation(*c, labels, out);
}

std::optional<SelectedRT> CodeSelector::make_branch(const ir::Stmt& stmt,
                                                    const ir::Program& prog) {
  const rtl::RTTemplate* unconditional = nullptr;
  const rtl::RTTemplate* conditional = nullptr;
  for (std::size_t i = 0; i < base_.templates.size(); ++i) {
    const rtl::RTTemplate& t = base_.templates[i];
    if (t.dest != kProgramCounter ||
        t.dest_kind != rtl::DestKind::Register)
      continue;
    if (t.value->kind != rtl::RTNode::Kind::Imm) continue;
    if (base_.writers.facts[i].reads_dynamic) {
      if (!conditional) conditional = &t;
    } else {
      if (!unconditional) unconditional = &t;
    }
  }

  const rtl::RTTemplate* chosen = nullptr;
  if (stmt.branch == ir::BranchKind::Always)
    chosen = unconditional ? unconditional : conditional;
  else
    chosen = conditional ? conditional : unconditional;
  if (!chosen) {
    diags_.error({}, fmt("target has no program-control template (register "
                         "'{}' with an immediate route) for '{}'",
                         kProgramCounter, stmt.str()));
    return std::nullopt;
  }

  SelectedRT out;
  out.tmpl = chosen;
  out.dest = kProgramCounter;
  out.cond = chosen->cond;
  out.is_branch = true;
  out.branch_target = stmt.label;
  if (stmt.branch != ir::BranchKind::Always) {
    const ir::Binding* b = prog.binding_of(stmt.cond_var);
    if (b && b->kind == ir::Binding::Kind::Register)
      out.reads.push_back(b->storage);
  }
  std::ostringstream cmt;
  cmt << chosen->signature() << "  -> " << stmt.label;
  if (stmt.branch == ir::BranchKind::IfZero) cmt << " [if zero]";
  if (stmt.branch == ir::BranchKind::IfNotZero) cmt << " [if not zero]";
  out.comment = cmt.str();
  return out;
}

std::optional<SelectionResult> CodeSelector::select(const ir::Program& prog) {
  if (!prog.validate(diags_)) return std::nullopt;
  SubjectMapper mapper(base_, g_, prog, diags_);
  SelectionResult result;

  for (const ir::Stmt& stmt : prog.stmts()) {
    StmtCode sc;
    sc.source = stmt.str();
    switch (stmt.kind) {
      case ir::Stmt::Kind::LabelDef:
        sc.is_label = true;
        sc.label = stmt.label;
        break;
      case ir::Stmt::Kind::Branch: {
        std::optional<SelectedRT> rt = make_branch(stmt, prog);
        if (!rt) return std::nullopt;
        sc.rts.push_back(std::move(*rt));
        sc.parse_cost = 1;
        if (explain_) {
          StmtExplain ex;
          ex.source = sc.source;
          ex.cost = sc.parse_cost;
          explain_->stmts.push_back(std::move(ex));
        }
        break;
      }
      case ir::Stmt::Kind::Assign:
      case ir::Stmt::Kind::Store: {
        // Disabled-tracer cost here is one relaxed load + branch per
        // statement (not per node), below the selection bench's noise.
        obs::Span label_span("select.label");
        std::optional<treeparse::SubjectTree> subject =
            mapper.map_stmt(stmt);
        if (!subject) return std::nullopt;
        treeparse::LabelResult* labels = &scratch_->labels;
        label_subject(*subject, *labels);
        if (!labels->ok) {
          // Retry at promoted (accumulator) precision — see
          // SubjectMapper::map_stmt.
          util::DiagnosticSink retry_diags;
          SubjectMapper retry_mapper(base_, g_, prog, retry_diags);
          std::optional<treeparse::SubjectTree> promoted =
              retry_mapper.map_stmt(stmt, /*promote_ops=*/true);
          if (promoted) {
            label_subject(*promoted, scratch_->promoted_labels);
            if (scratch_->promoted_labels.ok) {
              subject = std::move(promoted);
              labels = &scratch_->promoted_labels;
              if (coverage_)
                coverage_->record_variant(obs::CoverageVariant::kPromotedRetry);
            }
          }
        }
        stats_.nodes_labelled += subject->size();
        label_span.note("nodes", static_cast<std::int64_t>(subject->size()));
        label_span.end();
        if (!labels->ok) {
          diags_.error({}, fmt("no cover for statement '{}' (subject {})",
                               stmt.str(), subject->to_string(g_)));
          return std::nullopt;
        }
        OBS_SPAN("select.flatten");
        scratch_->arena.reset();
        treeparse::Derivation* d =
            parser_.reduce(*subject, *labels, scratch_->arena);
        sc.parse_cost = labels->root_cost;
        flatten(*d, sc.rts);
        if (explain_) {
          StmtExplain ex;
          ex.source = sc.source;
          ex.subject = subject->to_string(g_);
          ex.cost = labels->root_cost;
          ex.promoted = (labels == &scratch_->promoted_labels);
          explain_derivation(*d, *labels, ex);
          explain_->stmts.push_back(std::move(ex));
        }
        break;
      }
    }
    ++stats_.statements;
    result.total_rts += sc.rts.size();
    result.stmts.push_back(std::move(sc));
  }
  return result;
}

}  // namespace record::select
