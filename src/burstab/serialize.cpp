#include "burstab/serialize.h"

#include <cstring>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.h"

namespace record::burstab {

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s);
}

bool ByteReader::take(std::size_t n) {
  if (failed_ || bytes_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() {
  if (!take(1)) return 0;
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(
             static_cast<std::uint8_t>(bytes_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<std::uint8_t>(bytes_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  pos_ += 8;
  return v;
}

double ByteReader::f64() {
  std::uint64_t bits = u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string ByteReader::str() {
  std::uint32_t n = u32();
  if (!take(n)) return {};
  std::string s(bytes_.substr(pos_, n));
  pos_ += n;
  return s;
}

// --- tree grammars ----------------------------------------------------------

namespace {

void write_pattern(ByteWriter& w, const grammar::PatNode& p) {
  w.u8(static_cast<std::uint8_t>(p.kind));
  switch (p.kind) {
    case grammar::PatNode::Kind::Term:
      w.i32(p.term);
      w.u32(static_cast<std::uint32_t>(p.children.size()));
      for (const grammar::PatNodePtr& c : p.children) write_pattern(w, *c);
      break;
    case grammar::PatNode::Kind::NonTerm:
      w.i32(p.nt);
      break;
    case grammar::PatNode::Kind::Imm:
      w.u32(static_cast<std::uint32_t>(p.imm_bits.size()));
      for (int b : p.imm_bits) w.i32(b);
      break;
    case grammar::PatNode::Kind::Const:
      w.i64(p.value);
      break;
  }
}

grammar::PatNodePtr read_pattern(ByteReader& r, int depth = 0) {
  if (!r.ok() || depth > 64) {
    r.fail();
    return nullptr;
  }
  auto kind = static_cast<grammar::PatNode::Kind>(r.u8());
  switch (kind) {
    case grammar::PatNode::Kind::Term: {
      grammar::TermId t = r.i32();
      std::uint32_t n = r.u32();
      if (n > 1u << 16) {
        r.fail();
        return nullptr;
      }
      std::vector<grammar::PatNodePtr> kids;
      kids.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i)
        kids.push_back(read_pattern(r, depth + 1));
      return r.ok() ? grammar::pat_term(t, std::move(kids)) : nullptr;
    }
    case grammar::PatNode::Kind::NonTerm:
      return grammar::pat_nonterm(r.i32());
    case grammar::PatNode::Kind::Imm: {
      std::uint32_t n = r.u32();
      if (n > 4096) {
        r.fail();
        return nullptr;
      }
      std::vector<int> bits;
      bits.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) bits.push_back(r.i32());
      return grammar::pat_imm(std::move(bits));
    }
    case grammar::PatNode::Kind::Const:
      return grammar::pat_const_leaf(r.i64());
  }
  r.fail();
  return nullptr;
}

}  // namespace

void write_grammar(ByteWriter& w, const grammar::TreeGrammar& g) {
  w.u32(static_cast<std::uint32_t>(g.terminal_count()));
  for (int t = 0; t < g.terminal_count(); ++t) w.str(g.terminal_name(t));
  w.u32(static_cast<std::uint32_t>(g.nonterminal_count()));
  for (int n = 0; n < g.nonterminal_count(); ++n)
    w.str(g.nonterminal_name(n));
  w.u32(static_cast<std::uint32_t>(g.rules().size()));
  for (const grammar::Rule& r : g.rules()) {
    w.i32(r.lhs);
    w.i32(r.cost);
    w.u8(static_cast<std::uint8_t>(r.kind));
    w.i32(r.template_id);
    write_pattern(w, *r.pattern);
  }
}

bool read_grammar(ByteReader& r, grammar::TreeGrammar& g) {
  // The fresh grammar pre-interns START/ASSIGN/#const in the same order the
  // writer's grammar did, so interning the written names reproduces ids.
  std::uint32_t terms = r.u32();
  for (std::uint32_t i = 0; i < terms && r.ok(); ++i) {
    std::string name = r.str();
    if (g.intern_terminal(name) != static_cast<grammar::TermId>(i)) r.fail();
  }
  std::uint32_t nts = r.u32();
  for (std::uint32_t i = 0; i < nts && r.ok(); ++i) {
    std::string name = r.str();
    if (g.intern_nonterminal(name) != static_cast<grammar::NtId>(i)) r.fail();
  }
  std::uint32_t rules = r.u32();
  if (rules > 1u << 22) r.fail();
  for (std::uint32_t i = 0; i < rules && r.ok(); ++i) {
    grammar::NtId lhs = r.i32();
    int cost = r.i32();
    auto kind = static_cast<grammar::RuleKind>(r.u8());
    int template_id = r.i32();
    grammar::PatNodePtr pat = read_pattern(r);
    if (!r.ok() || !pat) break;
    if (lhs < 0 || lhs >= g.nonterminal_count()) {
      r.fail();
      break;
    }
    g.add_rule(lhs, std::move(pat), cost, kind, template_id);
  }
  return r.ok();
}

std::uint64_t grammar_fingerprint(const grammar::TreeGrammar& g) {
  ByteWriter w;
  write_grammar(w, g);
  return fnv1a(w.bytes());
}

// --- RT template bases ------------------------------------------------------

namespace {

void write_bdd(ByteWriter& w, const bdd::BddManager& mgr, bdd::Ref root) {
  // Emit the reachable interior nodes in a bottom-up order; ids 0/1 are the
  // constants, id k+2 the k-th emitted node.
  std::unordered_map<bdd::Ref, std::uint32_t> ids;
  std::vector<bdd::Ref> order;
  std::vector<bdd::Ref> stack;
  if (!bdd::BddManager::is_const(root)) stack.push_back(root);
  while (!stack.empty()) {
    bdd::Ref f = stack.back();
    if (ids.count(f)) {
      stack.pop_back();
      continue;
    }
    bdd::Ref lo = mgr.low(f), hi = mgr.high(f);
    bool ready = true;
    for (bdd::Ref c : {lo, hi}) {
      if (!bdd::BddManager::is_const(c) && !ids.count(c)) {
        stack.push_back(c);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    ids.emplace(f, static_cast<std::uint32_t>(order.size()) + 2);
    order.push_back(f);
  }
  auto id_of = [&ids](bdd::Ref f) -> std::uint32_t {
    return bdd::BddManager::is_const(f) ? f : ids.at(f);
  };
  w.u32(static_cast<std::uint32_t>(order.size()));
  for (bdd::Ref f : order) {
    w.i32(mgr.top_var(f));
    w.u32(id_of(mgr.low(f)));
    w.u32(id_of(mgr.high(f)));
  }
  w.u32(id_of(root));
}

bdd::Ref read_bdd(ByteReader& r, bdd::BddManager& mgr) {
  std::uint32_t count = r.u32();
  if (count > 1u << 24) {
    r.fail();
    return bdd::kFalse;
  }
  std::vector<bdd::Ref> refs;
  refs.reserve(count + 2);
  refs.push_back(bdd::kFalse);
  refs.push_back(bdd::kTrue);
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    int var = r.i32();
    std::uint32_t lo = r.u32(), hi = r.u32();
    if (var < 0 || var >= mgr.var_count() || lo >= refs.size() ||
        hi >= refs.size()) {
      r.fail();
      return bdd::kFalse;
    }
    refs.push_back(mgr.make(var, refs[lo], refs[hi]));
  }
  std::uint32_t root = r.u32();
  if (!r.ok() || root >= refs.size()) {
    r.fail();
    return bdd::kFalse;
  }
  return refs[root];
}

void write_rtnode(ByteWriter& w, const rtl::RTNode& n) {
  w.u8(static_cast<std::uint8_t>(n.kind));
  w.u8(static_cast<std::uint8_t>(n.op.kind));
  w.str(n.op.custom);
  w.i32(n.op.width);
  w.str(n.name);
  w.i32(n.width);
  w.i64(n.value);
  w.u32(static_cast<std::uint32_t>(n.imm_bits.size()));
  for (int b : n.imm_bits) w.i32(b);
  w.u32(static_cast<std::uint32_t>(n.children.size()));
  for (const rtl::RTNodePtr& c : n.children) write_rtnode(w, *c);
}

rtl::RTNodePtr read_rtnode(ByteReader& r, int depth = 0) {
  if (!r.ok() || depth > 64) {
    r.fail();
    return nullptr;
  }
  auto n = std::make_unique<rtl::RTNode>();
  n->kind = static_cast<rtl::RTNode::Kind>(r.u8());
  n->op.kind = static_cast<hdl::OpKind>(r.u8());
  n->op.custom = r.str();
  n->op.width = r.i32();
  n->name = r.str();
  n->width = r.i32();
  n->value = r.i64();
  std::uint32_t bits = r.u32();
  if (bits > 4096) {
    r.fail();
    return nullptr;
  }
  for (std::uint32_t i = 0; i < bits && r.ok(); ++i)
    n->imm_bits.push_back(r.i32());
  std::uint32_t kids = r.u32();
  if (kids > 1u << 16) {
    r.fail();
    return nullptr;
  }
  for (std::uint32_t i = 0; i < kids && r.ok(); ++i) {
    rtl::RTNodePtr c = read_rtnode(r, depth + 1);
    if (!c) return nullptr;
    n->children.push_back(std::move(c));
  }
  return r.ok() ? std::move(n) : nullptr;
}

}  // namespace

void write_template_base(ByteWriter& w, const rtl::TemplateBase& base) {
  w.u32(base.mgr ? static_cast<std::uint32_t>(base.mgr->var_count()) : 0);
  if (base.mgr)
    for (int v = 0; v < base.mgr->var_count(); ++v) w.str(base.mgr->var_name(v));
  w.i32(base.instruction_width);
  w.i32(base.branch_delay_slots);
  w.u32(static_cast<std::uint32_t>(base.storage.size()));
  for (const rtl::StorageInfo& s : base.storage) {
    w.str(s.name);
    w.u8(static_cast<std::uint8_t>(s.kind));
    w.i32(s.width);
    w.u8(s.readable ? 1 : 0);
    w.i64(s.cells);
  }
  w.u32(static_cast<std::uint32_t>(base.in_ports.size()));
  for (const rtl::PortInInfo& p : base.in_ports) {
    w.str(p.name);
    w.i32(p.width);
  }
  w.u32(static_cast<std::uint32_t>(base.templates.size()));
  for (const rtl::RTTemplate& t : base.templates) {
    w.u8(static_cast<std::uint8_t>(t.dest_kind));
    w.str(t.dest);
    w.i32(t.dest_width);
    w.u8(t.addr ? 1 : 0);
    if (t.addr) write_rtnode(w, *t.addr);
    write_rtnode(w, *t.value);
    write_bdd(w, *base.mgr, t.cond);
    w.str(t.provenance);
  }
}

bool read_template_base(ByteReader& r, rtl::TemplateBase& base) {
  base.mgr = std::make_shared<bdd::BddManager>();
  std::uint32_t vars = r.u32();
  if (vars > 1u << 20) {
    r.fail();
    return false;
  }
  for (std::uint32_t i = 0; i < vars && r.ok(); ++i) {
    std::optional<rtl::Var> v = rtl::parse_var_name(r.str());
    if (!v) {
      r.fail();
      return false;
    }
    (void)base.vars.add(*base.mgr, std::move(*v));
  }
  base.instruction_width = r.i32();
  if (!base.vars.instr_bits_lead(base.instruction_width)) r.fail();
  base.branch_delay_slots = r.i32();
  std::uint32_t storages = r.u32();
  if (storages > 1u << 16) r.fail();
  for (std::uint32_t i = 0; i < storages && r.ok(); ++i) {
    rtl::StorageInfo s;
    s.name = r.str();
    s.kind = static_cast<rtl::DestKind>(r.u8());
    s.width = r.i32();
    s.readable = r.u8() != 0;
    s.cells = r.i64();
    base.storage.push_back(std::move(s));
  }
  std::uint32_t ports = r.u32();
  if (ports > 1u << 16) r.fail();
  for (std::uint32_t i = 0; i < ports && r.ok(); ++i) {
    rtl::PortInInfo p;
    p.name = r.str();
    p.width = r.i32();
    base.in_ports.push_back(std::move(p));
  }
  std::uint32_t templates = r.u32();
  if (templates > 1u << 22) r.fail();
  for (std::uint32_t i = 0; i < templates && r.ok(); ++i) {
    rtl::RTTemplate t;
    t.dest_kind = static_cast<rtl::DestKind>(r.u8());
    t.dest = r.str();
    t.dest_width = r.i32();
    if (r.u8() != 0) {
      t.addr = read_rtnode(r);
      if (!t.addr) return false;
    }
    t.value = read_rtnode(r);
    if (!t.value) return false;
    t.cond = read_bdd(r, *base.mgr);
    t.provenance = r.str();
    // add_unique reassigns sequential ids, matching the writer's (templates
    // are stored in id order and are unique by signature).
    (void)base.add_unique(std::move(t));
  }
  return r.ok();
}

}  // namespace record::burstab
