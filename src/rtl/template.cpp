#include "rtl/template.h"

#include <map>
#include <sstream>
#include <unordered_set>

namespace record::rtl {

std::string OpSig::name() const {
  std::ostringstream os;
  if (kind == hdl::OpKind::Custom)
    os << custom;
  else
    os << hdl::to_string(kind);
  os << '.' << width;
  return os.str();
}

OpSig slice_op_sig(int msb, int lsb) {
  OpSig sig;
  sig.kind = hdl::OpKind::Custom;
  sig.custom = "bits" + std::to_string(msb) + "_" + std::to_string(lsb);
  sig.width = msb - lsb + 1;
  return sig;
}

RTNodePtr RTNode::clone() const {
  auto out = std::make_unique<RTNode>();
  out->kind = kind;
  out->op = op;
  out->name = name;
  out->width = width;
  out->value = value;
  out->imm_bits = imm_bits;
  out->children.reserve(children.size());
  for (const RTNodePtr& c : children) out->children.push_back(c->clone());
  return out;
}

RTNodePtr make_op(OpSig sig, std::vector<RTNodePtr> children) {
  auto n = std::make_unique<RTNode>();
  n->kind = RTNode::Kind::Op;
  n->width = sig.width;
  n->op = std::move(sig);
  n->children = std::move(children);
  return n;
}

RTNodePtr make_reg_read(std::string name, int width) {
  auto n = std::make_unique<RTNode>();
  n->kind = RTNode::Kind::RegRead;
  n->name = std::move(name);
  n->width = width;
  return n;
}

RTNodePtr make_mem_load(std::string mem, int width, RTNodePtr addr) {
  auto n = std::make_unique<RTNode>();
  n->kind = RTNode::Kind::MemLoad;
  n->name = std::move(mem);
  n->width = width;
  n->children.push_back(std::move(addr));
  return n;
}

RTNodePtr make_port_in(std::string port, int width) {
  auto n = std::make_unique<RTNode>();
  n->kind = RTNode::Kind::PortIn;
  n->name = std::move(port);
  n->width = width;
  return n;
}

RTNodePtr make_imm(std::vector<int> bits) {
  auto n = std::make_unique<RTNode>();
  n->kind = RTNode::Kind::Imm;
  n->width = static_cast<int>(bits.size());
  n->imm_bits = std::move(bits);
  return n;
}

RTNodePtr make_hard_const(std::int64_t value, int width) {
  auto n = std::make_unique<RTNode>();
  n->kind = RTNode::Kind::HardConst;
  n->value = value;
  n->width = width;
  return n;
}

namespace {

void dump(const RTNode& n, std::ostream& os) {
  switch (n.kind) {
    case RTNode::Kind::Op: {
      os << n.op.name() << '(';
      for (std::size_t i = 0; i < n.children.size(); ++i) {
        if (i) os << ',';
        dump(*n.children[i], os);
      }
      os << ')';
      break;
    }
    case RTNode::Kind::RegRead:
      os << n.name;
      break;
    case RTNode::Kind::MemLoad:
      os << n.name << '[';
      dump(*n.children[0], os);
      os << ']';
      break;
    case RTNode::Kind::PortIn:
      os << '@' << n.name;
      break;
    case RTNode::Kind::Imm: {
      // Field positions are part of the identity: two immediates drawn from
      // different instruction-word fields are different leaves.
      os << "#imm." << n.width;
      if (!n.imm_bits.empty()) os << '@' << n.imm_bits.front();
      break;
    }
    case RTNode::Kind::HardConst:
      os << '#' << n.value << '.' << n.width;
      break;
  }
}

}  // namespace

std::string to_string(const RTNode& n) {
  std::ostringstream os;
  dump(n, os);
  return os.str();
}

bool equal(const RTNode& a, const RTNode& b) {
  if (a.kind != b.kind || a.width != b.width) return false;
  switch (a.kind) {
    case RTNode::Kind::Op:
      if (!(a.op == b.op)) return false;
      break;
    case RTNode::Kind::RegRead:
    case RTNode::Kind::MemLoad:
    case RTNode::Kind::PortIn:
      if (a.name != b.name) return false;
      break;
    case RTNode::Kind::Imm:
      if (a.imm_bits != b.imm_bits) return false;
      break;
    case RTNode::Kind::HardConst:
      if (a.value != b.value) return false;
      break;
  }
  if (a.children.size() != b.children.size()) return false;
  for (std::size_t i = 0; i < a.children.size(); ++i)
    if (!equal(*a.children[i], *b.children[i])) return false;
  return true;
}

std::size_t tree_size(const RTNode& n) {
  std::size_t s = 1;
  for (const RTNodePtr& c : n.children) s += tree_size(*c);
  return s;
}

std::string_view to_string(DestKind k) {
  switch (k) {
    case DestKind::Register:
      return "register";
    case DestKind::ModeReg:
      return "modereg";
    case DestKind::Memory:
      return "memory";
    case DestKind::ProcOut:
      return "port";
  }
  return "?";
}

RTTemplate RTTemplate::clone_shallow_meta() const {
  RTTemplate out;
  out.id = id;
  out.dest_kind = dest_kind;
  out.dest = dest;
  out.dest_width = dest_width;
  out.cond = cond;
  out.provenance = provenance;
  return out;
}

std::string RTTemplate::signature() const {
  std::ostringstream os;
  os << dest;
  if (addr) os << '[' << rtl::to_string(*addr) << ']';
  os << " := " << rtl::to_string(*value);
  return os.str();
}

std::string RTTemplate::pretty(const bdd::BddManager& mgr) const {
  std::ostringstream os;
  os << signature() << "   when " << mgr.to_sop(cond);
  return os.str();
}

const StorageInfo* TemplateBase::find_storage(std::string_view name) const {
  for (const StorageInfo& s : storage)
    if (s.name == name) return &s;
  return nullptr;
}

bool TemplateBase::add_unique(RTTemplate t) {
  // Templates computing the same transfer (identical signature, which
  // includes immediate-field positions) are alternative encodings of one
  // RT: they merge into a single template whose condition is the OR of all
  // encodings. This keeps per-storage write conditions complete (needed for
  // side-effect suppression during binary encoding) and gives compaction
  // the full encoding freedom.
  auto [it, inserted] =
      signature_index_.emplace(t.signature(), templates.size());
  if (!inserted) {
    RTTemplate& existing = templates[it->second];
    if (mgr) existing.cond = mgr->lor(existing.cond, t.cond);
    return false;
  }
  t.id = static_cast<int>(templates.size());
  templates.push_back(std::move(t));
  return true;
}

std::vector<StorageWriters> write_conditions(const TemplateBase& base) {
  bdd::BddManager& mgr = *base.mgr;
  std::map<std::string, StorageWriters> by_storage;
  for (std::size_t i = 0; i < base.templates.size(); ++i) {
    const RTTemplate& t = base.templates[i];
    bdd::Ref c = t.cond;
    for (int v : mgr.support(c))
      if (base.vars[v].kind != Var::Kind::kInstr) c = mgr.exists(c, v);
    StorageWriters& sw = by_storage[t.dest];
    sw.any = mgr.lor(sw.any, c);
    sw.each.push_back({i, c, mgr.lnot(c)});
  }
  std::vector<StorageWriters> out;
  out.reserve(by_storage.size());
  for (auto& [storage, sw] : by_storage) {
    sw.storage = storage;
    sw.not_any = mgr.lnot(sw.any);
    out.push_back(std::move(sw));
  }
  return out;
}

}  // namespace record::rtl
