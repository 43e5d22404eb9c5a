#include "sim/machine.h"

#include <functional>

#include "sim/value.h"
#include "util/strings.h"

namespace record::sim {

using util::fmt;

Machine::Machine(const rtl::TemplateBase& base) : base_(base) {
  const bdd::BddManager& mgr = *base.mgr;

  // A storage bit resolves when its instance is register-like (its out port
  // is its stored value); memory reads and opaque bits do not.
  resolvable_.resize(static_cast<std::size_t>(base.vars.size()));
  for (int v = 0; v < base.vars.size(); ++v) {
    const rtl::Var& var = base.vars[v];
    bool ok = var.kind != rtl::Var::Kind::kOpaque;
    if (var.kind == rtl::Var::Kind::kStorage) {
      const rtl::StorageInfo* s = base.find_storage(var.inst);
      ok = s && (s->kind == rtl::DestKind::Register ||
                 s->kind == rtl::DestKind::ModeReg);
    }
    resolvable_[static_cast<std::size_t>(v)] = ok;
  }

  support_.reserve(base.templates.size());
  has_unresolvable_.reserve(base.templates.size());
  for (const rtl::RTTemplate& t : base.templates) {
    std::vector<int> sup = mgr.support(t.cond);
    bool unres = false;
    for (int v : sup)
      if (!resolvable_[static_cast<std::size_t>(v)]) unres = true;
    support_.push_back(std::move(sup));
    has_unresolvable_.push_back(unres);
  }
}

MachineResult Machine::run(const emit::Assembly& assembly,
                           const MachineOptions& options,
                           const State* initial) const {
  const bdd::BddManager& mgr = *base_.mgr;
  MachineResult result;
  result.state = initial ? *initial : State(base_);
  for (const auto& [name, v] : options.in_ports)
    result.state.set_in_port(name, v);

  auto fail = [&](std::string why, bool unsupported = false) {
    result.ok = false;
    result.unsupported = unsupported;
    result.error = std::move(why);
    return result;
  };

  const std::size_t word_count = assembly.words.size();
  // Words are addressed sequentially from 0 (emit::encode's layout).
  for (std::size_t i = 0; i < word_count; ++i)
    if (assembly.words[i].address != static_cast<int>(i))
      return fail(fmt("word {} carries address {}; expected a dense layout",
                      i, assembly.words[i].address));

  std::int64_t current = 0;  // current word address while executing
  std::string err;
  bool unsupported = false;

  // Branch-delay-slot machinery: on machines whose PC register carries a
  // write DELAY, a taken branch is held pending while the following
  // `pending_left` words (the delay slots) execute; only then does the PC
  // write land and the branch retire against the branch budget.
  const int delay_slots = base_.branch_delay_slots;
  std::int64_t pending_target = 0;
  int pending_left = -1;  // < 0: no branch in flight

  /// Resolves one BDD variable against the word bits and machine state.
  auto resolve_var = [&](int v, const emit::EncodedWord& w)
      -> std::optional<bool> {
    if (!resolvable_[static_cast<std::size_t>(v)]) return std::nullopt;
    const rtl::Var& var = base_.vars[v];
    switch (var.kind) {
      case rtl::Var::Kind::kInstr:
        return var.bit < static_cast<int>(w.bits.size()) &&
               w.bits[static_cast<std::size_t>(var.bit)];
      case rtl::Var::Kind::kMode:
      case rtl::Var::Kind::kStorage: {
        std::uint64_t bits = static_cast<std::uint64_t>(
            result.state.read_reg(var.inst));
        return var.bit < 64 && ((bits >> var.bit) & 1u) != 0;
      }
      case rtl::Var::Kind::kInPort: {
        std::uint64_t bits = static_cast<std::uint64_t>(
            result.state.read_in_port(var.port, 0));
        return var.bit < 64 && ((bits >> var.bit) & 1u) != 0;
      }
      case rtl::Var::Kind::kOpaque:
        return std::nullopt;
    }
    return std::nullopt;
  };

  /// Evaluates one RT tree against the pre-cycle state.
  std::function<std::optional<Val>(const rtl::RTNode&,
                                   const emit::EncodedWord&)>
      eval_node = [&](const rtl::RTNode& n,
                      const emit::EncodedWord& w) -> std::optional<Val> {
    switch (n.kind) {
      case rtl::RTNode::Kind::HardConst:
        return Val{canon(n.value, n.width), n.width};
      case rtl::RTNode::Kind::Imm: {
        std::int64_t v = 0;
        for (std::size_t j = 0; j < n.imm_bits.size(); ++j) {
          int pos = n.imm_bits[j];
          if (pos >= 0 && pos < static_cast<int>(w.bits.size()) &&
              w.bits[static_cast<std::size_t>(pos)])
            v |= std::int64_t{1} << j;
        }
        int width = static_cast<int>(n.imm_bits.size());
        return Val{canon(v, width), width};
      }
      case rtl::RTNode::Kind::RegRead: {
        if (n.name == kProgramCounter)
          return Val{canon(current, n.width), n.width};
        int width = result.state.reg_width(n.name);
        if (width == 0) width = n.width;
        return Val{result.state.read_reg(n.name), width};
      }
      case rtl::RTNode::Kind::PortIn:
        return Val{result.state.read_in_port(n.name, n.width), n.width};
      case rtl::RTNode::Kind::MemLoad: {
        std::optional<Val> a = eval_node(*n.children[0], w);
        if (!a) return std::nullopt;
        // The address port truncates to its wire width; reads outside the
        // modeled cell count are harmless (they return deterministic
        // initial contents) — only *writes* are bounds-checked.
        std::int64_t addr =
            static_cast<std::int64_t>(bits_of(a->v, a->width));
        return Val{result.state.read_mem(n.name, addr),
                   result.state.mem_width(n.name)};
      }
      case rtl::RTNode::Kind::Op: {
        std::vector<Val> args;
        args.reserve(n.children.size());
        for (const rtl::RTNodePtr& c : n.children) {
          std::optional<Val> v = eval_node(*c, w);
          if (!v) return std::nullopt;
          args.push_back(*v);
        }
        std::string why;
        std::optional<Val> out = apply_op(n.op, args, why);
        if (!out) {
          err = why;
          unsupported = true;
          return std::nullopt;
        }
        return out;
      }
    }
    err = "malformed RT node";
    return std::nullopt;
  };

  while (current < static_cast<std::int64_t>(word_count)) {
    if (++result.steps > options.max_steps) {
      result.stop = StopReason::kStepBudget;
      result.ok = true;
      return result;
    }
    const emit::EncodedWord& w =
        assembly.words[static_cast<std::size_t>(current)];

    // --- decode: which templates fire under (bits, mode, dynamic state) ---
    std::vector<const rtl::RTTemplate*> fired;
    for (std::size_t t = 0; t < base_.templates.size(); ++t) {
      const rtl::RTTemplate& tmpl = base_.templates[t];
      if (!has_unresolvable_[t]) {
        bdd::Assignment asg;
        asg.reserve(support_[t].size());
        for (int v : support_[t]) asg.emplace_back(v, *resolve_var(v, w));
        if (mgr.eval(tmpl.cond, asg)) fired.push_back(&tmpl);
        continue;
      }
      // Opaque dynamic bits in the condition: fix everything resolvable and
      // require the residue to be constant.
      bdd::Ref r = tmpl.cond;
      for (int v : support_[t])
        if (std::optional<bool> val = resolve_var(v, w))
          r = base_.mgr->restrict(r, v, *val);
      if (r == bdd::kFalse) continue;
      if (r == bdd::kTrue) {
        fired.push_back(&tmpl);
        continue;
      }
      return fail(fmt("word {} ({}): condition of '{}' depends on control "
                      "state the simulator cannot resolve",
                      current, w.hex(), tmpl.signature()),
                  /*unsupported=*/true);
    }
    if (fired.empty())
      return fail(fmt("word {} ({}): no RT template fires — not a valid "
                      "instruction",
                      current, w.hex()));

    // --- evaluate all fired transfers against the pre-cycle state ----------
    struct Write {
      const rtl::RTTemplate* t;
      std::int64_t addr = 0;  // Memory destinations
      std::int64_t value = 0;
    };
    std::vector<Write> writes;
    writes.reserve(fired.size());
    bool taken = false;
    std::int64_t branch_target = 0;
    const rtl::RTTemplate* branch_rt = nullptr;

    for (const rtl::RTTemplate* t : fired) {
      std::optional<Val> v = eval_node(*t->value, w);
      if (!v)
        return fail(fmt("word {} ({}): cannot evaluate '{}': {}", current,
                        w.hex(), t->signature(), err),
                    unsupported);
      Write wr{t, 0, canon(v->v, t->dest_width)};
      if (t->dest_kind == rtl::DestKind::Memory) {
        std::optional<Val> a = eval_node(*t->addr, w);
        if (!a)
          return fail(fmt("word {} ({}): cannot evaluate the address of "
                          "'{}': {}",
                          current, w.hex(), t->signature(), err),
                      unsupported);
        wr.addr = static_cast<std::int64_t>(bits_of(a->v, a->width));
        std::int64_t cells = result.state.mem_cells(t->dest);
        if (cells > 0 && wr.addr >= cells)
          return fail(fmt("word {} ({}): write address {} out of range for "
                          "memory '{}' ({} cells)",
                          current, w.hex(), wr.addr, t->dest, cells));
      }
      if (t->dest_kind == rtl::DestKind::Register &&
          t->dest == kProgramCounter) {
        std::int64_t target =
            static_cast<std::int64_t>(bits_of(wr.value, t->dest_width));
        if (taken && target != branch_target)
          return fail(fmt("word {} ({}): conflicting branch targets {} and "
                          "{}",
                          current, w.hex(), branch_target, target));
        taken = true;
        branch_target = target;
        branch_rt = t;
        continue;
      }
      writes.push_back(wr);
    }

    // --- contention check + commit -----------------------------------------
    // Two fired units driving conflicting values into one location is a
    // structural hazard. Equal values are tolerated: commutative template
    // twins (`R1 := R0^R1` / `R1 := R1^R0`) legitimately share an encoding
    // and fire together.
    for (std::size_t a = 0; a < writes.size(); ++a)
      for (std::size_t b = a + 1; b < writes.size(); ++b) {
        if (writes[a].t->dest != writes[b].t->dest) continue;
        if (writes[a].t->dest_kind == rtl::DestKind::Memory &&
            writes[a].addr != writes[b].addr)
          continue;
        if (writes[a].value != writes[b].value)
          return fail(fmt("word {} ({}): write contention on '{}': '{}' "
                          "drives {} while '{}' drives {}",
                          current, w.hex(), writes[a].t->dest,
                          writes[a].t->signature(), writes[a].value,
                          writes[b].t->signature(), writes[b].value));
      }
    for (const Write& wr : writes) {
      switch (wr.t->dest_kind) {
        case rtl::DestKind::Register:
        case rtl::DestKind::ModeReg:
          result.state.write_reg(wr.t->dest, wr.value);
          break;
        case rtl::DestKind::Memory:
          result.state.write_mem(wr.t->dest, wr.addr, wr.value);
          break;
        case rtl::DestKind::ProcOut:
          result.state.write_out_port(wr.t->dest, wr.value,
                                      wr.t->dest_width);
          break;
      }
    }

    // --- advance -------------------------------------------------------------
    if (taken) {
      // Malformed targets are rejected even on the budget-exhausting
      // branch — loop programs always stop on the budget, and a corrupted
      // target must not slip through as a "clean" stop.
      if (branch_target > static_cast<std::int64_t>(word_count))
        return fail(fmt("word {} ({}): branch target {} out of range "
                        "(program has {} words; '{}')",
                        current, w.hex(), branch_target, word_count,
                        branch_rt->signature()));
      if (delay_slots > 0) {
        if (pending_left >= 0)
          return fail(fmt("word {} ({}): taken branch in the delay slot of "
                          "an earlier branch",
                          current, w.hex()));
        // The PC write is pending: the next `delay_slots` words execute
        // before it lands.
        pending_target = branch_target;
        pending_left = delay_slots;
        ++current;
      } else {
        ++result.taken_branches;
        if (result.taken_branches >= options.max_taken_branches) {
          result.stop = StopReason::kBranchBudget;
          result.ok = true;
          return result;
        }
        current = branch_target;
      }
    } else {
      ++current;
    }
    // Retire a pending branch once its delay-slot words have committed.
    if (!taken && pending_left >= 0 && --pending_left == 0) {
      pending_left = -1;
      ++result.taken_branches;
      if (result.taken_branches >= options.max_taken_branches) {
        result.stop = StopReason::kBranchBudget;
        result.ok = true;
        return result;
      }
      current = pending_target;
    }
  }

  result.stop = StopReason::kHalt;
  result.ok = true;
  return result;
}

}  // namespace record::sim
