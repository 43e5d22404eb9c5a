#include "compact/compact.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>

#include "sim/value.h"
#include "util/strings.h"

namespace record::compact {

using util::fmt;

std::size_t CompactedProgram::word_count() const {
  std::size_t n = 0;
  for (const CompactedRegion& r : regions) n += r.words.size();
  return n;
}

namespace {

/// Required mode-register literals of a condition: mode variables whose
/// phase is forced (cond implies var=b).
std::vector<std::pair<int, bool>> required_modes(bdd::BddManager& mgr,
                                                 const rtl::VarTable& vars,
                                                 bdd::Ref cond) {
  std::vector<std::pair<int, bool>> out;
  for (int v : mgr.support(cond)) {
    if (vars[v].kind != rtl::Var::Kind::kMode) continue;
    bool sat_pos = mgr.land(cond, mgr.var(v)) != bdd::kFalse;
    bool sat_neg = mgr.land(cond, mgr.nvar(v)) != bdd::kFalse;
    if (sat_pos && !sat_neg) out.emplace_back(v, true);
    if (!sat_pos && sat_neg) out.emplace_back(v, false);
  }
  return out;
}

class Compactor {
 public:
  Compactor(const select::SelectionResult& sel, const rtl::TemplateBase& base,
            const CompactOptions& options, util::DiagnosticSink& diags)
      : sel_(sel), base_(base), options_(options), diags_(diags) {}

  CompactResult run() {
    CompactResult result;
    std::vector<Region> regions = build_regions(sel_);
    for (Region& region : regions) {
      CompactedRegion out;
      out.label = region.label;
      if (options_.enabled)
        schedule_region(region, out, result);
      else
        sequential_region(region, out, result);
      result.program.regions.push_back(std::move(out));
    }
    result.stats.words = result.program.word_count();
    for (const CompactedRegion& r : result.program.regions) {
      for (const Word& w : r.words) {
        result.stats.total_slot_rts += w.rts.size();
        if (w.rts.size() >= 2) ++result.stats.multi_rt_words;
      }
    }
    return result;
  }

 private:
  void note_input(CompactResult& result, const Region& region) {
    result.stats.input_rts += region.rts.size();
  }

  void sequential_region(const Region& region, CompactedRegion& out,
                         CompactResult& result) {
    note_input(result, region);
    for (const select::SelectedRT* rt : region.rts) {
      Word w;
      w.rts.push_back(rt);
      w.cond = rt->cond;
      w.has_branch = rt->is_branch;
      w.branch_target = rt->branch_target;
      handle_modes(w, out, result);
      out.words.push_back(std::move(w));
    }
    fill_delay_slots(region, out, result);
  }

  void schedule_region(const Region& region, CompactedRegion& out,
                       CompactResult& result) {
    note_input(result, region);
    const std::size_t n = region.rts.size();
    if (n == 0) return;
    bdd::BddManager& mgr = *base_.mgr;

    // Dependence edges always run forward in region order (DepEdge), so
    // one reverse sweep settles critical-path heights, and each RT keeps
    // a count of unscheduled predecessors plus the earliest cycle its
    // scheduled ones allow. Placing an RT updates its successors at once,
    // so a latency-0 successor later in the priority order can join the
    // same word.
    std::vector<std::vector<const DepEdge*>> succs(n);
    std::vector<int> preds_left(n, 0);
    for (const DepEdge& e : region.edges) {
      succs[e.from].push_back(&e);
      ++preds_left[e.to];
    }
    std::vector<int> earliest(n, 0);
    std::vector<bool> scheduled(n, false);
    std::size_t remaining = n;
    int current = 0;

    // Critical-path heights: list-scheduling priority. Deeper chains go
    // first, which lets shallow RTs (e.g. a pending accumulate) pair with
    // later compatible RTs (e.g. the next multiply) — the MPYA/MACD fusion
    // pattern.
    std::vector<int> height(n, 0);
    for (std::size_t i = n; i-- > 0;)
      for (const DepEdge* e : succs[i])
        height[i] = std::max(height[i], height[e->to] + (e->latency > 0 ? 1 : 0));
    std::vector<std::size_t> priority(n);
    for (std::size_t i = 0; i < n; ++i) priority[i] = i;
    std::stable_sort(priority.begin(), priority.end(),
                     [&height](std::size_t a, std::size_t b) {
                       return height[a] > height[b];
                     });

    auto ready = [&](std::size_t i) {
      return !scheduled[i] && preds_left[i] == 0 && earliest[i] <= current;
    };
    auto place = [&](std::size_t i) {
      scheduled[i] = true;
      --remaining;
      for (const DepEdge* e : succs[i]) {
        --preds_left[e->to];
        earliest[e->to] = std::max(earliest[e->to], current + e->latency);
      }
    };

    while (remaining > 0) {
      Word w;
      bool packed_any = false;
      // Non-branch candidates first, by descending critical-path height.
      for (std::size_t i : priority) {
        const select::SelectedRT* rt = region.rts[i];
        if (rt->is_branch || !ready(i)) continue;
        bdd::Ref joint = mgr.land(w.cond, rt->cond);
        if (joint == bdd::kFalse) {
          if (w.rts.empty()) {
            // An RT whose own condition is unsatisfiable (should not happen
            // after selection) must still be placed to guarantee progress.
            diags_.warning({}, "placing RT with unsatisfiable condition");
            joint = rt->cond;
          } else {
            ++result.stats.pairs_rejected_encoding;
            continue;
          }
        }
        w.rts.push_back(rt);
        w.cond = joint;
        place(i);
        packed_any = true;
      }
      // The branch goes last: only when everything else is in flight.
      for (std::size_t i = 0; i < n && remaining > 0; ++i) {
        const select::SelectedRT* rt = region.rts[i];
        if (!rt->is_branch || !ready(i)) continue;
        if (remaining != 1) continue;  // other RTs still unscheduled
        bdd::Ref joint = mgr.land(w.cond, rt->cond);
        if (joint == bdd::kFalse) {
          ++result.stats.pairs_rejected_encoding;
          continue;
        }
        w.rts.push_back(rt);
        w.cond = joint;
        w.has_branch = true;
        w.branch_target = rt->branch_target;
        place(i);
        packed_any = true;
      }
      if (!w.rts.empty()) {
        handle_modes(w, out, result);
        out.words.push_back(std::move(w));
      }
      ++current;
      if (!packed_any && current > static_cast<int>(4 * n + 8)) {
        diags_.error({}, "compaction failed to make progress (cyclic "
                         "dependences?)");
        break;
      }
    }
    fill_delay_slots(region, out, result);
  }

  /// On machines with architectural branch delay slots (the PC register is
  /// written `branch_delay_slots` words late), the words after a taken
  /// branch still execute. Both region modes place the branch word last, so
  /// here we move an eligible suffix of the words immediately before the
  /// branch to after it — they execute before the jump lands either way —
  /// and pad the shortfall with NOP words. A word is eligible only if it has
  /// no dependence edge to or from the branch word's RTs, is not itself a
  /// branch or a synthesized mode-set, and writes neither the PC nor any
  /// storage the branch condition reads.
  void fill_delay_slots(const Region& region, CompactedRegion& out,
                        CompactResult& result) {
    const int d = base_.branch_delay_slots;
    if (d <= 0 || out.words.empty() || !out.words.back().has_branch) return;
    bdd::BddManager& mgr = *base_.mgr;

    std::map<const select::SelectedRT*, std::size_t> index;
    for (std::size_t i = 0; i < region.rts.size(); ++i)
      index[region.rts[i]] = i;
    const Word& branch = out.words.back();

    auto depends_on_branch = [&](const Word& x) {
      for (const select::SelectedRT* a : x.rts) {
        auto ia = index.find(a);
        if (ia == index.end()) return true;  // unknown provenance: be safe
        for (const select::SelectedRT* b : branch.rts) {
          auto ib = index.find(b);
          if (ib == index.end()) return true;
          for (const DepEdge& e : region.edges) {
            if (e.control) continue;  // branch-last ordering, not a data dep
            if ((e.from == ia->second && e.to == ib->second) ||
                (e.from == ib->second && e.to == ia->second))
              return true;
          }
        }
      }
      return false;
    };

    // Instances whose state the branch condition reads dynamically.
    std::set<std::string> cond_insts;
    for (int v : mgr.support(branch.cond)) {
      const rtl::Var& var = base_.vars[v];
      if (var.kind == rtl::Var::Kind::kMode ||
          var.kind == rtl::Var::Kind::kStorage)
        cond_insts.insert(var.inst);
    }
    auto writes_sensitive = [&](const Word& x) {
      for (const select::SelectedRT* rt : x.rts)
        if (rt->dest == "PC" || cond_insts.count(rt->dest)) return true;
      return false;
    };

    std::size_t bpos = out.words.size() - 1;
    std::size_t movable = 0;
    while (movable < static_cast<std::size_t>(d) && bpos - movable > 0) {
      const Word& x = out.words[bpos - movable - 1];
      if (x.has_branch || x.is_mode_set) break;
      if (writes_sensitive(x) || depends_on_branch(x)) break;
      ++movable;
    }
    // [... X1..Xk B] -> [... B X1..Xk], order among the moved words kept.
    std::rotate(out.words.begin() + static_cast<std::ptrdiff_t>(bpos - movable),
                out.words.begin() + static_cast<std::ptrdiff_t>(bpos),
                out.words.end());
    result.stats.delay_slots_filled += movable;
    for (std::size_t i = movable; i < static_cast<std::size_t>(d); ++i) {
      Word nop;
      out.words.push_back(std::move(nop));
      ++result.stats.delay_nops_inserted;
    }
  }

  /// Ensures the machine's mode registers satisfy the word's requirements,
  /// inserting mode-set words as needed, then bakes the (now known) mode
  /// state into the word condition. The baking step matters on machines
  /// where alternative encodings are OR-merged across mode settings: without
  /// it the encoder's any_sat could pick instruction bits that only decode
  /// correctly under a mode the machine is not in.
  void handle_modes(Word& w, CompactedRegion& out, CompactResult& result) {
    if (!options_.handle_modes) return;
    bdd::BddManager& mgr = *base_.mgr;
    std::map<std::string, std::map<int, bool>> needed;  // inst -> bit -> val
    for (const auto& [var, val] : required_modes(mgr, base_.vars, w.cond)) {
      auto it = mode_state_.find(var);
      if (it != mode_state_.end() && it->second == val) continue;
      const rtl::Var& mode = base_.vars[var];
      needed[mode.inst][mode.bit] = val;
      mode_state_[var] = val;
    }
    for (auto& [inst, bits] : needed) {
      // A synthesized set writes the WHOLE register, so every bit outside
      // the required set must carry its current value or the write would
      // clobber it (needing bit 0 := 1 while bit 1 already holds 1 must
      // write 3, not 1). Unknown bits read the deterministic reset
      // contents both simulators use.
      const rtl::StorageInfo* s = base_.find_storage(inst);
      const int width = s ? s->width : 0;
      for (int bit = 0; bit < width; ++bit) {
        if (bits.count(bit)) continue;
        int var = base_.vars.mode_var(inst, bit);
        auto it = var >= 0 ? mode_state_.find(var) : mode_state_.end();
        bool val;
        if (it != mode_state_.end()) {
          val = it->second;
        } else {
          std::uint64_t reset = static_cast<std::uint64_t>(
              sim::initial_value(inst, 0, width));
          val = ((reset >> bit) & 1u) != 0;
        }
        bits[bit] = val;
        if (var >= 0) mode_state_[var] = val;
      }
      const select::SelectedRT* set_rt = synthesize_mode_set(inst, bits,
                                                             result);
      if (!set_rt) {
        diags_.warning({}, fmt("no template to set mode register '{}'",
                               inst));
        continue;
      }
      Word w;
      w.rts.push_back(set_rt);
      w.cond = set_rt->cond;
      w.is_mode_set = true;
      out.words.push_back(std::move(w));
      ++result.stats.mode_sets_inserted;
    }

    // Bake the machine's actual mode state into the word condition. Vars
    // never set by the schedule read the deterministic reset contents the
    // simulators also use.
    bdd::Ref baked = w.cond;
    for (int v : mgr.support(w.cond)) {
      const rtl::Var& mode = base_.vars[v];
      if (mode.kind != rtl::Var::Kind::kMode) continue;
      auto it = mode_state_.find(v);
      bool val;
      if (it != mode_state_.end()) {
        val = it->second;
      } else {
        const rtl::StorageInfo* s = base_.find_storage(mode.inst);
        if (!s) continue;  // unknown mode register: leave the var free
        std::uint64_t reset = static_cast<std::uint64_t>(
            sim::initial_value(mode.inst, 0, s->width));
        val = ((reset >> mode.bit) & 1u) != 0;
        mode_state_[v] = val;
      }
      baked = mgr.land(baked, mgr.literal(v, val));
    }
    // kFalse here would mean a required mode could not be established (no
    // set template existed — already warned above); keep the raw condition.
    if (baked != bdd::kFalse) w.cond = baked;
  }

  const select::SelectedRT* synthesize_mode_set(
      const std::string& inst, const std::map<int, bool>& bits,
      CompactResult& result) {
    bdd::BddManager& mgr = *base_.mgr;
    std::int64_t value = 0;
    for (const auto& [bit, val] : bits)
      if (val) value |= (std::int64_t{1} << bit);

    for (const rtl::RTTemplate& t : base_.templates) {
      if (t.dest != inst || t.dest_kind != rtl::DestKind::ModeReg) continue;
      auto rt = std::make_unique<select::SelectedRT>();
      rt->tmpl = &t;
      rt->dest = inst;
      rt->cond = t.cond;
      if (t.value->kind == rtl::RTNode::Kind::Imm) {
        treeparse::ImmBinding b;
        b.field_bits = &t.value->imm_bits;
        b.value = value;
        rt->imms.push_back(b);
        for (std::size_t j = 0; j < b.field_bits->size(); ++j) {
          int var = (*b.field_bits)[j];  // I[k] is variable k
          if (var < 0 || var >= base_.instruction_width) continue;
          bool bit = ((static_cast<std::uint64_t>(value) >> j) & 1u) != 0;
          rt->cond = mgr.land(rt->cond, mgr.literal(var, bit));
        }
      } else if (t.value->kind == rtl::RTNode::Kind::HardConst) {
        if (t.value->value != value) continue;
      } else {
        continue;  // data-dependent mode writes are not usable here
      }
      if (rt->cond == bdd::kFalse) continue;
      rt->comment = fmt("{} := #{}  ; set mode", inst, value);
      result.program.synthesized.push_back(std::move(rt));
      return result.program.synthesized.back().get();
    }
    return nullptr;
  }

  const select::SelectionResult& sel_;
  const rtl::TemplateBase& base_;
  CompactOptions options_;
  util::DiagnosticSink& diags_;
  std::map<int, bool> mode_state_;
};

}  // namespace

CompactResult compact(const select::SelectionResult& sel,
                      const rtl::TemplateBase& base,
                      const CompactOptions& options,
                      util::DiagnosticSink& diags) {
  Compactor c(sel, base, options, diags);
  return c.run();
}

}  // namespace record::compact
