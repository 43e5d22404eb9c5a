#include "compact/compact.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>

#include "util/strings.h"

namespace record::compact {

using util::fmt;

std::size_t CompactedProgram::word_count() const {
  std::size_t n = 0;
  for (const CompactedRegion& r : regions) n += r.words.size();
  return n;
}

void add_implied_literals(const select::SelectedRT& rt,
                          const rtl::TemplateBase& base, std::uint64_t* cube) {
  if (!rt.tmpl) return;
  const rtl::WriteConditions& wc = base.writers;
  const std::size_t words = wc.cube_words;
  const std::uint64_t* own = wc.writer_cube(
      static_cast<std::size_t>(rt.tmpl - base.templates.data()));
  for (std::size_t i = 0; i < 2 * words; ++i) cube[i] |= own[i];
  for (const treeparse::ImmBinding& b : rt.imms)
    b.for_each_literal(base.instruction_width, [&](int var, bool one) {
      const auto k = static_cast<std::size_t>(var);
      cube[(one ? 0 : words) + k / 64] |= std::uint64_t{1} << (k % 64);
    });
}

namespace {

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
      // A branch may enter a labelled region, so what the textually
      // previous word left in the mode registers is not known there.
      if (!region.label.empty()) mode_state_.clear();
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
    // The word's cube: the instruction-bit literals its condition implies
    // (add_implied_literals of every RT in it). A candidate whose cube
    // fixes a bit the other way cannot share the word: the conjunction of
    // the two conditions is FALSE, so it is rejected without the BDD.
    const std::size_t cube_size = 2 * base_.writers.cube_words;
    word_cube_.resize(cube_size);
    rt_cube_.resize(cube_size);
    // The conjunction of the word's condition with rt's, or kFalse when
    // the two cannot share the word; an empty word takes rt's condition.
    auto join = [&](const Word& w, const select::SelectedRT& rt) {
      std::fill(rt_cube_.begin(), rt_cube_.end(), 0);
      add_implied_literals(rt, base_, rt_cube_.data());
      if (w.rts.empty()) return rt.cond;
      if (base_.writers.conflict(word_cube_.data(), rt_cube_.data())) {
        ++result.stats.pairs_cube_rejected;
        return bdd::kFalse;
      }
      ++result.stats.pairs_conjoined;
      return mgr.land(w.cond, rt.cond);
    };
    auto add = [&](Word& w, const select::SelectedRT* rt, bdd::Ref joint) {
      for (std::size_t k = 0; k < cube_size; ++k) word_cube_[k] |= rt_cube_[k];
      w.rts.push_back(rt);
      w.cond = joint;
    };

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
      std::fill(word_cube_.begin(), word_cube_.end(), 0);
      bool packed_any = false;
      // Non-branch candidates first, by descending critical-path height.
      for (std::size_t i : priority) {
        const select::SelectedRT* rt = region.rts[i];
        if (rt->is_branch || !ready(i)) continue;
        bdd::Ref joint = join(w, *rt);
        if (joint == bdd::kFalse) {
          if (w.rts.empty()) {
            // An RT whose own condition is unsatisfiable (should not happen
            // after selection) must still be placed to guarantee progress.
            diags_.warning({}, "placing RT with unsatisfiable condition");
          } else {
            ++result.stats.pairs_rejected_encoding;
            continue;
          }
        }
        add(w, rt, joint);
        place(i);
        packed_any = true;
      }
      // The branch goes last: only when everything else is in flight.
      for (std::size_t i = 0; i < n && remaining > 0; ++i) {
        const select::SelectedRT* rt = region.rts[i];
        if (!rt->is_branch || !ready(i)) continue;
        if (remaining != 1) continue;  // other RTs still unscheduled
        bdd::Ref joint = join(w, *rt);
        if (joint == bdd::kFalse) {
          ++result.stats.pairs_rejected_encoding;
          continue;
        }
        add(w, rt, joint);
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

  /// True if some RT of `w` comes from a template whose condition reads a
  /// mode bit (rtl::TemplateFacts). Otherwise the word's condition reads
  /// none either: it is the conjunction of those conditions with
  /// instruction-bit literals.
  bool reads_mode(const Word& w) const {
    for (const select::SelectedRT* rt : w.rts) {
      if (!rt->tmpl) continue;
      const auto t =
          static_cast<std::size_t>(rt->tmpl - base_.templates.data());
      if (base_.writers.facts[t].reads_mode) return true;
    }
    return false;
  }

  /// Makes the word run under the mode state its condition needs, then
  /// bakes that state into the condition. Each mode bit the condition
  /// reads keeps its known state when the condition allows it. Otherwise,
  /// or when the state is unknown, the bit gets the value the condition
  /// forces, or else one that keeps the condition satisfiable (0 first),
  /// and a mode-set word before this one writes it. The baking matters on
  /// machines where alternative encodings are OR-merged across mode
  /// settings: without it the encoder's any_sat could pick instruction
  /// bits that only decode correctly under a mode the machine is not in.
  /// A register no template can set to the needed value is an error.
  void handle_modes(Word& w, CompactedRegion& out, CompactResult& result) {
    if (!reads_mode(w)) {
      ++result.stats.words_mode_free;
      return;
    }
    ++result.stats.words_mode_checked;
    bdd::BddManager& mgr = *base_.mgr;
    std::map<std::string, std::map<int, bool>> needed;  // inst -> bit -> val
    bdd::Ref baked = w.cond;
    for (int v : mgr.support(w.cond)) {
      const rtl::Var& mode = base_.vars[v];
      if (mode.kind != rtl::Var::Kind::kMode) continue;
      auto it = mode_state_.find(v);
      if (it != mode_state_.end()) {
        const bdd::Ref kept = mgr.land(baked, mgr.literal(v, it->second));
        if (kept != bdd::kFalse) {
          baked = kept;
          continue;
        }
      }
      bdd::Ref set = mgr.land(baked, mgr.literal(v, false));
      bool val = false;
      if (set == bdd::kFalse) {
        val = true;
        set = mgr.land(baked, mgr.literal(v, true));
      }
      baked = set;
      needed[mode.inst][mode.bit] = val;
    }
    for (auto& [inst, bits] : needed) {
      // A synthesized set writes the WHOLE register, so every bit outside
      // the needed set must carry its known value or the write would
      // clobber it (needing bit 0 := 1 while bit 1 already holds 1 must
      // write 3, not 1). A bit whose state is unknown is written as 0.
      const rtl::StorageInfo* s = base_.find_storage(inst);
      const int width = s ? s->width : 0;
      for (int bit = 0; bit < width; ++bit) {
        if (bits.count(bit)) continue;
        const int var = base_.vars.mode_var(inst, bit);
        auto it = var >= 0 ? mode_state_.find(var) : mode_state_.end();
        bits[bit] = it != mode_state_.end() && it->second;
      }
      const select::SelectedRT* set_rt = synthesize_mode_set(inst, bits,
                                                             result);
      if (!set_rt) {
        // The word's encoding was chosen for a mode the machine may not
        // hold; emitting it would be a silent miscompile.
        diags_.error({}, fmt("no template to set mode register '{}' to the "
                             "mode a word needs",
                             inst));
        continue;
      }
      for (const auto& [bit, val] : bits) {
        const int var = base_.vars.mode_var(inst, bit);
        if (var >= 0) mode_state_[var] = val;
      }
      Word set;
      set.rts.push_back(set_rt);
      set.cond = set_rt->cond;
      set.is_mode_set = true;
      out.words.push_back(std::move(set));
      ++result.stats.mode_sets_inserted;
    }
    w.cond = baked;
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
        b.for_each_literal(base_.instruction_width, [&](int var, bool bit) {
          rt->cond = mgr.land(rt->cond, mgr.literal(var, bit));
        });
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
  /// Known mode-register bits (variable -> value) at the current word. A
  /// bit becomes known at a mode set and stays known up to the next
  /// labelled region.
  std::map<int, bool> mode_state_;
  std::vector<std::uint64_t> word_cube_;  // schedule_region scratch
  std::vector<std::uint64_t> rt_cube_;
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
