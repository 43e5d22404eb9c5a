#include "emit/encode.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <string_view>

#include "util/strings.h"

namespace record::emit {

using util::fmt;

std::string EncodedWord::hex() const {
  // Render MSB-first, 4 bits per nibble.
  std::ostringstream os;
  int width = static_cast<int>(bits.size());
  int nibbles = (width + 3) / 4;
  for (int n = nibbles - 1; n >= 0; --n) {
    int v = 0;
    for (int b = 3; b >= 0; --b) {
      int idx = n * 4 + b;
      v = (v << 1) |
          (idx < width && bits[static_cast<std::size_t>(idx)] ? 1 : 0);
    }
    os << "0123456789abcdef"[v];
  }
  return os.str();
}

std::uint64_t EncodedWord::to_u64() const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bits.size() && i < 64; ++i)
    if (bits[i]) v |= (1ull << i);
  return v;
}

void SuppressionTerms::collect(const compact::Word& w,
                               const rtl::TemplateBase& base) {
  const rtl::WriteConditions& wc = base.writers;
  written_.clear();
  own_.clear();
  cube_.assign(2 * wc.cube_words, 0);
  for (const select::SelectedRT* rt : w.rts) {
    written_.push_back(rt->dest);
    if (!rt->tmpl) continue;
    const auto t = static_cast<std::size_t>(rt->tmpl - base.templates.data());
    assert(t < base.templates.size());
    own_.push_back(t);
    const std::uint64_t* c = wc.writer_cube(t);
    for (std::size_t i = 0; i < cube_.size(); ++i) cube_[i] |= c[i];
  }
  undecided.clear();
  proven_noop.clear();
  auto add = [&](bdd::Ref term, const std::uint64_t* writer_cube) {
    if (wc.conflict(cube_.data(), writer_cube))
      proven_noop.push_back(term);
    else
      undecided.push_back(term);
  };
  for (std::size_t s = 0; s < wc.storages.size(); ++s) {
    const rtl::StorageWriters& sw = wc.storages[s];
    if (std::find(written_.begin(), written_.end(), sw.storage) ==
        written_.end()) {
      add(sw.not_any, wc.any_cube(s));
      continue;
    }
    for (const rtl::StorageWriters::Writer& wr : sw.each)
      if (std::find(own_.begin(), own_.end(), wr.tmpl) == own_.end())
        add(wr.not_cond, wc.writer_cube(wr.tmpl));
  }
}

EncodeResult encode(const compact::CompactedProgram& prog,
                    const rtl::TemplateBase& base,
                    util::DiagnosticSink& diags) {
  EncodeResult result;
  bdd::BddManager& mgr = *base.mgr;
  const int iw = base.instruction_width;

  // Pass 1: addresses.
  int addr = 0;
  for (const compact::CompactedRegion& r : prog.regions) {
    if (!r.label.empty()) result.assembly.labels[r.label] = addr;
    addr += static_cast<int>(r.words.size());
  }

  // The base's write conditions must cover its current templates
  // (rtl::TemplateBase::writers), one writer condition each.
#ifndef NDEBUG
  std::vector<bdd::Ref> writer_cond(base.templates.size(), bdd::kFalse);
  std::size_t covered = 0;
  for (const rtl::StorageWriters& sw : base.writers.storages)
    for (const rtl::StorageWriters::Writer& wr : sw.each) {
      writer_cond[wr.tmpl] = wr.cond;
      ++covered;
    }
  assert(covered == base.templates.size());
#endif

  SuppressionTerms terms;
  addr = 0;
  for (const compact::CompactedRegion& r : prog.regions) {
    bool first_in_region = true;
    for (const compact::Word& w : r.words) {
      EncodedWord ew;
      ew.word = &w;
      ew.address = addr++;
      if (first_in_region) {
        ew.label = r.label;
        first_in_region = false;
      }
      bdd::Ref cond = w.cond;

      // Branch-target fixup.
      if (w.has_branch) {
        auto it = result.assembly.labels.find(w.branch_target);
        if (it == result.assembly.labels.end()) {
          ++result.stats.unresolved_labels;
          diags.error({}, fmt("unresolved branch target '{}'",
                              w.branch_target));
        } else {
          for (const select::SelectedRT* rt : w.rts) {
            if (!rt->is_branch || !rt->tmpl) continue;
            if (rt->tmpl->value->kind != rtl::RTNode::Kind::Imm) continue;
            const std::vector<int>& field = rt->tmpl->value->imm_bits;
            for (std::size_t j = 0; j < field.size(); ++j) {
              int var = field[j];  // I[k] is variable k
              if (var < 0 || var >= iw) continue;
              bool bit =
                  ((static_cast<std::uint64_t>(it->second) >> j) & 1u) != 0;
              cond = mgr.land(cond, mgr.literal(var, bit));
            }
          }
        }
      }

      // Side-effect suppression. A storage the word does not write must not
      // be written by any template; a storage the word DOES write must not
      // also be written by a template outside the word's own RTs (two units
      // writing one location is a decode-time contention). The "must not
      // write" terms the cubes leave undecided are conjoined greedily in
      // one locked pass, skipping any that would make the word
      // unsatisfiable. The proven no-ops would each return the condition
      // unchanged, so they count as conjoined without reaching the BDD.
#ifndef NDEBUG
      // The word cube rests on this (SuppressionTerms). A true implication
      // creates no node: every cofactor of it is TRUE.
      for (const select::SelectedRT* rt : w.rts)
        if (rt->tmpl)
          assert(mgr.implies(
              w.cond, writer_cond[static_cast<std::size_t>(
                          rt->tmpl - base.templates.data())]));
#endif
      terms.collect(w, base);
      std::size_t taken = 0;
      cond = mgr.constrain(cond, terms.undecided, &taken);
      // constrain never makes a satisfiable condition FALSE. A FALSE one
      // (from its RTs or the branch fixup) takes no term, not even a no-op.
      const std::size_t noop =
          cond == bdd::kFalse ? 0 : terms.proven_noop.size();
      result.stats.suppressed += taken + noop;
      result.stats.proven_noop += noop;
      result.stats.unsuppressible += terms.undecided.size() - taken +
                                     terms.proven_noop.size() - noop;

      if (cond == bdd::kFalse) {
        diags.error({}, "instruction word condition unsatisfiable after "
                        "encoding fixups");
        cond = w.cond;  // fall back to the raw condition
      }

      ew.bits.assign(static_cast<std::size_t>(iw), false);
      if (auto sat = mgr.any_sat(cond)) {
        for (const auto& [var, val] : *sat)
          if (var < iw)  // an instruction bit: I[k] is variable k
            ew.bits[static_cast<std::size_t>(var)] = val;
      }
      result.assembly.words.push_back(std::move(ew));
    }
  }
  return result;
}

}  // namespace record::emit
