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
  // (rtl::TemplateBase::writers).
#ifndef NDEBUG
  std::size_t covered = 0;
  for (const rtl::StorageWriters& sw : base.writers)
    covered += sw.each.size();
  assert(covered == base.templates.size());
#endif

  std::vector<std::string_view> written;
  std::vector<const rtl::RTTemplate*> own;
  std::vector<bdd::Ref> terms;
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
              int var = mgr.find_var(fmt("I[{}]", field[j]));
              if (var < 0) continue;
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
      // write" terms are conjoined greedily in one locked pass, skipping
      // any that would make the word unsatisfiable.
      written.clear();
      own.clear();
      for (const select::SelectedRT* rt : w.rts) {
        written.push_back(rt->dest);
        if (rt->tmpl) own.push_back(rt->tmpl);
      }
      terms.clear();
      for (const rtl::StorageWriters& sw : base.writers) {
        if (std::find(written.begin(), written.end(), sw.storage) ==
            written.end()) {
          terms.push_back(sw.not_any);
          continue;
        }
        for (const rtl::StorageWriters::Writer& wr : sw.each)
          if (std::find(own.begin(), own.end(), &base.templates[wr.tmpl]) ==
              own.end())
            terms.push_back(wr.not_cond);
      }
      std::size_t taken = 0;
      cond = mgr.constrain(cond, terms, &taken);
      result.stats.suppressed += taken;
      result.stats.unsuppressible += terms.size() - taken;

      if (cond == bdd::kFalse) {
        diags.error({}, "instruction word condition unsatisfiable after "
                        "encoding fixups");
        cond = w.cond;  // fall back to the raw condition
      }

      ew.bits.assign(static_cast<std::size_t>(iw), false);
      if (auto sat = mgr.any_sat(cond)) {
        for (const auto& [var, val] : *sat) {
          const std::string& n = mgr.var_name(var);
          if (n.rfind("I[", 0) == 0) {
            int k = std::stoi(n.substr(2, n.size() - 3));
            if (k >= 0 && k < iw) ew.bits[static_cast<std::size_t>(k)] = val;
          }
        }
      }
      result.assembly.words.push_back(std::move(ew));
    }
  }
  return result;
}

}  // namespace record::emit
