#include "rtl/vars.h"

#include <array>
#include <utility>

namespace record::rtl {

namespace {

/// Name prefixes of the opaque origins, indexed by Var::Opaque.
constexpr std::array<std::string_view, 6> kOpaquePrefix = {
    "", "S:cyc:", "S:bad:", "S:slice:", "S:opaque:", "U:"};

/// Splits "<inst>.<port>" at its first dot; false if either side is empty.
bool split_dot(std::string_view s, std::string& inst, std::string& port) {
  std::size_t dot = s.find('.');
  if (dot == std::string_view::npos || dot == 0 || dot + 1 == s.size())
    return false;
  inst = std::string(s.substr(0, dot));
  port = std::string(s.substr(dot + 1));
  return true;
}

}  // namespace

std::string var_name(const Var& v) {
  std::string stem;
  switch (v.kind) {
    case Var::Kind::kInstr:
      stem = "I";
      break;
    case Var::Kind::kMode:
      stem = "M:" + v.inst;
      break;
    case Var::Kind::kStorage:
      stem = "S:" + v.inst + "." + v.port;
      break;
    case Var::Kind::kInPort:
      stem = "S:@" + v.port;
      break;
    case Var::Kind::kOpaque:
      stem = std::string(kOpaquePrefix[static_cast<std::size_t>(v.why)]) +
             v.inst + "." + v.port;
      break;
  }
  return stem + "[" + std::to_string(v.bit) + "]";
}

std::optional<Var> parse_var_name(std::string_view name) {
  // Trailing "[<bit>]".
  if (name.empty() || name.back() != ']') return std::nullopt;
  std::size_t open = name.rfind('[');
  if (open == std::string_view::npos) return std::nullopt;
  std::string_view digits = name.substr(open + 1, name.size() - open - 2);
  if (digits.empty() || digits.size() > 9) return std::nullopt;
  int bit = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    bit = bit * 10 + (c - '0');
  }
  std::string_view stem = name.substr(0, open);

  Var v;
  auto starts = [&stem](std::string_view prefix) {
    if (stem.substr(0, prefix.size()) != prefix) return false;
    stem.remove_prefix(prefix.size());
    return true;
  };
  bool ok = false;
  if (stem == "I") {
    v = Var::instr(bit);
    ok = true;
  } else if (starts("M:")) {
    v = Var::mode(std::string(stem), bit);
    ok = !stem.empty();
  } else if (starts("S:@")) {
    v = Var::in_port(std::string(stem), bit);
    ok = !stem.empty();
  } else {
    Var::Opaque why = Var::Opaque::kNone;
    for (std::size_t i = 1; i < kOpaquePrefix.size(); ++i)
      if (starts(kOpaquePrefix[i])) {
        why = static_cast<Var::Opaque>(i);
        break;
      }
    if (why != Var::Opaque::kNone) {
      v = Var::opaque(why, {}, {}, bit);
      ok = split_dot(stem, v.inst, v.port);
    } else if (starts("S:")) {
      v = Var::storage({}, {}, bit);
      ok = split_dot(stem, v.inst, v.port);
    }
  }
  // The round trip rejects what the fields cannot spell back exactly
  // (e.g. leading zeros in the bit index).
  if (!ok || var_name(v) != name) return std::nullopt;
  return v;
}

int VarTable::add(bdd::BddManager& mgr, Var v) {
  int index = mgr.new_var(var_name(v));
  if (v.kind == Var::Kind::kMode) modes_[{v.inst, v.bit}] = index;
  vars_.push_back(std::move(v));
  return index;
}

int VarTable::mode_var(std::string_view inst, int bit) const {
  auto it = modes_.find({std::string(inst), bit});
  return it == modes_.end() ? -1 : it->second;
}

bool VarTable::instr_bits_lead(int width) const {
  if (width < 0 || width > size()) return false;
  for (int v = 0; v < size(); ++v) {
    const Var& var = (*this)[v];
    if ((var.kind == Var::Kind::kInstr) != (v < width)) return false;
    if (var.kind == Var::Kind::kInstr && var.bit != v) return false;
  }
  return true;
}

}  // namespace record::rtl
