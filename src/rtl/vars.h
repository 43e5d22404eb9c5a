// BDD variables of a target: what each one stands for, and the one place
// their names are written and read back.
//
// Template execution conditions (paper section 2, "Analysis of control
// signals") are BDDs over instruction-word bits and mode-register bits,
// plus free dynamic signals that make e.g. condition-code-dependent
// branches expressible. Every variable is named after what it stands for:
//
//   I[k]                    instruction-word bit k
//   M:<inst>[k]             bit k of mode register <inst>
//   S:<inst>.<port>[k]      bit k of register/memory <inst>'s output <port>,
//                           read as a control signal (data-dependent)
//   S:@<port>[k]            bit k of primary input port <port>
//   S:cyc:<inst>.<port>[k]  opaque dynamic bits: a combinational cycle
//   S:bad:<inst>.<port>[k]    through <inst>.<port>, a reference to an
//   S:slice:<inst>.<n>[k]     undeclared port, an out-of-range slice,
//   S:opaque:<inst>.<n>[k]    arithmetic inside a control path (<n> numbers
//   U:<inst>.<port>[k]        them), an undriven control port
//
// The names only print conditions (BddManager::to_string / to_sop) and key
// the target cache, which stores them and rebuilds the table from them on
// load. Code that needs a variable's meaning reads its Var.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bdd/bdd.h"

namespace record::rtl {

/// What one BDD variable stands for.
struct Var {
  enum class Kind : std::uint8_t {
    kInstr,    // instruction-word bit
    kMode,     // mode-register bit
    kStorage,  // register/memory output bit read as control (dynamic)
    kInPort,   // primary input port bit (dynamic)
    kOpaque,   // unknown dynamic bit; `why` says where it came from
  };
  /// Origin of a kOpaque bit (selects its name prefix).
  enum class Opaque : std::uint8_t {
    kNone,      // not opaque
    kCycle,     // combinational cycle through <inst>.<port>
    kBadPort,   // reference to an undeclared port <inst>.<port>
    kSlice,     // slice past the end of a value, serial number <port>
    kArith,     // arithmetic inside a control path, serial number <port>
    kUndriven,  // undriven control port <inst>.<port>
  };

  Kind kind = Kind::kOpaque;
  Opaque why = Opaque::kNone;
  int bit = 0;
  std::string inst;  // kMode, kStorage, kOpaque: instance name
  std::string port;  // kStorage, kInPort, kOpaque: port name or serial

  [[nodiscard]] static Var instr(int bit) {
    return {Kind::kInstr, Opaque::kNone, bit, {}, {}};
  }
  [[nodiscard]] static Var mode(std::string inst, int bit) {
    return {Kind::kMode, Opaque::kNone, bit, std::move(inst), {}};
  }
  [[nodiscard]] static Var storage(std::string inst, std::string port,
                                   int bit) {
    return {Kind::kStorage, Opaque::kNone, bit, std::move(inst),
            std::move(port)};
  }
  [[nodiscard]] static Var in_port(std::string port, int bit) {
    return {Kind::kInPort, Opaque::kNone, bit, {}, std::move(port)};
  }
  [[nodiscard]] static Var opaque(Opaque why, std::string inst,
                                  std::string port, int bit) {
    return {Kind::kOpaque, why, bit, std::move(inst), std::move(port)};
  }

  friend auto operator<=>(const Var&, const Var&) = default;
};

/// The variable's name in the scheme above.
[[nodiscard]] std::string var_name(const Var& v);

/// Inverse of var_name; nullopt unless `name` is exactly var_name of some
/// Var (no missing or malformed bit index, no empty instance or port).
[[nodiscard]] std::optional<Var> parse_var_name(std::string_view name);

/// One entry per variable of a target's BddManager, in variable order.
class VarTable {
 public:
  /// Registers `v` as the next variable of `mgr`, named var_name(v), and
  /// returns its index. The table and `mgr` must have grown together.
  int add(bdd::BddManager& mgr, Var v);

  [[nodiscard]] const Var& operator[](int v) const {
    return vars_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] int size() const { return static_cast<int>(vars_.size()); }

  /// Variable of bit `bit` of mode register `inst`; -1 if none.
  [[nodiscard]] int mode_var(std::string_view inst, int bit) const;

  /// True iff variables 0..width-1 are I[0]..I[width-1] and no other
  /// variable is an instruction bit.
  [[nodiscard]] bool instr_bits_lead(int width) const;

  friend bool operator==(const VarTable& a, const VarTable& b) {
    return a.vars_ == b.vars_;
  }

 private:
  std::vector<Var> vars_;
  std::map<std::pair<std::string, int>, int> modes_;  // (inst, bit) -> var
};

}  // namespace record::rtl
