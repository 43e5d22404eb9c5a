// Control-signal analysis (paper section 2, "Analysis of control signals").
//
// Every module control port is traced backwards through the netlist — across
// wires, buses and random-logic decoder modules — to the primary control
// sources: the instruction word and mode registers. Signals are represented
// bit-wise as BDDs (bdd::BitVec), so arbitrary decoder logic composes
// symbolically. Guard conditions ("f = 2") then become BDDs over
// instruction-word bits, mode-register bits and free dynamic bits; every
// variable is registered through the target's rtl::VarTable, whose header
// gives the naming scheme.
//
// Unsatisfiable template conditions (encoding conflicts, bus contention) are
// pruned by the extractor using these BDDs.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "bdd/bdd.h"
#include "hdl/ast.h"
#include "netlist/netlist.h"
#include "rtl/vars.h"
#include "util/diagnostics.h"

namespace record::ise {

class ControlAnalyzer {
 public:
  /// `mgr` and `vars` must be empty: the analyzer registers the
  /// instruction bits first, so I[k] is variable k (rtl::TemplateBase).
  ControlAnalyzer(const netlist::Netlist& nl, bdd::BddManager& mgr,
                  rtl::VarTable& vars, util::DiagnosticSink& diags);

  /// Symbolic per-bit value of an instance OUT port.
  [[nodiscard]] bdd::BitVec out_port_bits(netlist::InstanceId inst,
                                          std::string_view port);

  /// Symbolic value arriving at an instance IN/CTRL port (resolves its
  /// driver; undriven ports yield fresh dynamic bits and a warning).
  [[nodiscard]] bdd::BitVec in_port_bits(netlist::InstanceId inst,
                                         std::string_view port);

  /// BDD of a module-behaviour guard evaluated in the context of `inst`.
  [[nodiscard]] bdd::Ref guard_bdd(netlist::InstanceId inst,
                                   const hdl::Cond& guard);

  /// BDD of a structural guard (bus-driver WHEN clause; references are
  /// `instance.port`).
  [[nodiscard]] bdd::Ref structural_guard_bdd(const hdl::Cond& guard);

  /// Index of the BDD variable for instruction-word bit k.
  [[nodiscard]] static int instruction_var(int k) { return k; }

  [[nodiscard]] bdd::BddManager& manager() { return mgr_; }

 private:
  [[nodiscard]] bdd::BitVec source_bits(const netlist::NetSource& src,
                                        int width_hint);
  /// Fresh variables for bits 0..width-1 of `stem` (given as bit 0),
  /// memoised on it.
  [[nodiscard]] bdd::BitVec dynamic_bits(rtl::Var stem, int width);
  [[nodiscard]] bdd::BitVec combinational_out_bits(netlist::InstanceId inst,
                                                   std::string_view port);
  [[nodiscard]] bdd::BitVec expr_bits(netlist::InstanceId inst,
                                      const hdl::Expr& e, int width_hint);
  [[nodiscard]] static bdd::BitVec apply_slice(const bdd::BitVec& bits,
                                               bool has_slice,
                                               hdl::BitRange slice);

  const netlist::Netlist& nl_;
  bdd::BddManager& mgr_;
  rtl::VarTable& vars_;
  util::DiagnosticSink& diags_;

  std::unordered_map<std::string, bdd::BitVec> out_memo_;
  std::map<rtl::Var, bdd::BitVec> dynamic_memo_;
  std::unordered_set<std::string> in_progress_;
  std::unordered_set<std::string> warned_;
  int opaque_counter_ = 0;
};

}  // namespace record::ise
