#include "ise/extract.h"

#include <cassert>

#include "ise/control.h"
#include "util/strings.h"

namespace record::ise {

using hdl::ModuleKind;
using netlist::InstanceId;

namespace {

/// Data width of a memory: its write-data port if present, else its first
/// read port.
int memory_data_width(const hdl::ModuleDecl& m) {
  // The CELL write transfer's rhs is a port reference (possibly nested in
  // ops); using the first IN port that is not an address is fragile, so take
  // the width of the first OUT port, falling back to the widest IN port.
  for (const hdl::PortDecl& p : m.ports)
    if (p.cls == hdl::PortClass::Out) return p.range.width();
  int w = 1;
  for (const hdl::PortDecl& p : m.ports) w = std::max(w, p.range.width());
  return w;
}

class Extractor {
 public:
  Extractor(const netlist::Netlist& nl, const ExtractOptions& options,
            util::DiagnosticSink& diags)
      : nl_(nl),
        options_(options),
        diags_(diags),
        mgr_(std::make_shared<bdd::BddManager>()),
        ctrl_(nl, *mgr_, vars_, diags),
        routes_(nl, ctrl_, *mgr_, options.limits, options.prune_unsat,
                diags) {}

  ExtractResult run() {
    ExtractResult result;
    result.base.mgr = mgr_;
    result.base.instruction_width = nl_.instruction_width();
    collect_storage(result.base);

    for (InstanceId id : nl_.sequential_instances()) {
      const netlist::Instance& in = nl_.instance(id);
      if (in.kind() == ModuleKind::Memory)
        extract_memory(id, result);
      else
        extract_register(id, result);
    }
    if (options_.include_proc_out) extract_proc_outs(result);
    result.stats.route_stats = routes_.stats();
    result.base.vars = std::move(vars_);
    assert(result.base.vars.instr_bits_lead(result.base.instruction_width));
    return result;
  }

 private:
  void collect_storage(rtl::TemplateBase& base) {
    for (InstanceId id : nl_.sequential_instances()) {
      const netlist::Instance& in = nl_.instance(id);
      rtl::StorageInfo s;
      s.name = in.name;
      switch (in.kind()) {
        case ModuleKind::Register:
          s.kind = rtl::DestKind::Register;
          break;
        case ModuleKind::ModeReg:
          s.kind = rtl::DestKind::ModeReg;
          break;
        case ModuleKind::Memory:
          s.kind = rtl::DestKind::Memory;
          break;
        default:
          continue;
      }
      if (in.kind() == ModuleKind::Memory) {
        s.width = memory_data_width(*in.decl);
        s.cells = in.decl->mem_size;
      } else {
        for (const hdl::PortDecl& p : in.decl->ports)
          if (p.cls == hdl::PortClass::Out) s.width = p.range.width();
      }
      s.readable = true;
      base.storage.push_back(std::move(s));
      if (in.kind() == ModuleKind::Register && in.name == "PC")
        base.branch_delay_slots = in.decl->write_delay;
    }
    for (const hdl::ProcPortDecl& p : nl_.proc_ports()) {
      if (p.is_input) {
        base.in_ports.push_back(rtl::PortInInfo{p.name, p.range.width()});
      } else {
        rtl::StorageInfo s;
        s.name = p.name;
        s.kind = rtl::DestKind::ProcOut;
        s.width = p.range.width();
        s.readable = false;
        base.storage.push_back(std::move(s));
      }
    }
  }

  void add_templates(std::vector<Route> routes, rtl::DestKind kind,
                     const std::string& dest, int dest_width,
                     rtl::RTNodePtr addr, ExtractResult& result) {
    result.stats.raw_routes += routes.size();
    for (Route& r : routes) {
      if (options_.prune_unsat && r.cond == bdd::kFalse) {
        ++result.stats.unsat_discarded;
        continue;
      }
      rtl::RTTemplate t;
      t.dest_kind = kind;
      t.dest = dest;
      t.dest_width = dest_width;
      t.addr = addr ? addr->clone() : nullptr;
      t.value = std::move(r.tree);
      t.cond = r.cond;
      t.provenance = "ise";
      if (!result.base.add_unique(std::move(t))) ++result.stats.duplicates;
    }
  }

  void extract_register(InstanceId id, ExtractResult& result) {
    const netlist::Instance& in = nl_.instance(id);
    rtl::DestKind kind = in.kind() == ModuleKind::ModeReg
                             ? rtl::DestKind::ModeReg
                             : rtl::DestKind::Register;
    int width = 0;
    for (const hdl::PortDecl& p : in.decl->ports)
      if (p.cls == hdl::PortClass::Out) width = p.range.width();

    for (const hdl::Transfer& t : in.decl->transfers) {
      if (t.is_cell_write()) continue;
      ++result.stats.destinations;
      bdd::Ref cond =
          t.guard ? ctrl_.guard_bdd(id, *t.guard) : bdd::kTrue;
      if (options_.prune_unsat && cond == bdd::kFalse) {
        ++result.stats.unsat_discarded;
        continue;
      }
      std::vector<Route> routes = routes_.enumerate_expr(
          id, *t.rhs, width, cond, options_.limits.max_depth);
      add_templates(std::move(routes), kind, in.name, width, nullptr, result);
    }
  }

  void extract_memory(InstanceId id, ExtractResult& result) {
    const netlist::Instance& in = nl_.instance(id);
    int data_width = memory_data_width(*in.decl);
    for (const hdl::Transfer& t : in.decl->transfers) {
      if (!t.is_cell_write()) continue;
      ++result.stats.destinations;
      bdd::Ref cond =
          t.guard ? ctrl_.guard_bdd(id, *t.guard) : bdd::kTrue;
      if (options_.prune_unsat && cond == bdd::kFalse) {
        ++result.stats.unsat_discarded;
        continue;
      }
      int addr_width = 16;
      if (t.cell_addr->kind == hdl::Expr::Kind::PortRef) {
        const hdl::PortDecl* p = in.decl->find_port(t.cell_addr->name);
        if (p) addr_width = p->range.width();
      }
      std::vector<Route> addr_routes = routes_.enumerate_expr(
          id, *t.cell_addr, addr_width, cond, options_.limits.max_depth);
      for (Route& a : addr_routes) {
        std::vector<Route> value_routes = routes_.enumerate_expr(
            id, *t.rhs, data_width, a.cond, options_.limits.max_depth);
        add_templates(std::move(value_routes), rtl::DestKind::Memory, in.name,
                      data_width, std::move(a.tree), result);
      }
    }
  }

  void extract_proc_outs(ExtractResult& result) {
    for (const hdl::ProcPortDecl& p : nl_.proc_ports()) {
      if (p.is_input) continue;
      const netlist::Driver* d = nl_.proc_out_driver(p.name);
      if (!d) {
        diags_.warning(p.loc,
                       util::fmt("primary output '{}' is undriven", p.name));
        continue;
      }
      ++result.stats.destinations;
      std::vector<Route> routes =
          routes_.enumerate_source(d->source, p.range.width(), bdd::kTrue,
                                   options_.limits.max_depth);
      if (d->source.has_slice) {
        // enumerate_source applies slices internally for every kind.
      }
      add_templates(std::move(routes), rtl::DestKind::ProcOut, p.name,
                    p.range.width(), nullptr, result);
    }
  }

  const netlist::Netlist& nl_;
  ExtractOptions options_;
  util::DiagnosticSink& diags_;
  std::shared_ptr<bdd::BddManager> mgr_;
  rtl::VarTable vars_;
  ControlAnalyzer ctrl_;
  RouteEnumerator routes_;
};

}  // namespace

ExtractResult extract(const netlist::Netlist& nl,
                      const ExtractOptions& options,
                      util::DiagnosticSink& diags) {
  Extractor ex(nl, options, diags);
  return ex.run();
}

}  // namespace record::ise
