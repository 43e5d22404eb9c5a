// Register-transfer templates: the behavioural processor view (paper sec. 2).
//
// An RT template is one primitive processor operation `dest := exp` executable
// in a single machine cycle, represented as a tree pattern plus a BDD
// execution condition over instruction-word / mode-register / status bits.
// The template base is what instruction-set extraction produces and what tree
// grammar construction consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.h"
#include "hdl/ast.h"
#include "rtl/vars.h"

namespace record::rtl {

/// Operator signature: hardware op kind (+ custom name) qualified by result
/// bit-width. Width qualification keeps 16-bit and 8-bit adders distinct
/// during pattern matching.
struct OpSig {
  hdl::OpKind kind = hdl::OpKind::Add;
  std::string custom;  // OpKind::Custom only
  int width = 0;

  /// Stable terminal name, e.g. "+.16", "RND.16", "bits31_16.16".
  [[nodiscard]] std::string name() const;

  friend bool operator==(const OpSig&, const OpSig&) = default;
};

/// Canonical operator signature for a bit-slice used as data (e.g. storing
/// the high accumulator half). Shared by route enumeration and IR lowering
/// so that patterns and subjects agree on the name.
[[nodiscard]] OpSig slice_op_sig(int msb, int lsb);

struct RTNode;
using RTNodePtr = std::unique_ptr<RTNode>;

/// Node of an RT template tree.
struct RTNode {
  enum class Kind : std::uint8_t {
    Op,         // operator with children
    RegRead,    // read of a register / mode register (leaf)
    MemLoad,    // memory read; child 0 = address tree
    PortIn,     // primary processor input port (leaf)
    Imm,        // instruction-word immediate field (leaf)
    HardConst,  // hardwired constant (leaf)
  };

  Kind kind = Kind::HardConst;
  OpSig op;                 // Op
  std::string name;         // RegRead / MemLoad / PortIn: instance/port name
  int width = 0;            // result width in bits
  std::int64_t value = 0;   // HardConst
  std::vector<int> imm_bits;  // Imm: instruction-word bit positions (lsb first)
  std::vector<RTNodePtr> children;

  [[nodiscard]] RTNodePtr clone() const;
};

[[nodiscard]] RTNodePtr make_op(OpSig sig, std::vector<RTNodePtr> children);
[[nodiscard]] RTNodePtr make_reg_read(std::string name, int width);
[[nodiscard]] RTNodePtr make_mem_load(std::string mem, int width,
                                      RTNodePtr addr);
[[nodiscard]] RTNodePtr make_port_in(std::string port, int width);
[[nodiscard]] RTNodePtr make_imm(std::vector<int> bits);
[[nodiscard]] RTNodePtr make_hard_const(std::int64_t value, int width);

/// Canonical textual form; equal trees have equal strings (used for
/// deduplication and in tests).
[[nodiscard]] std::string to_string(const RTNode& n);

[[nodiscard]] bool equal(const RTNode& a, const RTNode& b);

/// Number of nodes in the tree.
[[nodiscard]] std::size_t tree_size(const RTNode& n);

/// Destination categories of an RT.
enum class DestKind : std::uint8_t { Register, ModeReg, Memory, ProcOut };

[[nodiscard]] std::string_view to_string(DestKind k);

struct RTTemplate {
  int id = -1;
  DestKind dest_kind = DestKind::Register;
  std::string dest;   // instance name (Register/ModeReg/Memory) or port name
  int dest_width = 0;
  RTNodePtr addr;     // Memory destinations: address tree; null otherwise
  RTNodePtr value;    // the transferred value
  bdd::Ref cond = bdd::kTrue;  // execution condition (in the base's manager)
  std::string provenance;      // "ise", "commute(<id>)", "rewrite:<rule>(<id>)"

  [[nodiscard]] RTTemplate clone_shallow_meta() const;
  /// Canonical "dest := tree [addr]" dump including nothing about conditions.
  [[nodiscard]] std::string signature() const;
  /// Human-readable one-liner including the condition (for listings).
  [[nodiscard]] std::string pretty(const bdd::BddManager& mgr) const;
};

/// A storable location known to the grammar (the SEQ set) or a primary port
/// (the PORTS set).
struct StorageInfo {
  std::string name;
  DestKind kind = DestKind::Register;  // ProcOut entries are write-only ports
  int width = 0;
  bool readable = true;  // ProcOut ports are not readable
  /// Memory storages: addressable cells (the model's SIZE); 0 otherwise.
  /// The RT-level simulator bounds-checks decoded write addresses with it.
  std::int64_t cells = 0;
};

struct PortInInfo {
  std::string name;
  int width = 0;
};

/// Which templates can write one storage, as instruction-bit conditions
/// (every other variable existentially quantified out), with negations
/// precomputed. The encoder's side-effect suppression reads these for
/// every word; see write_conditions.
struct StorageWriters {
  struct Writer {
    std::size_t tmpl = 0;  // index into TemplateBase::templates
    bdd::Ref cond = bdd::kFalse;
    bdd::Ref not_cond = bdd::kTrue;
  };
  std::string storage;
  bdd::Ref any = bdd::kFalse;  // OR over `each`
  bdd::Ref not_any = bdd::kTrue;
  std::vector<Writer> each;
};

/// What a template's own condition reads, beyond instruction bits.
struct TemplateFacts {
  bool reads_mode = false;     // some Var::Kind::kMode variable
  bool reads_dynamic = false;  // some variable neither kInstr nor kMode

  friend bool operator==(const TemplateFacts&,
                         const TemplateFacts&) = default;
};

/// The per-target facts about template conditions, computed once when the
/// base is complete: the writers of every storage, the instruction-bit
/// literals each of their conditions implies ("cubes"), and what each
/// template's condition reads (TemplateFacts).
///
/// Two conditions whose cubes fix some instruction bit to opposite values
/// are disjoint. The encoder uses that to decide most suppression terms
/// without the BDD (emit::SuppressionTerms), and compaction to reject most
/// incompatible RT pairs without conjoining them. A template's writer cube
/// is also the cube of its own condition: quantifying the other variables
/// out keeps every instruction literal the condition implies.
///
/// The facts let compaction skip mode handling on every word none of whose
/// templates reads a mode bit, and let selection pick conditional and
/// unconditional branch templates without walking their supports.
struct WriteConditions {
  std::vector<StorageWriters> storages;  // sorted by storage name
  std::vector<TemplateFacts> facts;      // one per template, by index
  /// 64-bit words per literal bitset: ceil(instruction_width / 64).
  std::size_t cube_words = 0;
  /// Flat cube table, one slot per condition: storages[s].any at slot s,
  /// then the writer condition of template t at slot storages.size() + t.
  /// A slot is cube_words positive words (bit k set: the condition implies
  /// I[k]) followed by cube_words negative ones (it implies !I[k]).
  std::vector<std::uint64_t> cubes;

  [[nodiscard]] const std::uint64_t* any_cube(std::size_t storage) const {
    return cubes.data() + 2 * cube_words * storage;
  }
  [[nodiscard]] const std::uint64_t* writer_cube(std::size_t tmpl) const {
    return any_cube(storages.size() + tmpl);
  }
  /// True if cubes `a` and `b` fix some bit to opposite values, which
  /// proves their conditions disjoint.
  [[nodiscard]] bool conflict(const std::uint64_t* a,
                              const std::uint64_t* b) const {
    for (std::size_t i = 0; i < cube_words; ++i)
      if ((a[i] & b[cube_words + i]) | (a[cube_words + i] & b[i]))
        return true;
    return false;
  }
};

/// The RT template base: everything grammar construction needs.
/// Owns the BDD manager that all template conditions live in.
///
/// Thread safety: a fully built base is immutable and may be shared across
/// concurrent compile jobs. The owned BddManager is internally synchronised
/// (see bdd/bdd.h), so condition manipulation from several threads is safe;
/// mutating the base itself (add_unique, editing templates) is not and must
/// stay confined to the single-threaded retargeting pipeline.
struct TemplateBase {
  std::shared_ptr<bdd::BddManager> mgr;
  /// What each variable of `mgr` stands for, one entry per variable.
  /// Variables 0..instruction_width-1 are the instruction bits: I[k] is
  /// variable k (extraction registers them first, on a fresh manager; the
  /// target cache rejects a blob where they are not), so the variable of
  /// instruction bit k is k and needs no lookup.
  VarTable vars;
  std::vector<RTTemplate> templates;
  std::vector<StorageInfo> storage;   // SEQ ∪ writable ports (dest domain)
  std::vector<PortInInfo> in_ports;   // primary inputs (readable terminals)
  int instruction_width = 0;
  /// Architectural branch delay slots: a write to the program counter lands
  /// this many instruction words late (HDL `DELAY n` on the PC register).
  int branch_delay_slots = 0;
  /// Per-storage write conditions, their cubes and the per-template facts
  /// (write_conditions).
  /// Derived data, filled by the last step that changes the base:
  /// extend_template_base on a cold retarget, the target cache on a load;
  /// neither is stored in the cache. The templates and their conditions
  /// must not change afterwards; the encoder reads these instead of the
  /// templates, and debug builds check that they cover every template.
  WriteConditions writers;

  [[nodiscard]] std::size_t size() const { return templates.size(); }
  [[nodiscard]] const StorageInfo* find_storage(std::string_view name) const;

  /// Appends a template (assigning the next id). If a template with the
  /// same transfer signature already exists, its execution condition is
  /// widened by OR (alternative encodings of the same RT) and false is
  /// returned.
  bool add_unique(RTTemplate t);

 private:
  std::unordered_map<std::string, std::size_t> signature_index_;
};

/// "Could template fire?" conditions per storage, with data-dependent AND
/// mode-register variables existentially quantified (pessimistic). Mode
/// vars must go too: suppression is applied by constraining instruction
/// bits, and a don't-care slot whose function comes from a mode register
/// would otherwise be "suppressed" by any_sat choosing a fantasy mode the
/// running machine is not in — the slot then fires at runtime and silently
/// clobbers its destination. `any` is the OR over all writers of the
/// storage; `each` keeps the per-template conditions so a word that writes
/// a storage can still forbid the *other* writers of that storage
/// (required on multi-issue machines, where a second slot's don't-care
/// bits could otherwise be filled to write the same location — a
/// decode-time write contention). Also computes the cube of every `any` and
/// every writer condition (BddManager::implied, O(templates) walks that
/// create no node). Quantifies every template condition, so it runs once
/// per target, when the base is complete.
[[nodiscard]] WriteConditions write_conditions(const TemplateBase& base);

}  // namespace record::rtl
