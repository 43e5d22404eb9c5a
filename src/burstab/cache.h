// Persistent target cache: retargeting artifacts keyed by a content hash of
// the HDL processor model and the retargeting options.
//
// The paper's Table 3 pays the full HDL -> netlist -> ISE -> extension ->
// grammar pipeline on every retarget. For an unchanged model that work is
// pure recomputation, so the cache serialises what the pipeline derives —
// processor name, extended RT template base (with BDD execution
// conditions), tree grammar and phase statistics — into one binary blob per
// key under a cache directory (default: <system temp>/record-target-cache).
// A warm Record::retarget then reduces to one file read plus
// deserialisation. BURS state tables are not stored: they are a memo that
// fills as subjects are labelled, so a warm target gets fresh, empty tables
// over the loaded grammar, exactly like a cold one.
//
// Corruption safety: the blob header carries an FNV-1a checksum of the
// payload; a truncated, torn or bit-flipped entry fails load() (a cache
// miss), and the caller falls back to a clean pipeline rebuild which
// re-stores the entry.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "burstab/tables.h"
#include "grammar/build.h"
#include "grammar/grammar.h"
#include "ise/extract.h"
#include "rtl/extend.h"
#include "rtl/template.h"

namespace record::burstab {

/// Everything the cache stores for one (model, options) key.
struct TargetArtifacts {
  std::string processor;
  rtl::TemplateBase base;
  grammar::TreeGrammar grammar;
  /// Fresh, empty tables over `grammar`; null if built without tables.
  std::shared_ptr<TargetTables> tables;
  ise::ExtractStats extract_stats;
  rtl::ExtendStats extend_stats;
  grammar::BuildStats grammar_stats;
};

/// Non-owning view for store() so callers need not reassemble ownership.
struct TargetArtifactsView {
  const std::string* processor = nullptr;
  const rtl::TemplateBase* base = nullptr;
  const grammar::TreeGrammar* grammar = nullptr;
  /// Optional. Only whether it is set is stored, never its contents.
  const TargetTables* tables = nullptr;
  const ise::ExtractStats* extract_stats = nullptr;
  const rtl::ExtendStats* extend_stats = nullptr;
  const grammar::BuildStats* grammar_stats = nullptr;
};

/// Thread safety: a TargetCache holds no mutable state; load() and store()
/// may run from any number of threads and processes over the same directory.
/// store() writes to a unique temp file (pid + per-process sequence) and
/// atomically rename()s it into place, so concurrent writers of one key race
/// benignly (last rename wins, both blobs identical) and readers never see a
/// torn blob.
class TargetCache {
 public:
  /// `dir` empty selects default_dir(). The directory is created lazily on
  /// the first store().
  explicit TargetCache(std::string dir = {});

  /// <system temp>/record-target-cache
  [[nodiscard]] static std::string default_dir();

  /// Content hash for a retarget request: the HDL source plus a canonical
  /// rendering of every option that shapes the artifacts.
  [[nodiscard]] static std::uint64_t key_of(std::string_view hdl_source,
                                            std::string_view options_digest);

  /// The loaded artifacts are complete: the base's write conditions
  /// (rtl::TemplateBase::writers) are rebuilt from the templates, and the
  /// tables, if the entry was built with them, are constructed empty over
  /// the loaded grammar.
  [[nodiscard]] std::optional<TargetArtifacts> load(std::uint64_t key) const;

  /// Serialises and atomically publishes (write + rename) the artifacts.
  bool store(std::uint64_t key, const TargetArtifactsView& artifacts) const;

  /// Path of the blob for `key` (exists or not).
  [[nodiscard]] std::string entry_path(std::uint64_t key) const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

}  // namespace record::burstab
