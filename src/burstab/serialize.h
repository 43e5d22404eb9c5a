// Binary (de)serialisation for retargeting artifacts: tree grammars and RT
// template bases (including BDD execution conditions).
//
// The format is a fixed-width little-endian byte stream — no framing library,
// no versioned schema evolution; a format-version word plus a content hash of
// the producing HDL model and options guard against stale or foreign blobs
// (see cache.h). Readers never trust lengths: every decode checks bounds and
// flips a sticky failure flag that callers test once at the end.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "grammar/grammar.h"
#include "rtl/template.h"

namespace record::burstab {

/// FNV-1a 64-bit content hash.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t seed = 14695981039346656037ull);

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(std::string_view s);
  void raw(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }
  void append_to(std::string& out) const { out += buf_; }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes, std::size_t offset = 0)
      : bytes_(bytes), pos_(offset) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  void fail() { failed_ = true; }

 private:
  [[nodiscard]] bool take(std::size_t n);

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// --- tree grammars ----------------------------------------------------------

void write_grammar(ByteWriter& w, const grammar::TreeGrammar& g);
[[nodiscard]] bool read_grammar(ByteReader& r, grammar::TreeGrammar& g);

/// Canonical serialised form of the grammar, hashed; identifies a grammar
/// across processes (a cold and a cache-loaded grammar hash alike).
[[nodiscard]] std::uint64_t grammar_fingerprint(const grammar::TreeGrammar& g);

// --- RT template bases ------------------------------------------------------

void write_template_base(ByteWriter& w, const rtl::TemplateBase& base);
/// Reconstructs the base including a fresh BddManager holding all execution
/// conditions. Returns false (base unspecified) on malformed input.
[[nodiscard]] bool read_template_base(ByteReader& r, rtl::TemplateBase& base);

}  // namespace record::burstab
