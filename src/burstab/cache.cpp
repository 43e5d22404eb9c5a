#include "burstab/cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "burstab/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace record::burstab {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kCacheMagic = 0x52544331;  // "RTC1"
// v2: payload checksum after the key — any bit flip in the body is detected
// up front and the entry is treated as a miss (clean pipeline rebuild)
// instead of trusting structurally-plausible garbage.
// v3: tables section carries the flat-row BTR2 layout plus the frozen flag
// (warm loads land directly in the compressed lock-free mode); v2 blobs are
// a miss and rebuild cleanly.
// v4: StorageInfo records the memory cell count (simulator write-address
// bounds checks); v3 blobs are a miss and rebuild cleanly.
// v5: the tables section carries the position-independent BTR3 frozen pool.
// Entries are mmap'ed read-only and the pool is adopted zero-copy (shared
// across threads AND processes); v4 blobs are a miss and rebuild cleanly.
// v6: TemplateBase serialises branch_delay_slots (architectural branch delay
// from the HDL DELAY attribute); v5 blobs are a miss and rebuild cleanly.
// v7: the tables section is the hash tables' states + transitions in id
// order (BTR4); entries are read into memory, never mapped. v6 blobs are a
// miss and rebuild cleanly.
// v8: the tables section drops the eager-closure flag (BTR5); tables fill on
// demand only. v7 blobs are a miss and rebuild cleanly.
// v9: no tables section. Tables are a per-process memo that fills as
// subjects are labelled, so an entry keeps only the byte saying whether the
// target was built with tables, and load() constructs them empty over the
// loaded grammar. v8 blobs are a miss and rebuild cleanly.
constexpr std::uint32_t kCacheVersion = 9;

// The header: magic, version, key, checksum.
constexpr std::size_t kCacheHeaderBytes = 24;

/// Opens one cache entry read-only, retrying transient failures — EINTR /
/// EAGAIN interruptions, or an injected "burstab.cache.open" fault — up to
/// 3 attempts with jittered backoff before declaring the entry unreadable
/// (corruption-class failures like ENOENT never retry).
int open_with_retry(const std::string& path) {
  const std::uint64_t jitter_us = fnv1a(path) % 700;
  for (int attempt = 0;; ++attempt) {
    const bool injected = util::failpoint("burstab.cache.open");
    int fd = injected ? -1 : ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) return fd;
    const bool transient = injected || errno == EINTR || errno == EAGAIN;
    if (!transient || attempt >= 2) return -1;
    obs::metrics().counter("burstab.cache.transient_retry").add(1);
    ::usleep(static_cast<useconds_t>((1000u << attempt) + jitter_us));
  }
}

/// Reads the whole entry into a heap string via plain EINTR-retried
/// read(2). False if the file is missing, shorter than a header or shrinks
/// while being read.
bool read_whole_file(const std::string& path, std::string& out) {
  int fd = open_with_retry(path);
  if (fd < 0) return false;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0 ||
      static_cast<std::uint64_t>(st.st_size) < kCacheHeaderBytes) {
    ::close(fd);
    return false;
  }
  out.resize(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < out.size()) {
    ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF short of st_size (truncated) or a hard error
  }
  ::close(fd);
  return got == out.size();
}

void write_extract_stats(ByteWriter& w, const ise::ExtractStats& s) {
  w.u64(s.destinations);
  w.u64(s.raw_routes);
  w.u64(s.unsat_discarded);
  w.u64(s.duplicates);
  w.u64(s.route_stats.unsat_pruned);
  w.u64(s.route_stats.depth_pruned);
  w.u64(s.route_stats.cap_pruned);
  w.u64(s.route_stats.bus_contention_pruned);
}

void read_extract_stats(ByteReader& r, ise::ExtractStats& s) {
  s.destinations = r.u64();
  s.raw_routes = r.u64();
  s.unsat_discarded = r.u64();
  s.duplicates = r.u64();
  s.route_stats.unsat_pruned = r.u64();
  s.route_stats.depth_pruned = r.u64();
  s.route_stats.cap_pruned = r.u64();
  s.route_stats.bus_contention_pruned = r.u64();
}

void write_extend_stats(ByteWriter& w, const rtl::ExtendStats& s) {
  w.u64(s.commutative_added);
  w.u64(s.rewrite_added);
  w.u64(s.variant_capped);
}

void read_extend_stats(ByteReader& r, rtl::ExtendStats& s) {
  s.commutative_added = r.u64();
  s.rewrite_added = r.u64();
  s.variant_capped = r.u64();
}

void write_build_stats(ByteWriter& w, const grammar::BuildStats& s) {
  w.u64(s.start_rules);
  w.u64(s.rt_rules);
  w.u64(s.stop_rules);
  w.u64(s.chain_rules);
  w.u64(s.self_moves_skipped);
  w.u64(s.low_slice_variants);
}

void read_build_stats(ByteReader& r, grammar::BuildStats& s) {
  s.start_rules = r.u64();
  s.rt_rules = r.u64();
  s.stop_rules = r.u64();
  s.chain_rules = r.u64();
  s.self_moves_skipped = r.u64();
  s.low_slice_variants = r.u64();
}

}  // namespace

TargetCache::TargetCache(std::string dir)
    : dir_(dir.empty() ? default_dir() : std::move(dir)) {}

std::string TargetCache::default_dir() {
  std::error_code ec;
  fs::path tmp = fs::temp_directory_path(ec);
  if (ec) tmp = ".";
  return (tmp / "record-target-cache").string();
}

std::uint64_t TargetCache::key_of(std::string_view hdl_source,
                                  std::string_view options_digest) {
  std::uint64_t h = fnv1a(hdl_source);
  return fnv1a(options_digest, h);
}

std::string TargetCache::entry_path(std::uint64_t key) const {
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.rtc",
                static_cast<unsigned long long>(key));
  return (fs::path(dir_) / name).string();
}

std::optional<TargetArtifacts> TargetCache::load(std::uint64_t key) const {
  OBS_SPAN("burstab.cache.load");
  std::string blob;
  if (!read_whole_file(entry_path(key), blob)) {
    obs::metrics().counter("burstab.cache.miss").add(1);
    return std::nullopt;
  }

  // A structurally unusable blob (stale version, torn write, corruption, a
  // section that fails to parse) is a miss that rebuilds cleanly, but it is
  // counted separately: a rejection rate says something a cold miss does
  // not.
  auto reject = [] {
    obs::metrics().counter("burstab.cache.rejected").add(1);
    return std::nullopt;
  };
  if (util::failpoint("burstab.cache.read")) return reject();
  ByteReader r(blob);
  if (r.u32() != kCacheMagic || r.u32() != kCacheVersion) return reject();
  if (r.u64() != key) return reject();
  std::uint64_t checksum = r.u64();
  if (!r.ok() || checksum != fnv1a(blob.substr(r.pos())))
    return reject();  // torn or corrupted payload -> rebuild

  TargetArtifacts a;
  a.processor = r.str();
  read_extract_stats(r, a.extract_stats);
  read_extend_stats(r, a.extend_stats);
  read_build_stats(r, a.grammar_stats);
  if (!read_template_base(r, a.base)) return reject();
  a.base.writers = rtl::write_conditions(a.base);
  if (!read_grammar(r, a.grammar)) return reject();
  const std::uint8_t has_tables = r.u8();
  if (!r.ok() || has_tables > 1 || r.pos() != blob.size()) return reject();
  if (has_tables) a.tables = std::make_shared<TargetTables>(a.grammar);
  obs::metrics().counter("burstab.cache.hit").add(1);
  return a;
}

bool TargetCache::store(std::uint64_t key,
                        const TargetArtifactsView& artifacts) const {
  OBS_SPAN("burstab.cache.store");
  obs::metrics().counter("burstab.cache.store").add(1);
  if (util::failpoint("burstab.cache.write")) return false;
  if (!artifacts.processor || !artifacts.base || !artifacts.grammar)
    return false;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return false;

  ByteWriter w;
  w.str(*artifacts.processor);
  static const ise::ExtractStats kNoExtract;
  static const rtl::ExtendStats kNoExtend;
  static const grammar::BuildStats kNoBuild;
  write_extract_stats(
      w, artifacts.extract_stats ? *artifacts.extract_stats : kNoExtract);
  write_extend_stats(
      w, artifacts.extend_stats ? *artifacts.extend_stats : kNoExtend);
  write_build_stats(
      w, artifacts.grammar_stats ? *artifacts.grammar_stats : kNoBuild);
  write_template_base(w, *artifacts.base);
  write_grammar(w, *artifacts.grammar);
  w.u8(artifacts.tables ? 1 : 0);
  std::string payload = w.take();

  ByteWriter header;
  header.u32(kCacheMagic);
  header.u32(kCacheVersion);
  header.u64(key);
  header.u64(fnv1a(payload));
  std::string blob = header.take() + payload;

  // Unique temp name per process AND per thread/store: two threads (or
  // processes) retargeting the same model concurrently each write their own
  // temp file, and the atomic rename() below guarantees readers only ever
  // observe complete blobs — never a torn write.
  static std::atomic<std::uint64_t> store_seq{0};
  std::string final_path = entry_path(key);
  std::string tmp_path =
      util::fmt("{}.tmp-{}-{}", final_path, static_cast<unsigned>(::getpid()),
                store_seq.fetch_add(1, std::memory_order_relaxed));
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  // close() BEFORE checking: the stream is buffered, so a short write (e.g.
  // ENOSPC) often only surfaces when the buffer is flushed at close. Checking
  // `out` and then letting the destructor flush would publish a truncated
  // blob via the rename below.
  out.close();
  if (out.fail()) {
    fs::remove(tmp_path, ec);
    return false;
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return false;
  }
  return true;
}

}  // namespace record::burstab
