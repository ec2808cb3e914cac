#include "service/result_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <utility>

#include "engine/result_sink.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace fpsched::service {

namespace {

/// Registered once per process; every ResultCache instance shares the
/// families (the registry dedupes by name), so the entries gauge tracks
/// live entries across all caches via add() deltas.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& inserts;
  obs::Counter& evicted;
  obs::Gauge& entries;
};

CacheMetrics& cache_metrics() {
  static CacheMetrics metrics = [] {
    auto& reg = obs::MetricsRegistry::global();
    return CacheMetrics{
        reg.counter("fpsched_result_cache_hits_total",
                    "Scenario results served from the content-addressed cache"),
        reg.counter("fpsched_result_cache_misses_total",
                    "Scenario cache lookups that required an evaluator run"),
        reg.counter("fpsched_result_cache_inserts_total",
                    "Scenario results stored in the cache (excludes restored entries)"),
        reg.counter("fpsched_result_cache_evicted_total",
                    "Scenario cache entries dropped by the max_entries FIFO"),
        reg.gauge("fpsched_result_cache_entries",
                  "Scenario results currently held in the cache"),
    };
  }();
  return metrics;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string segment_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "segment-%06zu.ndjson", index);
  return buf;
}

/// "segment-NNNNNN.ndjson" -> NNNNNN; nullopt for anything else.
std::optional<std::size_t> parse_segment_index(std::string_view name) {
  constexpr std::string_view prefix = "segment-";
  constexpr std::string_view suffix = ".ndjson";
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(name.size() - suffix.size()) != suffix) return std::nullopt;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  std::size_t index = 0;
  const auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), index);
  if (ec != std::errc() || end != digits.data() + digits.size()) return std::nullopt;
  return index;
}

/// `{"key":"<hex>","spec":"<canonical>","payload":` — the head of every
/// segment line of this key; the payload's JSON string and `}` follow.
std::string line_head(std::uint64_t hash, std::string_view canonical) {
  return "{\"key\":\"" + hex64(hash) + "\",\"spec\":" + engine::json_quote(canonical) +
         ",\"payload\":";
}

/// Decodes the JSON string literal (as json_quote writes it) starting at
/// text[pos] and advances pos past it; false when malformed.
bool json_unquote(std::string_view text, std::size_t& pos, std::string& out) {
  if (pos >= text.size() || text[pos] != '"') return false;
  out.clear();
  for (++pos; pos < text.size(); ++pos) {
    const std::size_t special = text.find_first_of("\"\\", pos);
    if (special == std::string_view::npos) return false;
    out.append(text.substr(pos, special - pos));
    pos = special;
    if (text[pos] == '"') {
      ++pos;
      return true;
    }
    if (++pos >= text.size()) return false;
    switch (text[pos]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u': {
        // json_quote escapes control characters only: \u00XX.
        unsigned code = 0;
        if (pos + 4 >= text.size()) return false;
        const char* digits = text.data() + pos + 1;
        const auto [end, ec] = std::from_chars(digits, digits + 4, code, 16);
        if (ec != std::errc() || end != digits + 4 || code >= 0x80) return false;
        out += static_cast<char>(code);
        pos += 4;
        break;
      }
      default: return false;
    }
  }
  return false;
}

/// The payload of a line tail `"<payload>"}`; nullopt when malformed.
std::optional<std::string> decode_payload(std::string_view tail) {
  std::size_t pos = 0;
  std::string payload;
  if (!json_unquote(tail, pos, payload) || tail.substr(pos) != "}") return std::nullopt;
  return payload;
}

/// A segment line's key and the offset of its payload, validated in full:
/// the exact layout insert() writes, a spec that hashes to the key and a
/// well-formed payload. nullopt for anything else (torn writes, edits).
struct ParsedLine {
  std::uint64_t hash = 0;
  std::size_t payload_at = 0;
};

std::optional<ParsedLine> parse_line(std::string_view line) {
  constexpr std::string_view open = "{\"key\":\"";
  constexpr std::string_view spec_field = "\",\"spec\":";
  constexpr std::string_view payload_field = ",\"payload\":";
  constexpr std::size_t hex_digits = 16;
  if (line.substr(0, open.size()) != open) return std::nullopt;
  const std::string_view hex = line.substr(open.size(), hex_digits);
  ParsedLine parsed;
  const auto [end, ec] = std::from_chars(hex.data(), hex.data() + hex.size(), parsed.hash, 16);
  if (ec != std::errc() || hex != hex64(parsed.hash)) return std::nullopt;
  std::size_t pos = open.size() + hex_digits;
  if (line.substr(pos, spec_field.size()) != spec_field) return std::nullopt;
  pos += spec_field.size();
  std::string canonical;
  if (!json_unquote(line, pos, canonical) || engine::fnv1a64(canonical) != parsed.hash) {
    return std::nullopt;
  }
  if (line.substr(pos, payload_field.size()) != payload_field) return std::nullopt;
  parsed.payload_at = pos + payload_field.size();
  if (!decode_payload(line.substr(parsed.payload_at))) return std::nullopt;
  return parsed;
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t written = ::write(fd, bytes.data(), bytes.size());
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(written));
  }
  return true;
}

bool pread_all(int fd, char* out, std::size_t size, std::uint64_t offset) {
  while (size > 0) {
    const ssize_t got = ::pread(fd, out, size, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    out += got;
    size -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
  return true;
}

/// An unnamed read/write file: O_TMPFILE under $TMPDIR (never linked into
/// any directory), else std::tmpfile() (unlinked as it is created).
int open_anonymous_file() {
  std::error_code ec;
  const std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (!ec) {
    const int fd = ::open(dir.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0600);
    if (fd >= 0) return fd;
  }
  std::FILE* file = std::tmpfile();
  if (file == nullptr) return -1;
  const int fd = ::fcntl(fileno(file), F_DUPFD_CLOEXEC, 0);
  std::fclose(file);
  return fd;
}

}  // namespace

ResultCacheKey ResultCacheKey::of(const engine::ScenarioSpec& spec, EvalMath math) {
  // The math backend is appended outside canonical_spec_string: it is not
  // a spec field, but fast-math records differ in their last digits, so
  // the two backends must not share entries.
  ResultCacheKey key;
  key.canonical = engine::canonical_spec_string(spec) + " math=" + to_string(math);
  key.hash = engine::fnv1a64(key.canonical);
  return key;
}

ResultCache::ResultCache(ResultCacheOptions options) : options_(std::move(options)) {
  if (!options_.directory.empty()) {
    engine::ensure_output_directory(options_.directory);
    load_segments();
  }
}

ResultCache::~ResultCache() {
  LockGuard lock(mutex_);
  cache_metrics().entries.add(-static_cast<std::int64_t>(entries_.size()));
  for (const int fd : segments_) ::close(fd);
}

std::optional<ResultCache::Entry> ResultCache::find(std::uint64_t hash) const {
  LockGuard lock(mutex_);
  const auto it = entries_.find(hash);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> ResultCache::read_bytes(const Entry& entry, std::size_t begin,
                                                   std::size_t end) {
  if (entry.memory) return entry.memory->substr(begin, end - begin);
  std::string bytes(end - begin, '\0');
  if (!pread_all(entry.fd, bytes.data(), bytes.size(), entry.offset + begin)) return std::nullopt;
  return bytes;
}

std::optional<std::string> ResultCache::lookup(const ResultCacheKey& key) {
  // Canonical verification: the line must start with exactly the head this
  // key writes, so a 64-bit hash collision (or a line altered on disk)
  // degrades to a miss instead of serving another scenario's bytes.
  std::optional<std::string> payload;
  if (const std::optional<Entry> entry = find(key.hash)) {
    const std::string head = line_head(key.hash, key.canonical);
    if (head.size() == entry->payload_at) {
      const std::optional<std::string> line = read_bytes(*entry, 0, entry->length);
      if (line && std::string_view(*line).substr(0, head.size()) == head) {
        payload = decode_payload(std::string_view(*line).substr(head.size()));
      }
    }
  }
  (payload ? cache_metrics().hits : cache_metrics().misses).add();
  return payload;
}

bool ResultCache::probe(const ResultCacheKey& key) {
  bool hit = false;
  if (const std::optional<Entry> entry = find(key.hash)) {
    const std::string head = line_head(key.hash, key.canonical);
    if (head.size() == entry->payload_at) {
      const std::optional<std::string> read = read_bytes(*entry, 0, head.size());
      hit = read && *read == head;
    }
  }
  (hit ? cache_metrics().hits : cache_metrics().misses).add();
  return hit;
}

bool ResultCache::contains(std::uint64_t hash) const {
  LockGuard lock(mutex_);
  return entries_.find(hash) != entries_.end();
}

std::optional<std::string> ResultCache::fetch(std::uint64_t hash) const {
  const std::optional<Entry> entry = find(hash);
  if (!entry) return std::nullopt;
  const std::optional<std::string> tail =
      read_bytes(*entry, entry->payload_at, entry->length);
  if (!tail) return std::nullopt;
  return decode_payload(*tail);
}

void ResultCache::insert(const ResultCacheKey& key, std::string_view payload) {
  const std::string head = line_head(key.hash, key.canonical);
  std::string line = head + engine::json_quote(payload) + "}\n";
  ensure(line.size() <= std::numeric_limits<std::uint32_t>::max(),
         "result cache record too large");
  LockGuard lock(mutex_);
  if (entries_.find(key.hash) != entries_.end()) return;  // first write wins; immutable
  cache_metrics().inserts.add();
  index_locked(key.hash, append_locked(std::move(line), static_cast<std::uint32_t>(head.size())));
}

std::size_t ResultCache::size() const {
  LockGuard lock(mutex_);
  return entries_.size();
}

void ResultCache::index_locked(std::uint64_t hash, Entry entry) {
  if (!entries_.emplace(hash, std::move(entry)).second) return;
  insertion_order_.push_back(hash);
  auto& metrics = cache_metrics();
  metrics.entries.add(1);
  while (options_.max_entries != 0 && entries_.size() > options_.max_entries) {
    entries_.erase(insertion_order_.front());
    insertion_order_.pop_front();
    metrics.entries.add(-1);
    metrics.evicted.add();
  }
}

ResultCache::Entry ResultCache::append_locked(std::string line, std::uint32_t payload_at) {
  Entry entry;
  entry.length = static_cast<std::uint32_t>(line.size() - 1);  // without the newline
  entry.payload_at = payload_at;
  if (append_fd_ < 0) open_next_segment_locked();
  if (append_fd_ >= 0 && write_all(append_fd_, line)) {
    entry.offset = segment_bytes_;
    entry.fd = append_fd_;
    segment_bytes_ += line.size();
    if (segment_bytes_ >= options_.max_segment_bytes) append_fd_ = -1;  // rotate
    return entry;
  }
  // A failed append (disk full, directory removed) keeps the line in
  // memory rather than failing the job that produced the record: the
  // entry stays readable, so no stream replaying it is ever truncated.
  // A possibly torn segment is abandoned; the next insert opens another.
  append_fd_ = -1;
  line.pop_back();
  entry.memory = std::make_shared<const std::string>(std::move(line));
  return entry;
}

void ResultCache::open_next_segment_locked() {
  int fd = -1;
  if (options_.directory.empty()) {
    fd = open_anonymous_file();
  } else {
    const std::filesystem::path path =
        std::filesystem::path(options_.directory) / segment_name(next_segment_index_);
    ++next_segment_index_;
    fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  }
  if (fd < 0) return;
  struct stat info {};
  segments_.push_back(fd);
  append_fd_ = fd;
  segment_bytes_ = ::fstat(fd, &info) == 0 ? static_cast<std::uint64_t>(info.st_size) : 0;
}

void ResultCache::load_segments() {
  // Replay every segment in name order (zero-padded indices, so lexical
  // order is creation order; first write wins on duplicates), indexing
  // each valid line's offset — payloads stay on disk. Lines that fail to
  // parse, or whose spec does not hash back to the stored key — torn
  // tail writes, manual edits — are skipped.
  std::map<std::size_t, std::filesystem::path> segments;
  std::error_code ec;
  for (const auto& dir_entry : std::filesystem::directory_iterator(options_.directory, ec)) {
    const auto index = parse_segment_index(dir_entry.path().filename().string());
    if (index) segments.emplace(*index, dir_entry.path());
  }
  LockGuard lock(mutex_);
  for (const auto& [index, path] : segments) {
    next_segment_index_ = std::max(next_segment_index_, index + 1);
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    segments_.push_back(fd);
    std::ifstream in(path, std::ios::binary);
    std::string line;
    std::uint64_t offset = 0;
    while (std::getline(in, line)) {
      const std::uint64_t line_offset = offset;
      offset += line.size() + 1;
      if (line.size() > std::numeric_limits<std::uint32_t>::max()) continue;
      const std::optional<ParsedLine> parsed = parse_line(line);
      if (!parsed) continue;
      const std::size_t before = entries_.size();
      Entry entry;
      entry.offset = line_offset;
      entry.length = static_cast<std::uint32_t>(line.size());
      entry.payload_at = static_cast<std::uint32_t>(parsed->payload_at);
      entry.fd = fd;
      index_locked(parsed->hash, std::move(entry));
      if (entries_.size() > before) ++restored_;
    }
  }
}

}  // namespace fpsched::service
