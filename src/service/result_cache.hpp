// Content-addressed scenario result cache for the HTTP service.
//
// Overlapping POST /runs traffic — many clients re-running the paper's
// figures with shared sub-grids — recomputes identical scenarios from
// scratch. This cache maps a ResultCacheKey (the canonical serialization
// of the FULL ScenarioSpec plus the evaluator math backend — a strict
// superset of the engine's InstanceKey, which deliberately omits the
// failure model, cost model and policy) to the finished per-scenario
// NDJSON record body (record_body_json), so a repeat scenario replays its
// bytes instead of re-running the evaluator. Because every record is a
// pure function of (spec, math backend), cached and recomputed responses
// are byte-identical by construction.
//
// Storage: every record lives in an append-only NDJSON segment file, one
// line per entry; RAM holds only an index (hash -> segment, offset,
// length), so resident memory does not grow with the bytes served. With
// a directory configured the segments are `segment-NNNNNN.ndjson` files
// (a new segment per process start, rotated at max_segment_bytes) and the
// ctor rebuilds the index by replaying every segment — so the cache
// survives server restarts. Malformed lines (torn tail writes after a
// crash) are skipped, not fatal. Without a directory the segments are
// anonymous temporary files (O_TMPFILE under $TMPDIR, else
// std::tmpfile()): no name in any directory, gone with the process — the
// same code path, minus the restart. An entry whose append fails (disk
// full, directory removed) keeps its line in memory instead, so every
// indexed entry stays readable.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/math_kernels.hpp"
#include "engine/scenario.hpp"
#include "support/sync.hpp"

namespace fpsched::service {

/// The identity of one cached record body: the canonical spec text (plus
/// the math backend, which changes record bytes) and its 64-bit FNV-1a
/// hash. The hash indexes; the canonical string is written at the head of
/// every segment line and compared byte for byte on lookup, so a hash
/// collision (or a line altered on disk) degrades to a miss instead of
/// serving another scenario's bytes.
struct ResultCacheKey {
  std::uint64_t hash = 0;
  std::string canonical;

  static ResultCacheKey of(const engine::ScenarioSpec& spec, EvalMath math);
};

struct ResultCacheOptions {
  /// Segment-store directory; empty = memory-only (the cache still
  /// serves repeat traffic, but dies with the process).
  std::string directory = {};
  /// Entry ceiling; 0 = unbounded. Beyond it the oldest entries are
  /// evicted insertion-FIFO. NOTE: jobs replay trimmed record-buffer
  /// lines through the cache, so a ceiling small enough to evict entries
  /// of a still-streaming job can truncate that job's late streams.
  std::size_t max_entries = 0;
  /// Rotate the append segment once it exceeds this many bytes.
  std::size_t max_segment_bytes = 8 * 1024 * 1024;
};

/// Thread-safe: one mutex guards the index; segment reads (pread) run
/// outside it. Shared by every JobManager executor and record streamer of
/// the service.
class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cached record body for `key`, verifying the canonical text;
  /// counts a hit or a miss.
  std::optional<std::string> lookup(const ResultCacheKey& key) EXCLUDES(mutex_);

  /// lookup() without the payload: verifies the canonical text (reading
  /// only the line's head) and counts a hit or a miss. A caller that
  /// emits the body later reads it once, with fetch().
  bool probe(const ResultCacheKey& key) EXCLUDES(mutex_);

  /// Uncounted variants for the replay path (stream_records re-rendering
  /// trimmed buffer lines): presence / payload by hash only. Sound
  /// because entries are immutable and were canonical-verified when the
  /// producing job probed or inserted them.
  bool contains(std::uint64_t hash) const EXCLUDES(mutex_);
  std::optional<std::string> fetch(std::uint64_t hash) const EXCLUDES(mutex_);

  /// Stores `payload` under `key` (no-op when present — first write wins,
  /// entries are immutable) by appending its line to the current segment.
  /// Evicts insertion-FIFO beyond max_entries.
  void insert(const ResultCacheKey& key, std::string_view payload) EXCLUDES(mutex_);

  std::size_t size() const EXCLUDES(mutex_);

  /// Entries restored from disk by the constructor (restart telemetry).
  std::size_t restored() const { return restored_; }

 private:
  /// Where an entry's line lives: `length` bytes (newline excluded) at
  /// `offset` of the segment open as `fd`, the payload's JSON string
  /// starting `payload_at` bytes in. `memory` holds the line instead when
  /// its append failed.
  struct Entry {
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
    std::uint32_t payload_at = 0;
    int fd = -1;
    std::shared_ptr<const std::string> memory;
  };

  std::optional<Entry> find(std::uint64_t hash) const EXCLUDES(mutex_);
  /// Bytes [begin, end) of an entry's line: from memory, or one pread
  /// (outside the lock; segment descriptors live as long as the cache).
  static std::optional<std::string> read_bytes(const Entry& entry, std::size_t begin,
                                               std::size_t end);
  void index_locked(std::uint64_t hash, Entry entry) REQUIRES(mutex_);
  Entry append_locked(std::string line, std::uint32_t payload_at) REQUIRES(mutex_);
  void open_next_segment_locked() REQUIRES(mutex_);
  void load_segments() EXCLUDES(mutex_);

  ResultCacheOptions options_;
  std::size_t restored_ = 0;

  mutable Mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_ GUARDED_BY(mutex_);
  /// Insertion order (FIFO eviction under max_entries).
  std::deque<std::uint64_t> insertion_order_ GUARDED_BY(mutex_);
  /// Every segment's descriptor (entries read through them); closed by
  /// the destructor.
  std::vector<int> segments_ GUARDED_BY(mutex_);
  /// The segment inserts append to; -1 = open a new one on the next
  /// insert.
  int append_fd_ GUARDED_BY(mutex_) = -1;
  std::uint64_t segment_bytes_ GUARDED_BY(mutex_) = 0;
  std::size_t next_segment_index_ GUARDED_BY(mutex_) = 1;
};

}  // namespace fpsched::service
