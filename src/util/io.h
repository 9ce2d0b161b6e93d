// File abstractions decoupling storage formats (log segments, sorted tables,
// index checkpoints) from where the bytes live. Two implementations exist:
// MemFileSystem (plain in-process storage for unit tests) and the DFS adapter
// in src/dfs/ (replicated blocks with simulated disk/network costs).

#ifndef LOGBASE_UTIL_IO_H_
#define LOGBASE_UTIL_IO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/result.h"
#include "src/util/slice.h"
#include "src/util/status.h"

#include "src/util/ordered_mutex.h"

namespace logbase {

/// How a write acknowledges durability on a replicated file, from the
/// client's WriteOptions down to the DFS sync.
enum class AckMode : uint8_t {
  /// A majority of replicas suffices; stragglers complete in the
  /// background (Taurus-style quorum ack).
  kQuorum,
  /// Every replica must finish before the sync is acknowledged (HDFS's
  /// strict ack).
  kAll,
};

/// An append-only output file.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const Slice& data) = 0;
  /// Forces buffered data to durable storage (for the DFS adapter: the
  /// synchronous replication pipeline).
  virtual Status Sync() = 0;
  /// Pipelined sync acknowledged under `ack` (on the DFS, the writer sends
  /// the data to every replica at once); `*ack_us` (may be null)
  /// receives the virtual time the ack of everything appended since the
  /// previous SyncWith landed. The base implementation is a
  /// plain Sync() acknowledged immediately — single-copy files have no
  /// replication pipeline to relax.
  virtual Status SyncWith(AckMode ack, uint64_t* ack_us);
  /// Blocks (advances the virtual clock) until every pipelined sync ack
  /// has landed. No-op for files without pipelined syncs outstanding.
  virtual Status WaitForAcks() { return Status::OK(); }
  virtual Status Close() = 0;
  /// Bytes appended so far, less any a failed sync dropped: a writer whose
  /// count differs knows part of a failed append was stored.
  virtual uint64_t Size() const = 0;
};

/// A file readable at arbitrary offsets; safe for concurrent readers.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads up to n bytes starting at offset. Short reads at EOF are not an
  /// error; reading entirely past EOF yields an empty result.
  virtual Result<std::string> Read(uint64_t offset, size_t n) const = 0;
  virtual uint64_t Size() const = 0;
};

/// Minimal file-system surface needed by the storage formats.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Creates (truncating any existing file) an append-only file.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;
  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual bool Exists(const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
  /// All paths that start with `prefix`, sorted.
  virtual Result<std::vector<std::string>> List(const std::string& prefix) = 0;
};

/// In-process file system for unit tests: files are reference-counted byte
/// strings, so open readers keep seeing a deleted file's bytes (POSIX-like).
class MemFileSystem : public FileSystem {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  bool Exists(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  Result<std::vector<std::string>> List(const std::string& prefix) override;

 private:
  struct MemFile {
    OrderedMutex mu{lockrank::kMemFile, "util.memfile"};
    std::string data GUARDED_BY(mu);
  };

  OrderedMutex mu_{lockrank::kMemFs, "util.memfs"};
  std::map<std::string, std::shared_ptr<MemFile>> files_ GUARDED_BY(mu_);
};

}  // namespace logbase

#endif  // LOGBASE_UTIL_IO_H_
