// Binary columnar trace encoding (`.otrace`): events buffered as
// per-column arrays and flushed in framed blocks, so a million-lookup
// trace streams to disk at ~25 bytes/event with no per-event string
// work. All integers are little-endian regardless of host.
//
//   file   := magic "OTRC" | version u32 (=1) | frame*
//   frame  := string-frame | block-frame | end-frame
//   string := 'S' u8 | id u32 | len u32 | bytes[len]
//   block  := 'B' u8 | scope u32 | count u32
//             | t_us   u64[count]      (column order fixed)
//             | kind   u8 [count]
//             | lookup u32[count]
//             | peer   u32[count]
//             | to     u32[count]
//             | info   u32[count]
//   end    := 'E' u8 | total_events u64
//
// String frames are written when a string is first interned, so every
// scope id is defined before any block references it. The end frame's
// event total lets the reader reject truncated files.

#ifndef OSCAR_TRACE_COLUMNAR_TRACE_H_
#define OSCAR_TRACE_COLUMNAR_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace/trace.h"

namespace oscar {

inline constexpr char kOtraceMagic[4] = {'O', 'T', 'R', 'C'};
inline constexpr uint32_t kOtraceVersion = 1;
inline constexpr uint8_t kOtraceStringTag = 'S';
inline constexpr uint8_t kOtraceBlockTag = 'B';
inline constexpr uint8_t kOtraceEndTag = 'E';
/// One event's bytes across a block's six columns.
inline constexpr size_t kOtraceEventBytes = 8 + 1 + 4 * 4;

class ColumnarTraceWriter : public BasicTraceSink {
 public:
  /// Writes the file header immediately; `out` must outlive the writer
  /// and should be opened in binary mode. Blocks flush every
  /// `block_capacity` events (and on scope changes, so each block has
  /// one scope).
  explicit ColumnarTraceWriter(std::ostream* out,
                               size_t block_capacity = 4096);
  ~ColumnarTraceWriter() override;  // Closes if the caller did not.

  void SetScope(uint32_t scope_id) override;
  void Append(const TraceEvent& event) override;
  Status Flush() override;

  /// Flushes and writes the end frame. Further Appends are a bug (they
  /// would follow the end frame and fail the read). Idempotent.
  Status Close();

  uint64_t events_written() const { return total_events_; }

 protected:
  void OnNewString(uint32_t id, const std::string& text) override;

 private:
  void FlushBlock();

  std::ostream* out_;
  const size_t block_capacity_;
  bool closed_ = false;
  uint64_t total_events_ = 0;
  // The pending block, one vector per column.
  std::vector<uint64_t> t_us_;
  std::vector<uint8_t> kind_;
  std::vector<uint32_t> lookup_;
  std::vector<uint32_t> peer_;
  std::vector<uint32_t> to_;
  std::vector<uint32_t> info_;
  std::string frame_;  // Serialization scratch, reused across frames.
};

}  // namespace oscar

#endif  // OSCAR_TRACE_COLUMNAR_TRACE_H_
