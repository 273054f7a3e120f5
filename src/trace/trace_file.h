// The trace file behind the CLIs' --trace-file/--trace-format flags:
// one place picks the encoding, owns the file stream and the sink, and
// closes both. A `.otrace` extension selects the binary columnar writer
// (columnar_trace.h), anything else the CSV adapter, unless an explicit
// format ("csv" or "otrace") overrides the extension.

#ifndef OSCAR_TRACE_TRACE_FILE_H_
#define OSCAR_TRACE_TRACE_FILE_H_

#include <fstream>
#include <memory>
#include <string>

#include "common/status.h"
#include "trace/columnar_trace.h"
#include "trace/trace.h"

namespace oscar {

class TraceFile {
 public:
  TraceFile() = default;
  // Pinned in place: the sink holds the address of file_.
  TraceFile(const TraceFile&) = delete;
  TraceFile& operator=(const TraceFile&) = delete;

  /// True for the explicit formats Open accepts: "csv" and "otrace".
  static bool IsFormat(const std::string& format);

  /// Opens `path` in `format`, or by extension when `format` is empty.
  /// An empty `path` opens nothing, and is an error with a `format`.
  /// Call once.
  Status Open(const std::string& path, const std::string& format);

  /// The open sink, or null when nothing was opened.
  TraceSink* sink() const { return sink_.get(); }

  /// Frames the columnar end record or flushes the CSV rows, then
  /// reports any write error. Ok when nothing was opened.
  Status Close();

 private:
  std::string path_;
  std::ofstream file_;  // Declared before sink_, which writes into it.
  std::unique_ptr<TraceSink> sink_;
  ColumnarTraceWriter* columnar_ = nullptr;  // sink_, when binary.
};

}  // namespace oscar

#endif  // OSCAR_TRACE_TRACE_FILE_H_
