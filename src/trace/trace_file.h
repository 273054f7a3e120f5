// The trace file behind the CLIs' --trace-file flag: one place checks
// the path, owns the file stream and the columnar writer
// (columnar_trace.h), and closes both. Traces are always `.otrace`;
// `oscar_trace F.otrace --csv` decodes one to CSV rows.

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
  // Pinned in place: the writer holds the address of file_.
  TraceFile(const TraceFile&) = delete;
  TraceFile& operator=(const TraceFile&) = delete;

  /// Opens `path`, which must end in `.otrace`. An empty `path` opens
  /// nothing. Call once.
  Status Open(const std::string& path);

  /// The open sink, or null when nothing was opened.
  TraceSink* sink() const { return writer_.get(); }

  /// Frames the end record, then reports any write error. Ok when
  /// nothing was opened.
  Status Close();

 private:
  std::string path_;
  std::ofstream file_;  // Declared before writer_, which writes into it.
  std::unique_ptr<ColumnarTraceWriter> writer_;
};

}  // namespace oscar

#endif  // OSCAR_TRACE_TRACE_FILE_H_
