#include "trace/trace_file.h"

#include <utility>

#include "common/string_util.h"

namespace oscar {

bool TraceFile::IsFormat(const std::string& format) {
  return format == "csv" || format == "otrace";
}

Status TraceFile::Open(const std::string& path, const std::string& format) {
  if (path.empty()) {
    return format.empty() ? Status::Ok()
                          : Status::Error("--trace-format needs --trace-file");
  }
  const std::string ext = ".otrace";
  const bool by_ext =
      path.size() >= ext.size() &&
      path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
  const bool binary = format.empty() ? by_ext : format == "otrace";
  path_ = path;
  file_.open(path, binary ? std::ios::binary | std::ios::out : std::ios::out);
  if (!file_) return Status::Error(StrCat("cannot open trace file: ", path));
  if (binary) {
    auto writer = std::make_unique<ColumnarTraceWriter>(&file_);
    columnar_ = writer.get();
    sink_ = std::move(writer);
  } else {
    sink_ = std::make_unique<CsvTraceSink>(&file_);
  }
  return Status::Ok();
}

Status TraceFile::Close() {
  if (sink_ == nullptr) return Status::Ok();
  Status status = columnar_ != nullptr ? columnar_->Close() : sink_->Flush();
  file_.close();
  if (status.ok() && !file_) status = Status::Error("close failed");
  if (!status.ok()) return Status::Error(StrCat(path_, ": ", status.message()));
  return status;
}

}  // namespace oscar
