#include "trace/trace_file.h"

#include "common/string_util.h"

namespace oscar {

Status TraceFile::Open(const std::string& path) {
  if (path.empty()) return Status::Ok();
  const std::string ext = ".otrace";
  if (path.size() < ext.size() ||
      path.compare(path.size() - ext.size(), ext.size(), ext) != 0) {
    return Status::Error(StrCat("--trace-file wants a .otrace path, got '",
                                path, "' (oscar_trace F.otrace --csv "
                                "decodes one to CSV)"));
  }
  path_ = path;
  file_.open(path, std::ios::binary | std::ios::out);
  if (!file_) return Status::Error(StrCat("cannot open trace file: ", path));
  writer_ = std::make_unique<ColumnarTraceWriter>(&file_);
  return Status::Ok();
}

Status TraceFile::Close() {
  if (writer_ == nullptr) return Status::Ok();
  Status status = writer_->Close();
  file_.close();
  if (status.ok() && !file_) status = Status::Error("close failed");
  if (!status.ok()) return Status::Error(StrCat(path_, ": ", status.message()));
  return status;
}

}  // namespace oscar
