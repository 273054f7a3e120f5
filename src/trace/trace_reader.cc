#include "trace/trace_reader.h"

#include <fstream>

#include "common/string_util.h"
#include "trace/columnar_trace.h"

namespace oscar {
namespace {

/// Bounds-checked little-endian cursor over the whole file image.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), size_(size) {}

  bool done() const { return pos_ >= size_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

  bool Take(size_t n, const char** out) {
    if (size_ - pos_ < n) return false;
    *out = data_ + pos_;
    pos_ += n;
    return true;
  }

  bool U8(uint8_t* out) {
    const char* p;
    if (!Take(1, &p)) return false;
    *out = static_cast<uint8_t>(*p);
    return true;
  }

  bool U32(uint32_t* out) {
    const char* p;
    if (!Take(4, &p)) return false;
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
    *out = v;
    return true;
  }

  bool U64(uint64_t* out) {
    const char* p;
    if (!Take(8, &p)) return false;
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
    *out = v;
    return true;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status Corrupt(const std::string& what, size_t at) {
  return Status::Error(StrCat("otrace: ", what, " at byte ", at));
}

}  // namespace

Result<TraceContents> ReadTrace(std::istream& in) {
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::Error("otrace: read failed");
  }
  Cursor cursor(image.data(), image.size());

  const char* magic;
  uint32_t version = 0;
  if (!cursor.Take(sizeof(kOtraceMagic), &magic) ||
      std::string(magic, sizeof(kOtraceMagic)) !=
          std::string(kOtraceMagic, sizeof(kOtraceMagic))) {
    return Status::Error("otrace: bad magic (not an .otrace file?)");
  }
  if (!cursor.U32(&version) || version != kOtraceVersion) {
    return Status::Error(StrCat("otrace: unsupported version ", version,
                                " (want ", kOtraceVersion, ")"));
  }

  TraceContents contents;
  // Id 0 is the pre-interned empty scope (BasicTraceSink's default);
  // the writer never emits a string frame for it.
  contents.strings.emplace_back();
  bool saw_end = false;
  uint64_t declared_total = 0;
  while (!cursor.done()) {
    if (saw_end) return Corrupt("frame after end frame", cursor.pos());
    uint8_t tag = 0;
    cursor.U8(&tag);  // done() was false, so one byte exists.
    if (tag == kOtraceStringTag) {
      uint32_t id = 0, len = 0;
      const char* bytes;
      if (!cursor.U32(&id) || !cursor.U32(&len) || !cursor.Take(len, &bytes)) {
        return Corrupt("truncated string frame", cursor.pos());
      }
      // Ids are assigned densely in intern order by the writer.
      if (id != contents.strings.size()) {
        return Corrupt(StrCat("out-of-order string id ", id), cursor.pos());
      }
      contents.strings.emplace_back(bytes, len);
    } else if (tag == kOtraceBlockTag) {
      uint32_t scope = 0, count = 0;
      if (!cursor.U32(&scope) || !cursor.U32(&count)) {
        return Corrupt("truncated block header", cursor.pos());
      }
      if (scope >= contents.strings.size()) {
        return Corrupt(StrCat("undefined scope id ", scope), cursor.pos());
      }
      // Checked before allocating: a forged count must not size the
      // record table past what the file can hold.
      if (count > cursor.remaining() / kOtraceEventBytes) {
        return Corrupt(StrCat("block count ", count, " exceeds the file"),
                       cursor.pos());
      }
      const size_t base = contents.records.size();
      contents.records.resize(base + count);
      for (size_t i = 0; i < count; ++i) {
        contents.records[base + i].scope = scope;
      }
      // Columns in the fixed file order; each loops over the block.
      for (size_t i = 0; i < count; ++i) {
        if (!cursor.U64(&contents.records[base + i].event.t_us)) {
          return Corrupt("truncated t_us column", cursor.pos());
        }
      }
      for (size_t i = 0; i < count; ++i) {
        uint8_t kind = 0;
        if (!cursor.U8(&kind)) {
          return Corrupt("truncated kind column", cursor.pos());
        }
        if (kind >= static_cast<uint8_t>(TraceKind::kCount)) {
          return Corrupt(StrCat("unknown event kind ", kind), cursor.pos());
        }
        contents.records[base + i].event.kind = static_cast<TraceKind>(kind);
      }
      for (size_t i = 0; i < count; ++i) {
        if (!cursor.U32(&contents.records[base + i].event.lookup)) {
          return Corrupt("truncated lookup column", cursor.pos());
        }
      }
      for (size_t i = 0; i < count; ++i) {
        if (!cursor.U32(&contents.records[base + i].event.peer)) {
          return Corrupt("truncated peer column", cursor.pos());
        }
      }
      for (size_t i = 0; i < count; ++i) {
        if (!cursor.U32(&contents.records[base + i].event.to)) {
          return Corrupt("truncated to column", cursor.pos());
        }
      }
      for (size_t i = 0; i < count; ++i) {
        if (!cursor.U32(&contents.records[base + i].event.info)) {
          return Corrupt("truncated info column", cursor.pos());
        }
      }
      ++contents.blocks;
    } else if (tag == kOtraceEndTag) {
      if (!cursor.U64(&declared_total)) {
        return Corrupt("truncated end frame", cursor.pos());
      }
      saw_end = true;
    } else {
      return Corrupt(StrCat("unknown frame tag ", tag), cursor.pos());
    }
  }
  if (!saw_end) {
    return Status::Error("otrace: missing end frame (truncated file?)");
  }
  if (declared_total != contents.records.size()) {
    return Status::Error(StrCat("otrace: end frame declares ", declared_total,
                                " events but file holds ",
                                contents.records.size()));
  }
  return contents;
}

Result<TraceContents> ReadTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Error(StrCat("otrace: cannot open ", path));
  }
  return ReadTrace(in);
}

}  // namespace oscar
