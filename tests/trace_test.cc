// Columnar trace pipeline: time quantization must reproduce the legacy
// FormatDouble bytes, `.otrace` files must round-trip through the
// reader exactly and reject corruption, the CSV replay of a decoded
// binary trace must match the direct CSV sink byte-for-byte (including
// through a full scenario run and a full serve sweep), traces must be
// seed-deterministic, and the decoder must survive thousands of mutated
// files.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/rng.h"
#include "serve/load_generator.h"
#include "sim/scenario.h"
#include "trace/columnar_trace.h"
#include "trace/trace.h"
#include "trace/trace_reader.h"

namespace oscar {
namespace {

TEST(TraceTimeTest, QuantizationMatchesLegacyFormatting) {
  const double samples[] = {0.0,        0.0004,     0.0005,   0.1,
                            1.0 / 3.0,  2.0 / 3.0,  1.0,      12.3449,
                            12.345,     12.3456,    999.9995, 1234.5678,
                            86400000.0, 123456789.125};
  for (const double t_ms : samples) {
    EXPECT_EQ(TraceTimeMs(TraceTimeUs(t_ms)), FormatDouble(t_ms, 3))
        << "t_ms=" << t_ms;
  }
  // A dense sweep across a couple of milliseconds catches any rounding
  // disagreement between snprintf and the ostringstream path.
  for (int i = 0; i < 20000; ++i) {
    const double t_ms = static_cast<double>(i) * 0.000137;
    ASSERT_EQ(TraceTimeMs(TraceTimeUs(t_ms)), FormatDouble(t_ms, 3))
        << "t_ms=" << t_ms;
  }
  EXPECT_EQ(TraceTimeUs(-1.0), 0u);  // Guarded: never negative.
}

std::vector<TraceEvent> SyntheticEvents() {
  std::vector<TraceEvent> events;
  for (uint32_t i = 0; i < 10; ++i) {
    TraceEvent event;
    event.t_us = 1000 * i + i;
    event.kind = static_cast<TraceKind>(
        i % static_cast<uint32_t>(TraceKind::kCount));
    event.lookup = i % 3 == 0 ? kTraceNone : i;
    event.peer = i % 4 == 0 ? kTraceNone : 100 + i;
    event.to = i % 5 == 0 ? kTraceNone : 200 + i;
    event.info = i * 7;
    events.push_back(event);
  }
  return events;
}

TEST(ColumnarTraceTest, WriterReaderRoundTrip) {
  std::ostringstream out(std::ios::binary);
  // Capacity 3 forces mid-scope block flushes; the scope switch forces
  // another, so the file has several blocks.
  ColumnarTraceWriter writer(&out, 3);
  const std::vector<TraceEvent> events = SyntheticEvents();
  const uint32_t alpha = writer.Intern("alpha");
  const uint32_t beta = writer.Intern("beta scope");
  writer.SetScope(alpha);
  for (size_t i = 0; i < 7; ++i) writer.Append(events[i]);
  writer.SetScope(beta);
  for (size_t i = 7; i < events.size(); ++i) writer.Append(events[i]);
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.events_written(), events.size());

  std::istringstream in(out.str(), std::ios::binary);
  auto decoded = ReadTrace(in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const TraceContents& contents = decoded.value();
  ASSERT_EQ(contents.records.size(), events.size());
  EXPECT_GE(contents.blocks, 4u);  // ceil(7/3) + ceil(3/3) at least.
  ASSERT_EQ(contents.strings.size(), 3u);  // "" + two interned.
  EXPECT_EQ(contents.strings[alpha], "alpha");
  EXPECT_EQ(contents.strings[beta], "beta scope");
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(contents.records[i].event, events[i]) << "record " << i;
    EXPECT_EQ(contents.records[i].scope, i < 7 ? alpha : beta);
  }
}

TEST(ColumnarTraceTest, CloseIsIdempotentAndDoubleFlushSafe) {
  std::ostringstream out(std::ios::binary);
  ColumnarTraceWriter writer(&out, 4);
  writer.Append(TraceEvent{});
  ASSERT_TRUE(writer.Flush().ok());
  ASSERT_TRUE(writer.Flush().ok());
  ASSERT_TRUE(writer.Close().ok());
  const std::string once = out.str();
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(out.str(), once);
  std::istringstream in(once, std::ios::binary);
  auto decoded = ReadTrace(in);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().records.size(), 1u);
}

std::string ValidTraceBytes() {
  std::ostringstream out(std::ios::binary);
  ColumnarTraceWriter writer(&out, 4);
  writer.SetScope(writer.Intern("scope"));
  for (const TraceEvent& event : SyntheticEvents()) writer.Append(event);
  EXPECT_TRUE(writer.Close().ok());
  return out.str();
}

Status DecodeStatus(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  auto decoded = ReadTrace(in);
  return decoded.ok() ? Status::Ok() : decoded.status();
}

TEST(ColumnarTraceTest, ReaderRejectsCorruption) {
  const std::string good = ValidTraceBytes();
  ASSERT_TRUE(DecodeStatus(good).ok());

  // Truncation anywhere after the header is an error (missing end
  // frame, chopped column, chopped string...), never silent data loss.
  for (size_t len : {good.size() - 1, good.size() - 9, size_t{12},
                     size_t{8}, size_t{5}}) {
    EXPECT_FALSE(DecodeStatus(good.substr(0, len)).ok()) << "len=" << len;
  }

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeStatus(bad_magic).ok());

  std::string bad_version = good;
  bad_version[4] = 99;
  EXPECT_FALSE(DecodeStatus(bad_version).ok());

  std::string bad_tag = good;
  bad_tag[8] = 'Z';  // First frame tag.
  EXPECT_FALSE(DecodeStatus(bad_tag).ok());

  std::string trailing = good;
  trailing.push_back('\0');  // Bytes after the end frame.
  EXPECT_FALSE(DecodeStatus(trailing).ok());

  EXPECT_FALSE(DecodeStatus("").ok());
}

TEST(ColumnarTraceTest, ReaderRejectsABlockCountPastTheFile) {
  // Header, then a block (scope 0) declaring 2^32 - 1 events with no
  // column bytes behind it: rejected before any record is allocated.
  std::string forged("OTRC\x01\0\0\0B\0\0\0\0\xff\xff\xff\xff", 17);
  const Status status = DecodeStatus(forged);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("block count"), std::string::npos)
      << status.message();

  // One event more than the bytes after the block header can hold.
  std::string short_block("OTRC\x01\0\0\0B\0\0\0\0\x02\0\0\0", 17);
  short_block.append(kOtraceEventBytes * 2 - 1, '\0');
  EXPECT_NE(DecodeStatus(short_block).message().find("block count"),
            std::string::npos);
}

// ---- Deterministic fuzzing of the decoder --------------------------------
//
// Mutated `.otrace` images over fixed seeds and a fixed iteration
// budget: every input is either rejected with a Status or decoded, and a
// decoded input survives a re-encode through the writer unchanged.

/// A valid trace: two scopes, several blocks, every TraceKind.
std::string FuzzSeedTrace(uint64_t salt) {
  std::ostringstream out(std::ios::binary);
  ColumnarTraceWriter writer(&out, 5);
  const uint32_t scopes[] = {writer.Intern("alpha"),
                             writer.Intern("beta scope")};
  const uint32_t kinds = static_cast<uint32_t>(TraceKind::kCount);
  Rng rng(salt);
  for (uint32_t i = 0; i < 2 * kinds; ++i) {
    if (i % 7 == 0) writer.SetScope(scopes[(i / 7) % 2]);
    TraceEvent event;
    event.t_us = 1000 * i + rng.UniformInt(1000);
    event.kind = static_cast<TraceKind>(i % kinds);
    event.lookup = i % 3 == 0 ? kTraceNone : i;
    event.peer = i % 4 == 0 ? kTraceNone : static_cast<uint32_t>(rng.Next());
    event.to = i % 5 == 0 ? kTraceNone : static_cast<uint32_t>(rng.Next());
    event.info = static_cast<uint32_t>(rng.UniformInt(100));
    writer.Append(event);
  }
  EXPECT_TRUE(writer.Close().ok());
  return out.str();
}

/// The [begin, end) byte range of every frame of a well-formed trace.
std::vector<std::pair<size_t, size_t>> FrameBounds(const std::string& bytes) {
  const auto u32 = [&bytes](size_t at) {
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<uint8_t>(bytes[at + static_cast<size_t>(i)]);
    }
    return static_cast<size_t>(v);
  };
  std::vector<std::pair<size_t, size_t>> frames;
  size_t at = sizeof(kOtraceMagic) + 4;
  while (at < bytes.size()) {
    const uint8_t tag = static_cast<uint8_t>(bytes[at]);
    const size_t size = tag == kOtraceStringTag  ? 9 + u32(at + 5)
                        : tag == kOtraceBlockTag ? 9 + u32(at + 5) *
                                                           kOtraceEventBytes
                                                 : 9;  // End frame.
    frames.emplace_back(at, at + size);
    at += size;
  }
  return frames;
}

/// One fuzz input: optionally a frame duplicated from `base` or spliced
/// in from `donor` (inserted at a frame boundary or replacing a frame),
/// then up to three bit flips, byte overwrites or truncations. Never
/// returns `base` unchanged.
std::string Mutate(const std::string& base, const std::string& donor,
                   Rng* rng) {
  const auto frames = FrameBounds(base);
  const auto donor_frames = FrameBounds(donor);
  const auto frame_text = [](const std::string& bytes,
                             std::pair<size_t, size_t> frame) {
    return bytes.substr(frame.first, frame.second - frame.first);
  };
  std::string bytes = base;
  const uint64_t structural = rng->UniformInt(4);
  if (structural != 0) {
    const auto& slot = frames[rng->UniformInt(frames.size())];
    const std::string frame =
        structural == 1
            ? frame_text(base, frames[rng->UniformInt(frames.size())])
            : frame_text(donor,
                         donor_frames[rng->UniformInt(donor_frames.size())]);
    if (structural == 3) {
      bytes.replace(slot.first, slot.second - slot.first, frame);
    } else {
      bytes.insert(rng->UniformInt(2) == 0 ? slot.first : slot.second, frame);
    }
  }
  static constexpr uint8_t kEdgeBytes[] = {0x00, 0x01, 0x7f, 0x80, 0xff,
                                           'S',  'B',  'E'};
  const uint64_t edits = rng->UniformInt(structural == 0 ? 3 : 4) +
                         (structural == 0 ? 1 : 0);
  for (uint64_t e = 0; e < edits && !bytes.empty(); ++e) {
    const size_t at = static_cast<size_t>(rng->UniformInt(bytes.size()));
    switch (rng->UniformInt(3)) {
      case 0:
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng->UniformInt(8)));
        break;
      case 1:
        bytes[at] = static_cast<char>(
            rng->UniformInt(2) == 0
                ? kEdgeBytes[rng->UniformInt(sizeof(kEdgeBytes))]
                : rng->UniformInt(256));
        break;
      default:
        bytes.resize(at);
        break;
    }
  }
  if (bytes == base) bytes.pop_back();
  return bytes;
}

/// Re-encodes decoded contents through the writer: the string table in
/// id order, then every record under its scope's text.
std::string Reencode(const TraceContents& contents) {
  std::ostringstream out(std::ios::binary);
  ColumnarTraceWriter writer(&out, 5);
  for (const std::string& text : contents.strings) writer.Intern(text);
  for (const TraceRecord& record : contents.records) {
    writer.SetScope(writer.Intern(contents.scope_text(record)));
    writer.Append(record.event);
  }
  EXPECT_TRUE(writer.Close().ok());
  return out.str();
}

TEST(ColumnarTraceTest, ReaderSurvivesMutatedFiles) {
  const std::string base = FuzzSeedTrace(1);
  const std::string donor = FuzzSeedTrace(2);
  ASSERT_TRUE(DecodeStatus(base).ok());
  ASSERT_GE(FrameBounds(base).size(), 6u);  // 2 strings, 4+ blocks, end.
  size_t decoded_inputs = 0;
  size_t rejected_inputs = 0;
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Rng rng(seed);
    for (int iteration = 0; iteration < 1000; ++iteration) {
      const std::string input = Mutate(base, donor, &rng);
      std::istringstream in(input, std::ios::binary);
      auto decoded = ReadTrace(in);
      if (!decoded.ok()) {
        ASSERT_FALSE(decoded.status().message().empty());
        ++rejected_inputs;
        continue;
      }
      ++decoded_inputs;
      const TraceContents& contents = decoded.value();
      const std::string reencoded = Reencode(contents);
      std::istringstream again_in(reencoded, std::ios::binary);
      auto again = ReadTrace(again_in);
      ASSERT_TRUE(again.ok())
          << "seed " << seed << " iteration " << iteration << ": "
          << again.status();
      // The writer interns each distinct text once, so a table with a
      // repeated text comes back with the repeat dropped.
      std::vector<std::string> distinct;
      for (const std::string& text : contents.strings) {
        if (std::find(distinct.begin(), distinct.end(), text) ==
            distinct.end()) {
          distinct.push_back(text);
        }
      }
      ASSERT_EQ(again.value().strings, distinct)
          << "seed " << seed << " iteration " << iteration;
      ASSERT_EQ(again.value().records.size(), contents.records.size())
          << "seed " << seed << " iteration " << iteration;
      for (size_t i = 0; i < contents.records.size(); ++i) {
        const TraceRecord& want = contents.records[i];
        const TraceRecord& got = again.value().records[i];
        ASSERT_EQ(got.event, want.event)
            << "seed " << seed << " iteration " << iteration << " record "
            << i;
        ASSERT_EQ(again.value().scope_text(got), contents.scope_text(want))
            << "seed " << seed << " iteration " << iteration << " record "
            << i;
      }
      ASSERT_EQ(Reencode(again.value()), reencoded)
          << "seed " << seed << " iteration " << iteration;
    }
  }
  // The mutations reach both sides of the decoder.
  EXPECT_GT(decoded_inputs, 100u);
  EXPECT_GT(rejected_inputs, 100u);
}

/// Replays decoded records through a fresh CsvTraceSink, exactly like
/// `oscar_trace --csv` does.
std::string ReplayAsCsv(const std::string& otrace_bytes) {
  std::istringstream in(otrace_bytes, std::ios::binary);
  auto decoded = ReadTrace(in);
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  if (!decoded.ok()) return "";
  std::ostringstream csv;
  CsvTraceSink sink(&csv);
  for (const TraceRecord& record : decoded.value().records) {
    sink.SetScope(sink.Intern(decoded.value().scope_text(record)));
    sink.Append(record.event);
  }
  return csv.str();
}

TEST(ColumnarTraceTest, CsvReplayMatchesDirectCsvSink) {
  std::ostringstream direct_csv;
  CsvTraceSink direct(&direct_csv);
  std::ostringstream binary(std::ios::binary);
  ColumnarTraceWriter writer(&binary, 3);
  direct.SetScope(direct.Intern("cell a"));
  writer.SetScope(writer.Intern("cell a"));
  const std::vector<TraceEvent> events = SyntheticEvents();
  for (size_t i = 0; i < 6; ++i) {
    direct.Append(events[i]);
    writer.Append(events[i]);
  }
  direct.SetScope(direct.Intern("cell b"));
  writer.SetScope(writer.Intern("cell b"));
  for (size_t i = 6; i < events.size(); ++i) {
    direct.Append(events[i]);
    writer.Append(events[i]);
  }
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(ReplayAsCsv(binary.str()), direct_csv.str());
}

/// Runs the busiest scenario (churn, timeouts, reroutes) with the given
/// sink attached and timeline sampling on.
void RunTracedScenario(uint64_t seed, TraceSink* sink) {
  ScenarioOptions base;
  base.network_size = 140;
  base.lookups = 70;
  base.seed = seed;
  base.sim.sink = sink;
  base.sim.queue_depth_cadence_ms = 5.0;
  sink->SetScope(sink->Intern("rolling-churn"));
  auto run = RunScenario("rolling-churn", base);
  ASSERT_TRUE(run.ok()) << run.status();
}

std::string ScenarioOtraceBytes(uint64_t seed) {
  std::ostringstream out(std::ios::binary);
  ColumnarTraceWriter writer(&out, 256);
  RunTracedScenario(seed, &writer);
  EXPECT_TRUE(writer.Close().ok());
  return out.str();
}

TEST(TraceDeterminismTest, ScenarioOtraceIsSeedDeterministic) {
  const std::string first = ScenarioOtraceBytes(42);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, ScenarioOtraceBytes(42));
  EXPECT_NE(first, ScenarioOtraceBytes(43));
}

TEST(TraceDeterminismTest, ScenarioCsvReplayMatchesDirectSink) {
  const std::string otrace = ScenarioOtraceBytes(42);
  std::ostringstream direct_csv;
  CsvTraceSink direct(&direct_csv);
  RunTracedScenario(42, &direct);
  ASSERT_GT(direct_csv.str().size(), std::string(CsvTraceSink::Header()).size());
  EXPECT_EQ(ReplayAsCsv(otrace), direct_csv.str());
}

/// One serve sweep (firehose plus a rate-limited row, Zipf-hot keys)
/// with the given sink attached, so every serve gauge kind is emitted.
void RunTracedServe(const TopologySnapshot& snapshot, TraceSink* sink) {
  ServeOptions options;
  options.lookups = 2000;
  options.seed = 42;
  options.offered_rates_per_s = {0.0, 4000.0};
  options.hot_keys = 8;
  options.trace = sink;
  options.trace_cadence_ms = 5.0;
  auto run = LoadGenerator(snapshot, options).Run();
  ASSERT_TRUE(run.ok()) << run.status();
}

TEST(TraceDeterminismTest, ServeCsvReplayMatchesDirectSink) {
  ScenarioOptions base;
  base.network_size = 200;
  base.seed = 42;
  auto grown = GrowScenarioTopology(base);
  ASSERT_TRUE(grown.ok()) << grown.status();
  const TopologySnapshot& snapshot = grown.value().snapshot;

  std::ostringstream binary(std::ios::binary);
  ColumnarTraceWriter writer(&binary);
  RunTracedServe(snapshot, &writer);
  ASSERT_TRUE(writer.Close().ok());
  std::ostringstream direct_csv;
  CsvTraceSink direct(&direct_csv);
  RunTracedServe(snapshot, &direct);

  const std::string csv = direct_csv.str();
  for (const char* kind : {",serve_queue,", ",serve_busy,",
                           ",serve_dropped,"}) {
    EXPECT_NE(csv.find(kind), std::string::npos) << kind;
  }
  EXPECT_NE(csv.find(",serve rate=4000 policy=peer-cap,"),
            std::string::npos);
  EXPECT_EQ(ReplayAsCsv(binary.str()), csv);
}

}  // namespace
}  // namespace oscar
