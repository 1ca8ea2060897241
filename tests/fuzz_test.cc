// Deterministic pseudo-fuzzing of the parsers and of option validation:
// random byte soup and random near-valid inputs must produce either a
// valid result or an error Status — never a crash or an invariant
// violation. Seeds are fixed, so failures reproduce.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "io/clustering_io.h"
#include "io/csv.h"
#include "stream/snapshot.h"
#include "stream/stream_aggregator.h"
#include "stream/stream_event.h"

namespace clustagg {
namespace {

std::string RandomBytes(Rng* rng, std::size_t max_len) {
  const std::size_t len = rng->NextBounded(max_len + 1);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng->NextBounded(256)));
  }
  return out;
}

std::string RandomLabelish(Rng* rng, std::size_t max_tokens) {
  static const char* kTokens[] = {"0",  "1",    "17", "?",   "-1",
                                  "#x", "9e9",  "",   " ",   "\t",
                                  "\n", "0x1f", "2 3", "999999999999"};
  std::string out;
  const std::size_t tokens = rng->NextBounded(max_tokens + 1);
  for (std::size_t i = 0; i < tokens; ++i) {
    out += kTokens[rng->NextBounded(std::size(kTokens))];
    out += rng->NextBernoulli(0.3) ? "\n" : " ";
  }
  return out;
}

class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, ParseClusteringNeverCrashesOnByteSoup) {
  Rng rng(GetParam() * 7919 + 1);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string input = RandomBytes(&rng, 256);
    Result<Clustering> c = ParseClustering(input);
    if (c.ok()) {
      // Whatever parsed must be a valid clustering.
      EXPECT_TRUE(c->Validate().ok());
      EXPECT_GT(c->size(), 0u);
    }
  }
}

TEST_P(ParserFuzzTest, ParseClusteringRoundTripsWhenValid) {
  Rng rng(GetParam() * 104729 + 3);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string input = RandomLabelish(&rng, 20);
    Result<Clustering> c = ParseClustering(input);
    if (!c.ok()) continue;
    Result<Clustering> again = ParseClustering(FormatClustering(*c));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->labels(), c->labels());
  }
}

TEST_P(ParserFuzzTest, ParseCsvNeverCrashesOnByteSoup) {
  Rng rng(GetParam() * 15485863 + 5);
  for (int trial = 0; trial < 100; ++trial) {
    const std::string input = RandomBytes(&rng, 512);
    CsvOptions options;
    options.has_header = rng.NextBernoulli(0.5);
    if (rng.NextBernoulli(0.3)) options.class_column = "a";
    Result<CsvDataset> d = ParseCategoricalCsv(input, options);
    if (d.ok()) {
      EXPECT_GT(d->table.num_rows(), 0u);
      EXPECT_GT(d->table.num_attributes(), 0u);
    }
  }
}

TEST_P(ParserFuzzTest, ParseCsvStructuredSoup) {
  Rng rng(GetParam() * 32452843 + 7);
  static const char* kCells[] = {"a", "b", "?", "", "NA", "x,y", "0"};
  for (int trial = 0; trial < 100; ++trial) {
    std::string input;
    const std::size_t rows = 1 + rng.NextBounded(6);
    const std::size_t cols = 1 + rng.NextBounded(4);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        if (c > 0) input += ',';
        input += kCells[rng.NextBounded(std::size(kCells))];
      }
      input += '\n';
    }
    CsvOptions options;
    options.has_header = rng.NextBernoulli(0.5);
    Result<CsvDataset> d = ParseCategoricalCsv(input, options);
    if (d.ok()) {
      // Decoded tables are internally consistent.
      for (std::size_t a = 0; a < d->table.num_attributes(); ++a) {
        EXPECT_EQ(d->value_names[a].size(),
                  d->table.attribute_cardinality(a));
      }
    }
  }
}

TEST_P(ParserFuzzTest, ParseClusteringTruncatedLines) {
  // Valid label files chopped at every prefix length: the parser must
  // either produce a valid clustering or a Status error, never crash,
  // even when the cut lands mid-token or mid-comment.
  Rng rng(GetParam() * 49979687 + 11);
  for (int trial = 0; trial < 50; ++trial) {
    std::string full = "# header comment\n";
    const std::size_t tokens = 1 + rng.NextBounded(12);
    for (std::size_t i = 0; i < tokens; ++i) {
      full += std::to_string(rng.NextBounded(8));
      full += rng.NextBernoulli(0.3) ? "\n" : " ";
    }
    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
      Result<Clustering> c = ParseClustering(full.substr(0, cut));
      if (c.ok()) {
        EXPECT_TRUE(c->Validate().ok());
      }
    }
  }
}

TEST_P(ParserFuzzTest, ParseClusteringMixedSeparators) {
  // Every mix of space / tab / CR / LF / CRLF between tokens parses to
  // the same label sequence.
  Rng rng(GetParam() * 86028121 + 13);
  static const char* kSeparators[] = {" ", "\t", "\r", "\n", "\r\n",
                                      " \t ", "\n\n", "\t\r\n"};
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t tokens = 1 + rng.NextBounded(10);
    std::vector<Clustering::Label> expected;
    std::string input;
    for (std::size_t i = 0; i < tokens; ++i) {
      const auto label = static_cast<Clustering::Label>(rng.NextBounded(5));
      expected.push_back(label);
      input += std::to_string(label);
      input += kSeparators[rng.NextBounded(std::size(kSeparators))];
    }
    Result<Clustering> c = ParseClustering(input);
    ASSERT_TRUE(c.ok()) << input;
    EXPECT_EQ(c->labels(), expected);
  }
}

TEST(ParserEdgeCaseTest, ParseClusteringOverlongTokens) {
  // Tokens far beyond any representable label must error, not wrap or
  // allocate absurdly — whatever their length.
  for (std::size_t len : {20u, 100u, 4096u, 1u << 16}) {
    const std::string digits(len, '9');
    Result<Clustering> c = ParseClustering(digits);
    ASSERT_FALSE(c.ok()) << len << " digits";
    EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
    // Mixed with valid labels the error names the offending line.
    Result<Clustering> mixed = ParseClustering("0 1\n" + digits + "\n");
    ASSERT_FALSE(mixed.ok());
    EXPECT_NE(mixed.status().message().find("line 2"), std::string::npos)
        << mixed.status().message();
  }
  const std::string giant_but_not_overflowing(7, '9');  // 9999999 fits
  EXPECT_TRUE(ParseClustering(giant_but_not_overflowing).ok());
}

TEST(ParserEdgeCaseTest, ParseClusteringEmbeddedNuls) {
  // NUL bytes are not separators; they poison the token they land in
  // and must surface as InvalidArgument, never truncate the parse.
  const std::string nul_in_token{"0 1\x00 2", 6};
  Result<Clustering> c = ParseClustering(nul_in_token);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);

  const std::string nul_only{"\x00", 1};
  EXPECT_FALSE(ParseClustering(nul_only).ok());

  const std::string nul_in_comment{"# c\x00mment\n0 1\n", 14};
  Result<Clustering> commented = ParseClustering(nul_in_comment);
  ASSERT_TRUE(commented.ok());  // comments swallow anything up to \n
  EXPECT_EQ(commented->size(), 2u);
}

TEST(ParserEdgeCaseTest, ParseClusteringOutOfRangeLabels) {
  // kMaxParsedLabel is the acceptance boundary, and rejections carry
  // the 1-based line of the offending token.
  EXPECT_TRUE(
      ParseClustering(std::to_string(kMaxParsedLabel)).ok());
  const std::string over = std::to_string(
      static_cast<long long>(kMaxParsedLabel) + 1);
  Result<Clustering> c = ParseClustering("0\n1\n" + over + "\n");
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(c.status().message().find("line 3"), std::string::npos)
      << c.status().message();
}

TEST(ParserEdgeCaseTest, ParseWeightsRejectsNonFinite) {
  for (const char* bad : {"nan", "inf", "-inf", "1,nan,2", "1e999",
                          "0", "-1", "", "1,,2", "1;2", "abc",
                          "1,2,", "1.5x"}) {
    Result<std::vector<double>> w = ParseWeights(bad);
    ASSERT_FALSE(w.ok()) << "'" << bad << "' should be rejected";
    EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument);
  }
  Result<std::vector<double>> ok = ParseWeights("1,0.5,2e3");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, (std::vector<double>{1.0, 0.5, 2000.0}));
  // The error names the offending 1-based position.
  Result<std::vector<double>> bad = ParseWeights("1,2,nan");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("weight 3"), std::string::npos)
      << bad.status().message();
}

TEST_P(ParserFuzzTest, ParseEventLogNeverCrashesOnByteSoup) {
  Rng rng(GetParam() * 122949829 + 19);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string input = RandomBytes(&rng, 256);
    Result<std::vector<StreamRecord>> records = ParseEventLog(input);
    if (records.ok()) {
      // Whatever parsed must round-trip exactly — the journal leans on
      // this for its frame payloads.
      Result<std::vector<StreamRecord>> again =
          ParseEventLog(FormatEventLog(*records));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->size(), records->size());
    }
  }
}

TEST_P(ParserFuzzTest, ParseEventLogStructuredSoup) {
  // Near-valid logs: real directives padded with the whitespace and
  // line-ending variants hand-edited or Windows-authored files carry.
  Rng rng(GetParam() * 141650939 + 23);
  static const char* kDirectives[] = {"clustering", "object", "flush",
                                      "clusterin",  "# note", "",
                                      "remove_clustering",
                                      "remove_object",
                                      "remove_clustering 4",
                                      "remove_object 0"};
  static const char* kTails[] = {"",     " ",    "\t",  "\r",
                                 " \r",  "\t\r", " \t ", "\v\f"};
  static const char* kEols[] = {"\n", "\r\n"};
  for (int trial = 0; trial < 200; ++trial) {
    std::string input;
    const std::size_t lines = rng.NextBounded(8);
    for (std::size_t l = 0; l < lines; ++l) {
      input += kDirectives[rng.NextBounded(std::size(kDirectives))];
      const std::size_t labels = rng.NextBounded(4);
      for (std::size_t i = 0; i < labels; ++i) {
        input += rng.NextBernoulli(0.2) ? " ?" : " ";
        if (input.back() == ' ') input += std::to_string(rng.NextBounded(5));
      }
      input += kTails[rng.NextBounded(std::size(kTails))];
      input += kEols[rng.NextBounded(std::size(kEols))];
    }
    Result<std::vector<StreamRecord>> records = ParseEventLog(input);
    if (records.ok()) {
      Result<std::vector<StreamRecord>> again =
          ParseEventLog(FormatEventLog(*records));
      ASSERT_TRUE(again.ok()) << input;
      EXPECT_EQ(again->size(), records->size());
    }
  }
}

TEST(ParserEdgeCaseTest, ParseEventLogCrlfAndPaddingEquivalence) {
  // The same log in Unix, CRLF, trailing-whitespace, and BOM-prefixed
  // spellings parses to identical records.
  const std::string unix_log =
      "# header\nclustering weight=2 0 0 1\nobject 1 ?\nflush\n";
  const std::string crlf_log =
      "# header\r\nclustering weight=2 0 0 1\r\nobject 1 ?\r\nflush\r\n";
  const std::string padded_log =
      "# header  \nclustering weight=2 0 0 1 \t\nobject 1 ? \nflush\t\n";
  const std::string bom_log = "\xEF\xBB\xBF" + unix_log;
  Result<std::vector<StreamRecord>> base = ParseEventLog(unix_log);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->size(), 3u);
  for (const std::string& variant : {crlf_log, padded_log, bom_log}) {
    Result<std::vector<StreamRecord>> parsed = ParseEventLog(variant);
    ASSERT_TRUE(parsed.ok()) << variant;
    EXPECT_EQ(FormatEventLog(*parsed), FormatEventLog(*base)) << variant;
  }
  // A flush directive with a CRLF tail is still argument-free.
  Result<std::vector<StreamRecord>> flush = ParseEventLog("flush\r\n");
  ASSERT_TRUE(flush.ok());
  ASSERT_EQ(flush->size(), 1u);
  EXPECT_TRUE(std::holds_alternative<FlushMarker>(flush->front()));
  // Whereas a flush with a real argument still errors.
  EXPECT_FALSE(ParseEventLog("flush now\r\n").ok());
}

TEST_P(ParserFuzzTest, ParseEventLogLineNumbersMatchTheSourceFile) {
  // Build a valid log with randomly mixed EOL styles (LF, CRLF, bare
  // CR), random padding, comments, and an optional BOM; plant one bogus
  // directive on a known physical line. The parse error must name
  // exactly that line — the number an editor shows for the original
  // file, whatever its line-ending convention.
  Rng rng(GetParam() * 217645199 + 37);
  static const char* kEols[] = {"\n", "\r\n", "\r"};
  static const char* kGood[] = {"clustering 0 1", "object 0 1", "flush",
                                "# comment", ""};
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t lines = 1 + rng.NextBounded(10);
    const std::size_t bogus_line = rng.NextBounded(lines);
    std::string input = rng.NextBernoulli(0.3) ? "\xEF\xBB\xBF" : "";
    for (std::size_t l = 0; l < lines; ++l) {
      std::string line;
      if (l == bogus_line) {
        line = "b0gus directive";
      } else {
        line = kGood[rng.NextBounded(std::size(kGood))];
        if (rng.NextBernoulli(0.3)) line += " \t";
      }
      const char* eol = kEols[rng.NextBounded(std::size(kEols))];
      // A bare-CR terminator directly followed by an empty LF-terminated
      // line would spell "\r\n" — byte-identical to one CRLF terminator,
      // so it genuinely IS one line; keep the generator unambiguous.
      if (line.empty() && eol[0] == '\n' && !input.empty() &&
          input.back() == '\r') {
        line = " ";
      }
      input += line;
      input += eol;
    }
    Result<std::vector<StreamRecord>> records = ParseEventLog(input);
    ASSERT_FALSE(records.ok()) << input;
    const std::string expected =
        "line " + std::to_string(bogus_line + 1) + ":";
    EXPECT_NE(records.status().message().find(expected), std::string::npos)
        << "expected '" << expected << "' in: " << records.status().message();
  }
}

TEST_P(ParserFuzzTest, ParsedLineMapSurvivesEveryEolStyle) {
  // Non-error twin of the test above: the ParseEventLog `lines`
  // out-param must map record i to the physical source line it came
  // from, across all EOL styles and interleaved comments/blanks.
  Rng rng(GetParam() * 236887699 + 41);
  static const char* kEols[] = {"\n", "\r\n", "\r"};
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t lines = 1 + rng.NextBounded(12);
    std::string input;
    std::vector<std::size_t> expected;
    for (std::size_t l = 0; l < lines; ++l) {
      switch (rng.NextBounded(4)) {
        case 0: input += "# note"; break;
        case 1: input += "  "; break;
        case 2:
          input += "clustering 0 1";
          expected.push_back(l + 1);
          break;
        default:
          input += "flush";
          expected.push_back(l + 1);
          break;
      }
      input += kEols[rng.NextBounded(std::size(kEols))];
    }
    std::vector<std::size_t> got;
    Result<std::vector<StreamRecord>> records = ParseEventLog(input, &got);
    ASSERT_TRUE(records.ok()) << records.status().message();
    ASSERT_EQ(records->size(), expected.size());
    EXPECT_EQ(got, expected) << input;
  }
}

TEST_P(ParserFuzzTest, RejectedRemovalsNeverCorruptTheStream) {
  // Feed a stream random removals — many naming dead or never-assigned
  // ids — mixed with valid adds. Every rejected event must leave the
  // stream exactly as if it had never been offered: the final state
  // must match a twin stream fed only the accepted events.
  Rng rng(GetParam() * 275604541 + 43);
  for (int trial = 0; trial < 20; ++trial) {
    StreamAggregator stream{StreamAggregatorOptions{}};
    std::vector<StreamEvent> accepted;
    ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 1, 0}, 1.0}).ok());
    accepted.emplace_back(AddClusteringEvent{{0, 1, 0}, 1.0});
    for (int e = 0; e < 30; ++e) {
      StreamEvent event;
      switch (rng.NextBounded(4)) {
        case 0: {
          AddClusteringEvent add;
          add.labels.resize(stream.pending_objects());
          for (auto& l : add.labels) {
            l = static_cast<Clustering::Label>(rng.NextBounded(3));
          }
          event = std::move(add);
          break;
        }
        case 1: {
          AddObjectEvent add;
          add.labels.resize(stream.pending_clusterings());
          for (auto& l : add.labels) {
            l = static_cast<Clustering::Label>(rng.NextBounded(3));
          }
          event = std::move(add);
          break;
        }
        case 2:
          event = RemoveClusteringEvent{rng.NextBounded(12)};
          break;
        default:
          event = RemoveObjectEvent{rng.NextBounded(12)};
          break;
      }
      if (stream.Ingest(event).ok()) accepted.push_back(std::move(event));
    }
    ASSERT_TRUE(stream.Flush().ok());
    StreamAggregator twin{StreamAggregatorOptions{}};
    for (const StreamEvent& event : accepted) {
      ASSERT_TRUE(twin.Ingest(event).ok());
    }
    ASSERT_TRUE(twin.Flush().ok());
    ASSERT_EQ(stream.num_objects(), twin.num_objects());
    ASSERT_EQ(stream.num_clusterings(), twin.num_clusterings());
    EXPECT_EQ(stream.clustering_ids(), twin.clustering_ids());
    EXPECT_EQ(stream.object_ids(), twin.object_ids());
    EXPECT_EQ(stream.labels().labels(), twin.labels().labels());
    EXPECT_EQ(stream.cost(), twin.cost());
    for (std::size_t v = 1; v < twin.num_objects(); ++v) {
      for (std::size_t u = 0; u < v; ++u) {
        ASSERT_EQ(stream.distance(u, v), twin.distance(u, v));
      }
    }
  }
}

TEST_P(ParserFuzzTest, DecodeSnapshotNeverCrashesOnByteSoup) {
  // Random bytes must never decode (the 4-byte magic plus whole-file
  // CRC see to that) and must never crash or over-allocate.
  Rng rng(GetParam() * 175650767 + 29);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string input = RandomBytes(&rng, 512);
    Result<StreamSnapshot> snapshot = DecodeSnapshot(input);
    EXPECT_FALSE(snapshot.ok());
    EXPECT_EQ(snapshot.status().code(), StatusCode::kDataLoss);
  }
}

TEST_P(ParserFuzzTest, DecodeSnapshotRejectsEveryTruncationAndBitFlip) {
  // A valid snapshot chopped at every prefix length, and with one byte
  // flipped at every position, must fail closed with kDataLoss.
  StreamSnapshot snapshot;
  snapshot.journal_records = 5;
  snapshot.state.num_objects = 3;
  snapshot.state.columns = {{0, 0, 1}, {0, 1, 1}};
  snapshot.state.weights = {1.0, 2.0};
  snapshot.state.total_weight = 3.0;
  snapshot.state.labels = {0, 0, 1};
  snapshot.state.ever_clustered = true;
  snapshot.state.flush_count = 2;
  snapshot.state.clustering_ids = {0, 2};  // id 1 was removed
  snapshot.state.object_ids = {0, 1, 2};
  snapshot.state.next_clustering_id = 3;
  snapshot.state.next_object_id = 3;
  const std::string encoded = EncodeSnapshot(snapshot);
  ASSERT_TRUE(DecodeSnapshot(encoded).ok());
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    Result<StreamSnapshot> truncated =
        DecodeSnapshot(std::string_view(encoded).substr(0, cut));
    ASSERT_FALSE(truncated.ok()) << "prefix of " << cut << " bytes";
    EXPECT_EQ(truncated.status().code(), StatusCode::kDataLoss);
  }
  Rng rng(GetParam() * 198491329 + 31);
  for (std::size_t pos = 0; pos < encoded.size(); ++pos) {
    std::string flipped = encoded;
    flipped[pos] = static_cast<char>(
        flipped[pos] ^ static_cast<char>(1 + rng.NextBounded(255)));
    Result<StreamSnapshot> decoded = DecodeSnapshot(flipped);
    ASSERT_FALSE(decoded.ok()) << "bit flip at byte " << pos;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

TEST_P(ParserFuzzTest, ParseWeightsNeverCrashesOnByteSoup) {
  Rng rng(GetParam() * 67867967 + 17);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string input = RandomBytes(&rng, 64);
    Result<std::vector<double>> w = ParseWeights(input);
    if (w.ok()) {
      for (double value : *w) EXPECT_GT(value, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace clustagg
