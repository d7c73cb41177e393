#include "trace/tpc_gen.h"
#include "trace/trace_file.h"

#include <gtest/gtest.h>

#include <sstream>

namespace dresar {
namespace {

std::vector<TraceRecord> sample() {
  return {{0, 0x1000, false}, {5, 0xdeadbe0, true}, {15, 0x7fffffffff8ull, false}};
}

TEST(TraceFile, TextRoundTrip) {
  std::stringstream ss;
  {
    TraceWriter w(ss, /*binary=*/false);
    for (const auto& r : sample()) w.write(r);
    EXPECT_EQ(w.written(), 3u);
  }
  const auto back = loadTrace(ss);
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].pid, sample()[i].pid);
    EXPECT_EQ(back[i].addr, sample()[i].addr);
    EXPECT_EQ(back[i].write, sample()[i].write);
  }
}

TEST(TraceFile, BinaryRoundTrip) {
  std::stringstream ss;
  {
    TraceWriter w(ss, /*binary=*/true);
    for (const auto& r : sample()) w.write(r);
  }
  const auto back = loadTrace(ss);
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].pid, sample()[i].pid);
    EXPECT_EQ(back[i].addr, sample()[i].addr);
    EXPECT_EQ(back[i].write, sample()[i].write);
  }
}

TEST(TraceFile, TextFormatIsHumanReadable) {
  std::stringstream ss;
  TraceWriter w(ss, false);
  w.write({3, 0xabc0, true});
  EXPECT_NE(ss.str().find("3 w abc0"), std::string::npos);
}

TEST(TraceFile, CommentsAndBlankLinesAreSkipped) {
  std::stringstream ss("# header\n\n2 r 40\n# trailing\n7 w 80\n");
  const auto back = loadTrace(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].pid, 2u);
  EXPECT_EQ(back[1].addr, 0x80u);
}

TEST(TraceFile, TextAddressMayCarryA0xPrefix) {
  std::stringstream ss("4 w 0x80\n5 r 0XfF\n");
  const auto back = loadTrace(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].addr, 0x80u);
  EXPECT_EQ(back[1].addr, 0xffu);
}

TEST(TraceFile, MalformedLineThrowsWithLineNumber) {
  // A bad second line: an unknown layout, an address with a non-hex tail, a
  // trailing field, and an address that is not hex at all.
  for (const std::string bad : {"bogus line", "0 r 12zz", "0 r 1000 extra junk", "0 r zz"}) {
    std::stringstream ss("1 r 40\n" + bad + "\n");
    TraceReader rd(ss);
    TraceRecord r;
    EXPECT_TRUE(rd.next(r));
    try {
      rd.next(r);
      FAIL() << "expected malformed-line error for \"" << bad << "\"";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "trace: malformed line 2: " + bad);
    }
  }
}

TEST(TraceFile, TruncatedBinaryThrows) {
  std::stringstream ss;
  {
    TraceWriter w(ss, true);
    w.write({1, 0x40, false});
  }
  std::string bytes = ss.str();
  bytes.resize(bytes.size() - 3);  // chop the address
  std::stringstream cut(bytes);
  TraceReader rd(cut);
  TraceRecord r;
  EXPECT_THROW(rd.next(r), std::runtime_error);
}

TEST(TraceFile, GeneratorDumpMatchesDirectStream) {
  std::stringstream ss;
  TpcGenerator g1(TpcParams::tpcc(500));
  dumpTrace(g1, ss, /*binary=*/true);
  const auto fromFile = loadTrace(ss);
  TpcGenerator g2(TpcParams::tpcc(500));
  TraceRecord r;
  std::size_t i = 0;
  while (g2.next(r)) {
    ASSERT_LT(i, fromFile.size());
    EXPECT_EQ(fromFile[i].addr, r.addr);
    EXPECT_EQ(fromFile[i].pid, r.pid);
    EXPECT_EQ(fromFile[i].write, r.write);
    ++i;
  }
  EXPECT_EQ(i, fromFile.size());
}

TEST(TraceFile, BadMagicRejected) {
  std::stringstream ss("CXXX____garbage");
  EXPECT_THROW(TraceReader rd(ss), std::runtime_error);
}

}  // namespace
}  // namespace dresar
