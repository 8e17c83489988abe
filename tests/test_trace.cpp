// Trace I/O tests: capture, round-trip through CSV, replay equivalence,
// malformed-input handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace/op_trace.hpp"
#include "workloads/eembc_like.hpp"

namespace cbus::trace {
namespace {

TEST(Trace, CaptureDrainsStream) {
  auto stream = workloads::make_eembc("canrdr");
  stream->reset(1);
  const auto ops = capture(*stream, 100);
  EXPECT_EQ(ops.size(), 100u);
}

TEST(Trace, CaptureStopsAtStreamEnd) {
  workloads::FixedOpsStream s({cpu::MemOp{MemOpKind::kLoad, 1, 0}});
  const auto ops = capture(s, 100);
  EXPECT_EQ(ops.size(), 1u);
}

TEST(Trace, RoundTripThroughText) {
  std::vector<cpu::MemOp> ops{
      {MemOpKind::kLoad, 0xDEADBEE0, 3},
      {MemOpKind::kStore, 0x00000004, 0},
      {MemOpKind::kAtomic, 0xFFFFFFFC, 77},
  };
  std::stringstream buffer;
  write_ops(buffer, ops);
  const auto back = read_ops(buffer);
  ASSERT_EQ(back.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(back[i].kind, ops[i].kind);
    EXPECT_EQ(back[i].addr, ops[i].addr);
    EXPECT_EQ(back[i].compute_before, ops[i].compute_before);
  }
}

TEST(Trace, CommentsAndBlankLinesIgnored) {
  std::stringstream buffer("# comment\n\nload,10,5\n");
  const auto ops = read_ops(buffer);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].addr, 0x10u);
  EXPECT_EQ(ops[0].compute_before, 5u);
}

TEST(Trace, MalformedLineThrows) {
  std::stringstream missing_field("load,10\n");
  EXPECT_THROW((void)read_ops(missing_field), std::invalid_argument);
  std::stringstream bad_kind("jump,10,5\n");
  EXPECT_THROW((void)read_ops(bad_kind), std::invalid_argument);
}

TEST(Trace, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cbus_trace_test.csv";
  auto stream = workloads::make_eembc("tblook");
  stream->reset(9);
  const auto ops = capture(*stream, 500);
  save_ops(path, ops);
  const auto back = load_ops(path);
  ASSERT_EQ(back.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(back[i].addr, ops[i].addr);
  }
  std::remove(path.c_str());
}

TEST(Trace, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_ops("/nonexistent/path/trace.csv"),
               std::invalid_argument);
}

TEST(Trace, ReplayMatchesOriginal) {
  auto stream = workloads::make_eembc("canrdr");
  stream->reset(4);
  const auto ops = capture(*stream, 200);
  auto replayed = replay(ops);
  for (const auto& expected : ops) {
    const auto got = replayed->next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->addr, expected.addr);
    EXPECT_EQ(got->kind, expected.kind);
    EXPECT_EQ(got->compute_before, expected.compute_before);
  }
  EXPECT_FALSE(replayed->next().has_value());
}

TEST(Trace, ReplayWithRepeat) {
  std::vector<cpu::MemOp> ops{{MemOpKind::kLoad, 0x10, 0}};
  auto replayed = replay(ops, 3);
  int count = 0;
  while (replayed->next().has_value()) ++count;
  EXPECT_EQ(count, 3);
}

}  // namespace
}  // namespace cbus::trace
