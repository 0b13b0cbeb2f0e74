// Workload-trace tests: generator patterns, sample-and-hold lookup, and the
// text format's bitwise read/write round trip including its malformed-input
// error paths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "rtm/trace.hpp"

namespace ptherm::rtm {
namespace {

TEST(WorkloadTrace, RejectsDegenerateShapes) {
  EXPECT_THROW((void)WorkloadTrace(0, 1e-3), PreconditionError);
  EXPECT_THROW((void)WorkloadTrace(4, 0.0), PreconditionError);
  EXPECT_THROW((void)WorkloadTrace(4, -1e-3), PreconditionError);
}

TEST(WorkloadTrace, AppendValidatesWidthAndSign) {
  WorkloadTrace trace(2, 1e-3);
  const double short_row[] = {1.0};
  EXPECT_THROW(trace.append(short_row), PreconditionError);
  const double negative[] = {1.0, -0.1};
  EXPECT_THROW(trace.append(negative), PreconditionError);
  const double ok[] = {1.0, 0.5};
  trace.append(ok);
  EXPECT_EQ(trace.sample_count(), 1u);
  EXPECT_DOUBLE_EQ(trace.activity(0, 1), 0.5);
}

TEST(WorkloadTrace, SampleAndHoldLookupClampsAtTheEnds) {
  WorkloadTrace trace(1, 1e-3);
  for (double a : {0.2, 0.4, 0.8}) {
    trace.append({&a, 1});
  }
  EXPECT_DOUBLE_EQ(trace.duration(), 3e-3);
  EXPECT_DOUBLE_EQ(trace.activity_at(0, 0.0), 0.2);
  EXPECT_DOUBLE_EQ(trace.activity_at(0, 0.5e-3), 0.2);   // held
  EXPECT_DOUBLE_EQ(trace.activity_at(0, 1.0e-3), 0.4);   // next sample
  EXPECT_DOUBLE_EQ(trace.activity_at(0, 2.9e-3), 0.8);
  EXPECT_DOUBLE_EQ(trace.activity_at(0, 1.0), 0.8);      // clamped past the end
  EXPECT_DOUBLE_EQ(trace.activity_at(0, -1.0), 0.2);     // clamped before the start
}

TEST(TraceGenerators, BurstTraceHonoursDutyAndPhase) {
  BurstPattern pat;
  pat.period = 4e-3;
  pat.duty = 0.5;
  pat.high = 1.5;
  pat.low = 0.1;
  pat.phase_step = 0.5;  // block 1 bursts exactly when block 0 idles
  const auto trace = make_burst_trace(2, 8, 1e-3, pat);
  for (std::size_t s = 0; s < trace.sample_count(); ++s) {
    const double t = static_cast<double>(s) * 1e-3;
    const double phase = t - 4e-3 * std::floor(t / 4e-3);
    const double want0 = phase < 2e-3 ? 1.5 : 0.1;
    EXPECT_DOUBLE_EQ(trace.activity(s, 0), want0) << "sample " << s;
    // Half-period phase shift flips the window.
    EXPECT_DOUBLE_EQ(trace.activity(s, 1), want0 == 1.5 ? 0.1 : 1.5) << "sample " << s;
  }
}

TEST(TraceGenerators, MigrationRotatesTheHotBlock) {
  MigrationPattern pat;
  pat.dwell = 2e-3;
  pat.hot = 1.6;
  pat.cold = 0.2;
  const auto trace = make_migration_trace(3, 12, 1e-3, pat);
  for (std::size_t s = 0; s < trace.sample_count(); ++s) {
    const std::size_t hot = (s / 2) % 3;  // dwell = 2 samples
    for (std::size_t b = 0; b < 3; ++b) {
      EXPECT_DOUBLE_EQ(trace.activity(s, b), b == hot ? 1.6 : 0.2)
          << "sample " << s << " block " << b;
    }
  }
}

TEST(TraceGenerators, RandomWalkStaysBoundedAndIsSeedDeterministic) {
  RandomWalkPattern pat;
  pat.start = 0.5;
  pat.step = 0.3;
  pat.floor = 0.1;
  pat.ceil = 1.2;
  Rng rng_a(42);
  Rng rng_b(42);
  const auto a = make_random_walk_trace(4, 200, 1e-3, pat, rng_a);
  const auto b = make_random_walk_trace(4, 200, 1e-3, pat, rng_b);
  EXPECT_TRUE(a == b);
  bool moved = false;
  for (std::size_t s = 0; s < a.sample_count(); ++s) {
    for (std::size_t blk = 0; blk < a.block_count(); ++blk) {
      const double v = a.activity(s, blk);
      ASSERT_GE(v, pat.floor);
      ASSERT_LE(v, pat.ceil);
      if (v != pat.start) moved = true;
    }
  }
  EXPECT_TRUE(moved);
  Rng rng_c(43);
  const auto c = make_random_walk_trace(4, 200, 1e-3, pat, rng_c);
  EXPECT_FALSE(a == c);
}

TEST(TraceIo, RoundTripIsBitwiseIdentical) {
  RandomWalkPattern pat;
  Rng rng(7);
  const auto trace = make_random_walk_trace(3, 50, 1.25e-4, pat, rng);
  std::stringstream ss;
  write_trace(ss, trace);
  const auto back = read_trace(ss);
  EXPECT_TRUE(trace == back);  // bitwise: max_digits10 formatting
}

TEST(TraceIo, FileRoundTripIsBitwiseIdentical) {
  BurstPattern pat;
  const auto trace = make_burst_trace(2, 20, 1e-3, pat);
  const std::string path = ::testing::TempDir() + "/ptherm_trace_roundtrip.txt";
  write_trace_file(path, trace);
  const auto back = read_trace_file(path);
  EXPECT_TRUE(trace == back);
  std::remove(path.c_str());
}

TEST(TraceIo, ZeroSampleTraceSurvivesTheRoundTrip) {
  // A validly constructed trace with no appended samples is legal (if
  // useless); the writer emits 'samples 0' and the reader must accept it.
  const WorkloadTrace empty(3, 1e-3);
  std::stringstream ss;
  write_trace(ss, empty);
  const auto back = read_trace(ss);
  EXPECT_TRUE(empty == back);
  EXPECT_EQ(back.sample_count(), 0u);
}

TEST(TraceIo, CommentsAndWhitespaceAreTolerated) {
  std::stringstream ss(
      "# a comment before the header\n"
      "ptherm-trace v1\n"
      "blocks 2\n"
      "# interleaved comment\n"
      "sample_dt 1e-3\n"
      "samples 2\n"
      "0.5   1.0\n\n"
      "0.25 0.75\n");
  const auto trace = read_trace(ss);
  EXPECT_EQ(trace.block_count(), 2u);
  EXPECT_EQ(trace.sample_count(), 2u);
  EXPECT_DOUBLE_EQ(trace.activity(1, 1), 0.75);
}

TEST(TraceIo, MalformedInputsThrowIoError) {
  const auto expect_bad = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW((void)read_trace(ss), IoError) << "input:\n" << text;
  };
  expect_bad("");                                                  // empty
  expect_bad("not-a-trace v1\nblocks 1\nsample_dt 1\nsamples 0\n");  // bad magic
  expect_bad("ptherm-trace v9\nblocks 1\nsample_dt 1\nsamples 1\n1\n");  // bad version
  expect_bad("ptherm-trace v1\nsample_dt 1\nblocks 1\nsamples 1\n1\n");  // field order
  expect_bad("ptherm-trace v1\nblocks zero\nsample_dt 1\nsamples 1\n1\n");  // non-numeric
  expect_bad("ptherm-trace v1\nblocks 0\nsample_dt 1\nsamples 1\n1\n");     // zero blocks
  expect_bad("ptherm-trace v1\nblocks 1\nsample_dt -1\nsamples 1\n1\n");    // bad dt
  expect_bad("ptherm-trace v1\nblocks 1\nsample_dt 1e-3\nsamples 2\n0.5\n");  // truncated
  expect_bad("ptherm-trace v1\nblocks 2\nsample_dt 1e-3\nsamples 1\n0.5 oops\n");  // bad value
  expect_bad("ptherm-trace v1\nblocks 1\nsample_dt 1e-3\nsamples 1\n-0.5\n");  // negative
  expect_bad("ptherm-trace v1\nblocks 1\nsample_dt 1e-3\nsamples 1\n0.5\n0.7\n");  // trailing
  // A huge declared block count with two values must fail on the missing
  // values, without first allocating a row of the declared size.
  expect_bad("ptherm-trace v1\nblocks 1000000000\nsample_dt 1e-3\nsamples 1\n0.5 0.7\n");
}

TEST(TraceIo, WritingADefaultConstructedTraceIsAPreconditionError) {
  std::stringstream ss;
  EXPECT_THROW(write_trace(ss, WorkloadTrace{}), PreconditionError);
}

}  // namespace
}  // namespace ptherm::rtm
