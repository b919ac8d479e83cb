// Unit tests for src/common: status/result, serialization, field
// reflection, bitset, DSU, thread pool, RNG, and the LLoC counter.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "common/bitset.h"
#include "common/dsu.h"
#include "common/fields.h"
#include "common/lloc.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace flash {
namespace {

// --- Status / Result -------------------------------------------------------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad k");
}

TEST(Status, CopyIsCheapAndEqual) {
  Status a = Status::NotFound("x");
  Status b = a;
  EXPECT_EQ(a, b);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::IOError("disk"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

Result<int> Doubler(Result<int> in) {
  FLASH_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Internal("boom")).ok());
}

// --- Serialization ----------------------------------------------------------

TEST(Serialize, PodRoundTrip) {
  BufferWriter w;
  w.WritePod<uint32_t>(0xDEADBEEF);
  w.WritePod<double>(3.25);
  BufferReader r(w.bytes());
  EXPECT_EQ(r.ReadPod<uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadPod<double>(), 3.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, VarintBoundaries) {
  BufferWriter w;
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  uint64_t{1} << 32, ~uint64_t{0}};
  for (uint64_t v : values) w.WriteVarint(v);
  BufferReader r(w.bytes());
  for (uint64_t v : values) EXPECT_EQ(r.ReadVarint(), v);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, VarintIsCompactForSmallValues) {
  BufferWriter w;
  w.WriteVarint(5);
  EXPECT_EQ(w.size(), 1u);
}

TEST(Serialize, StringAndVectorRoundTrip) {
  BufferWriter w;
  w.WriteString("hello flash");
  w.WritePodVector(std::vector<uint32_t>{1, 2, 3});
  w.WritePodVector(std::vector<uint32_t>{});
  BufferReader r(w.bytes());
  EXPECT_EQ(r.ReadString(), "hello flash");
  EXPECT_EQ(r.ReadPodVector<uint32_t>(), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(r.ReadPodVector<uint32_t>().empty());
}

// --- Field reflection -------------------------------------------------------

struct Reflected {
  uint32_t a = 0;
  double b = 0;
  std::vector<uint32_t> list;
  FLASH_FIELDS(a, b, list)
};

TEST(Fields, CountsFields) {
  EXPECT_EQ(Reflected::kNumFields, 3);
  EXPECT_EQ(AllFieldsMask<Reflected>(), 0b111u);
}

TEST(Fields, FullMaskRoundTrip) {
  Reflected in{7, 2.5, {9, 8}};
  BufferWriter w;
  SerializeFields(in, AllFieldsMask<Reflected>(), w);
  Reflected out;
  BufferReader r(w.bytes());
  DeserializeFields(out, AllFieldsMask<Reflected>(), r);
  EXPECT_EQ(out.a, 7u);
  EXPECT_EQ(out.b, 2.5);
  EXPECT_EQ(out.list, (std::vector<uint32_t>{9, 8}));
}

TEST(Fields, MaskedFieldsAreSkipped) {
  Reflected in{7, 2.5, {9}};
  BufferWriter w;
  SerializeFields(in, 0b001, w);  // Only field 'a'.
  EXPECT_EQ(w.size(), sizeof(uint32_t));
  Reflected out{0, 1.0, {}};
  BufferReader r(w.bytes());
  DeserializeFields(out, 0b001, r);
  EXPECT_EQ(out.a, 7u);
  EXPECT_EQ(out.b, 1.0);  // Untouched.
}

TEST(Fields, ByteSizeMatchesSerializedSize) {
  Reflected in{7, 2.5, {1, 2, 3}};
  for (uint32_t mask : {0u, 1u, 3u, 7u}) {
    BufferWriter w;
    SerializeFields(in, mask, w);
    EXPECT_EQ(FieldsByteSize(in, mask), w.size()) << mask;
  }
}

// --- Bitset -----------------------------------------------------------------

TEST(Bitset, SetTestClear) {
  Bitset b(130);
  EXPECT_FALSE(b.Test(129));
  b.Set(129);
  b.Set(0);
  b.Set(64);
  EXPECT_TRUE(b.Test(129));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_EQ(b.Count(), 2u);
}

TEST(Bitset, ForEachAscending) {
  Bitset b(200);
  std::vector<size_t> set = {3, 64, 65, 199};
  for (size_t i : set) b.Set(i);
  std::vector<size_t> seen;
  b.ForEach([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, set);
}

TEST(Bitset, SetAlgebra) {
  Bitset a(100), b(100);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  Bitset u = a;
  u.UnionWith(b);
  EXPECT_EQ(u.Count(), 3u);
  Bitset i = a;
  i.IntersectWith(b);
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Test(2));
  Bitset d = a;
  d.SubtractWith(b);
  EXPECT_TRUE(d.Test(1));
  EXPECT_EQ(d.Count(), 1u);
}

// --- DSU --------------------------------------------------------------------

TEST(Dsu, UnionFind) {
  Dsu dsu(10);
  EXPECT_TRUE(dsu.Union(1, 2));
  EXPECT_TRUE(dsu.Union(2, 3));
  EXPECT_FALSE(dsu.Union(1, 3));
  EXPECT_TRUE(dsu.Connected(1, 3));
  EXPECT_FALSE(dsu.Connected(1, 4));
  EXPECT_EQ(dsu.NumSets(), 8u);
}

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPool, ParallelForWorkersRunsEveryIndexOnceAcrossReuse) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  // One pool serves every superstep: reuse must neither drop nor repeat
  // indices.
  for (int round = 0; round < 3; ++round) {
    pool.ParallelForWorkers(1000, [&](int i) { hits[i]++; });
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 3);
}

TEST(ThreadPool, SingleThreadRunsInlineInIndexOrder) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  pool.ParallelForWorkers(10, [&](int i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

// The pool's barrier spins for tens of microseconds and then parks on a
// condition variable; these tests drive both sides of that protocol.

TEST(ThreadPool, ParkedThreadsWakeForTheNextCall) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  for (int round = 0; round < 4; ++round) {
    pool.ParallelForWorkers(64, [&](int i) { hits[i]++; });
    // Far past the spin budget: every idle thread has parked by the time
    // the next call publishes its task.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 4);
}

TEST(ThreadPool, CallerParksUntilASlowTaskFinishes) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> finished{0};
    pool.ParallelForWorkers(3, [&](int i) {
      // Longer than the spin budget, so the caller's join parks.
      if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      finished++;
    });
    EXPECT_EQ(finished.load(), 3) << "round " << round;
  }
}

TEST(ThreadPool, BackToBackCallsReturnOnlyAfterEveryIndex) {
  constexpr int kThreads = 4;
  constexpr int kCalls = 100000;
  const int counts[] = {1, 2, kThreads, 3 * kThreads};
  ThreadPool pool(kThreads);
  std::vector<std::atomic<int>> hits(3 * kThreads);
  for (int call = 0; call < kCalls; ++call) {
    const int count = counts[call % 4];
    std::atomic<int> finished{0};
    pool.ParallelForWorkers(count, [&](int i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      finished.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(finished.load(), count) << "call " << call;
  }
  for (int i = 0; i < 3 * kThreads; ++i) {
    int expected = 0;
    for (int count : counts) expected += count > i ? kCalls / 4 : 0;
    EXPECT_EQ(hits[i].load(), expected) << "index " << i;
  }
}

TEST(ThreadPool, DestructionJoinsPromptlyWhetherThreadsParkOrSpin) {
  using Clock = std::chrono::steady_clock;
  for (const bool parked : {true, false}) {
    auto pool = std::make_unique<ThreadPool>(4);
    std::atomic<int> ran{0};
    pool->ParallelForWorkers(8, [&](int) { ran++; });
    if (parked) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto start = Clock::now();
    pool.reset();
    EXPECT_LT(Clock::now() - start, std::chrono::seconds(1))
        << (parked ? "parked" : "spinning");
    EXPECT_EQ(ran.load(), 8);
  }
  // Never used: the threads are still in their first spin.
  const auto start = Clock::now();
  { ThreadPool idle(4); }
  EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
}

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// --- LLoC --------------------------------------------------------------------

TEST(Lloc, CountsStatementsNotLines) {
  auto r = CountLloc("int a = 1;\nint b = 2; int c = 3;\n");
  EXPECT_EQ(r.logical_lines, 3);
  EXPECT_EQ(r.physical_lines, 2);
}

TEST(Lloc, ForHeaderIsOneLogicalLine) {
  auto r = CountLloc("for (int i = 0; i < n; ++i) { sum += i; }");
  EXPECT_EQ(r.logical_lines, 2);  // for + one statement.
}

TEST(Lloc, IgnoresCommentsAndStrings) {
  auto r = CountLloc(
      "// comment; with; semicolons;\n"
      "/* more; */ int a = 1;\n"
      "const char* s = \"x; y; z\";\n");
  EXPECT_EQ(r.logical_lines, 2);
}

TEST(Lloc, ElseIfCountsOnce) {
  auto r = CountLloc("if (a) { x(); } else if (b) { y(); } else { z(); }");
  // if, x();, [else-]if, y();, else, z();
  EXPECT_EQ(r.logical_lines, 6);
}

TEST(Lloc, DigitSeparatorsAreNotCharLiterals) {
  auto r = CountLloc(
      "int x = 1'000;\n"
      "constexpr uint64_t kMagic = 0x464C5348'434B5054ull;\n"
      "char c = 'a';\n"
      "if (x) { y(); }\n");
  // Four declarations/statements plus the if.
  EXPECT_EQ(r.logical_lines, 5);
}

TEST(Lloc, MarkedRegionOnly) {
  auto r = CountLlocMarkedRegion(
      "int boilerplate = 0;\n// LLOC-BEGIN\nint core = 1;\n// LLOC-END\n"
      "int more = 2;\n");
  EXPECT_EQ(r.logical_lines, 1);
}

}  // namespace
}  // namespace flash
