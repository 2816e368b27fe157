// Unit tests for the simulation core: event loop, tasks, futures, sleep,
// queues, when_all, the frame pool.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/async_queue.h"
#include "sim/event_loop.h"
#include "sim/future.h"
#include "sim/task.h"
#include "sim/when_all.h"

// ---- counting allocator ---------------------------------------------------
// The frame-pool tests count global allocations; every other operator new
// form forwards to this one.
namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<size_t> g_last_alloc_bytes{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_last_alloc_bytes.store(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace faastcc::sim {
namespace {

uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, SameTimeRunsInInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

// Property test for the 4-ary heap: among events with equal timestamps,
// firing order is exactly insertion order — including events scheduled
// from inside other events at the currently running time.
TEST(EventLoop, EqualTimestampsFireInInsertionOrderUnderRandomLoad) {
  Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    EventLoop loop;
    struct Fired {
      SimTime time;
      uint64_t id;
    };
    std::vector<Fired> fired;
    uint64_t next_id = 0;
    // Timestamps drawn from a tiny range so collisions are the common
    // case; each event may spawn children at or shortly after its own
    // time, exercising insertion under a partially drained heap level.
    std::function<void(SimTime, int)> spawn = [&](SimTime t, int depth) {
      const uint64_t id = next_id++;
      loop.schedule_at(t, [&, id, depth] {
        fired.push_back(Fired{loop.now(), id});
        if (depth > 0) {
          const size_t children = rng.next_below(3);
          for (size_t c = 0; c < children; ++c) {
            spawn(loop.now() + static_cast<SimTime>(rng.next_below(3)),
                  depth - 1);
          }
        }
      });
    };
    for (int i = 0; i < 64; ++i) {
      spawn(static_cast<SimTime>(rng.next_below(8)), 2);
    }
    loop.run();
    ASSERT_EQ(fired.size(), next_id);
    for (size_t i = 1; i < fired.size(); ++i) {
      ASSERT_LE(fired[i - 1].time, fired[i].time) << "round " << round;
      if (fired[i - 1].time == fired[i].time) {
        ASSERT_LT(fired[i - 1].id, fired[i].id)
            << "round " << round << ": equal-time events fired out of "
            << "insertion order";
      }
    }
  }
}

TEST(EventLoop, ScheduleAfterIsRelative) {
  EventLoop loop;
  loop.schedule_at(100, [] {});
  loop.run();
  SimTime fired_at = -1;
  loop.schedule_after(50, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(EventLoop, PastTimesClampToNow) {
  EventLoop loop;
  loop.schedule_at(100, [] {});
  loop.run();
  SimTime fired_at = -1;
  loop.schedule_at(10, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(EventLoop, NestedSchedulingWorks) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) loop.schedule_after(1, recurse);
  };
  loop.schedule_at(0, recurse);
  loop.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(loop.now(), 99);
}

TEST(EventLoop, RunUntilStopsAtBoundary) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(10, [&] { ++fired; });
  loop.schedule_at(20, [&] { ++fired; });
  loop.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 15);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, StopHaltsProcessing) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(1, [&] {
    ++fired;
    loop.stop();
  });
  loop.schedule_at(2, [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoop, CountsProcessedEvents) {
  EventLoop loop;
  for (int i = 0; i < 5; ++i) loop.schedule_at(i, [] {});
  loop.run();
  EXPECT_EQ(loop.events_processed(), 5u);
}

// ---------------------------------------------------------------------------
// Task
// ---------------------------------------------------------------------------

Task<int> make_value(int v) { co_return v; }

Task<int> add_tasks() {
  const int a = co_await make_value(20);
  const int b = co_await make_value(22);
  co_return a + b;
}

TEST(Task, ReturnsValueThroughAwaitChain) {
  int result = 0;
  spawn([](int& out) -> Task<void> { out = co_await add_tasks(); }(result));
  EXPECT_EQ(result, 42);  // no suspension points: completes synchronously
}

TEST(Task, DeepAwaitChainUsesConstantStack) {
  // 100k chained awaits would overflow the stack without symmetric
  // transfer.
  struct Chain {
    static Task<int> down(int n) {
      if (n == 0) co_return 0;
      co_return 1 + co_await down(n - 1);
    }
  };
  int result = 0;
  spawn([](int& out) -> Task<void> {
    out = co_await Chain::down(100000);
  }(result));
  EXPECT_EQ(result, 100000);
}

TEST(Task, ExceptionsPropagateToAwaiter) {
  struct Thrower {
    static Task<int> boom() {
      throw std::runtime_error("boom");
      co_return 0;
    }
  };
  bool caught = false;
  spawn([](bool& c) -> Task<void> {
    try {
      co_await Thrower::boom();
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(caught));
  EXPECT_TRUE(caught);
}

TEST(Task, MoveOnlyResultsWork) {
  struct Maker {
    static Task<std::unique_ptr<int>> make() {
      co_return std::make_unique<int>(9);
    }
  };
  int result = 0;
  spawn([](int& out) -> Task<void> {
    auto p = co_await Maker::make();
    out = *p;
  }(result));
  EXPECT_EQ(result, 9);
}

// ---------------------------------------------------------------------------
// Future / sleep
// ---------------------------------------------------------------------------

TEST(Future, AwaiterResumesOnFulfil) {
  EventLoop loop;
  Promise<int> p(loop);
  int got = 0;
  spawn([](Future<int> f, int& out) -> Task<void> {
    out = co_await std::move(f);
  }(p.get_future(), got));
  EXPECT_EQ(got, 0);
  p.set_value(5);
  loop.run();
  EXPECT_EQ(got, 5);
}

TEST(Future, FulfilBeforeAwaitIsImmediate) {
  EventLoop loop;
  Promise<int> p(loop);
  p.set_value(7);
  int got = 0;
  spawn([](Future<int> f, int& out) -> Task<void> {
    out = co_await std::move(f);
  }(p.get_future(), got));
  EXPECT_EQ(got, 7);
}

TEST(Sleep, ResumesAtRequestedTime) {
  EventLoop loop;
  SimTime woke = -1;
  spawn([](EventLoop& l, SimTime& out) -> Task<void> {
    co_await sleep_for(l, 250);
    out = l.now();
  }(loop, woke));
  loop.run();
  EXPECT_EQ(woke, 250);
}

TEST(Sleep, SequentialSleepsAccumulate) {
  EventLoop loop;
  SimTime woke = -1;
  spawn([](EventLoop& l, SimTime& out) -> Task<void> {
    co_await sleep_for(l, 100);
    co_await sleep_for(l, 100);
    co_await sleep_for(l, 100);
    out = l.now();
  }(loop, woke));
  loop.run();
  EXPECT_EQ(woke, 300);
}

TEST(Sleep, ConcurrentSleepersInterleave) {
  EventLoop loop;
  std::vector<int> order;
  auto sleeper = [](EventLoop& l, std::vector<int>& o, Duration d,
                    int id) -> Task<void> {
    co_await sleep_for(l, d);
    o.push_back(id);
  };
  spawn(sleeper(loop, order, 30, 3));
  spawn(sleeper(loop, order, 10, 1));
  spawn(sleeper(loop, order, 20, 2));
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// when_all
// ---------------------------------------------------------------------------

TEST(WhenAll, GathersResultsInInputOrder) {
  EventLoop loop;
  auto delayed = [](EventLoop& l, Duration d, int v) -> Task<int> {
    co_await sleep_for(l, d);
    co_return v;
  };
  std::vector<int> results;
  spawn([](EventLoop& l, std::vector<int>& out,
           decltype(delayed)& mk) -> Task<void> {
    std::vector<Task<int>> tasks;
    tasks.push_back(mk(l, 30, 1));  // finishes last
    tasks.push_back(mk(l, 10, 2));
    tasks.push_back(mk(l, 20, 3));
    out = co_await when_all(l, std::move(tasks));
  }(loop, results, delayed));
  loop.run();
  EXPECT_EQ(results, (std::vector<int>{1, 2, 3}));
}

TEST(WhenAll, RunsConcurrentlyNotSequentially) {
  EventLoop loop;
  SimTime finished = -1;
  auto delayed = [](EventLoop& l, Duration d) -> Task<int> {
    co_await sleep_for(l, d);
    co_return 0;
  };
  spawn([](EventLoop& l, SimTime& out, decltype(delayed)& mk) -> Task<void> {
    std::vector<Task<int>> tasks;
    for (int i = 0; i < 10; ++i) tasks.push_back(mk(l, 100));
    co_await when_all(l, std::move(tasks));
    out = l.now();
  }(loop, finished, delayed));
  loop.run();
  EXPECT_EQ(finished, 100);  // parallel, not 1000
}

TEST(WhenAll, EmptyVectorCompletesImmediately) {
  EventLoop loop;
  bool done = false;
  spawn([](EventLoop& l, bool& out) -> Task<void> {
    auto r = co_await when_all(l, std::vector<Task<int>>{});
    out = r.empty();
  }(loop, done));
  loop.run();
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// FramePool
// ---------------------------------------------------------------------------

Task<int> small_frame() { co_return 1; }

Task<int> big_frame() {
  std::array<uint8_t, 5000> buf{};
  buf[1] = 2;
  co_await std::suspend_always{};
  co_return buf[0] + buf[1];
}

TEST(FramePool, LazyTaskDestroyedUnawaitedReturnsItsFrame) {
  { Task<int> warm = small_frame(); }
  const uint64_t before = allocs();
  for (int i = 0; i < 1000; ++i) {
    Task<int> t = small_frame();  // never started
    EXPECT_TRUE(t.valid());
  }
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(FramePool, FrameOverFourKilobytesFallsThroughToOperatorNew) {
  for (int i = 0; i < 3; ++i) {
    const uint64_t before = allocs();
    Task<int> t = big_frame();
    EXPECT_EQ(allocs() - before, 1u);
    EXPECT_GT(g_last_alloc_bytes.load(), FramePool::kMaxBytes);
  }
  // The pool hands a large request straight through and back.
  void* p = FramePool::allocate(FramePool::kMaxBytes + 1);
  FramePool::deallocate(p, FramePool::kMaxBytes + 1);
}

TEST(FramePool, SecondWhenAllMakesConstantGlobalAllocations) {
  constexpr int kTasks = 10000;
  EventLoop loop;
  auto item = [](EventLoop& l, int v) -> Task<int> {
    co_await yield(l);
    co_return v;
  };
  auto round = [&] {
    std::vector<Task<int>> tasks;
    tasks.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) tasks.push_back(item(loop, i));
    std::vector<int> out;
    spawn([](EventLoop& l, std::vector<Task<int>> ts,
             std::vector<int>& o) -> Task<void> {
      o = co_await when_all(l, std::move(ts));
    }(loop, std::move(tasks), out));
    loop.run();
    ASSERT_EQ(out.size(), static_cast<size_t>(kTasks));
    EXPECT_EQ(out.back(), kTasks - 1);
  };
  round();
  const uint64_t before = allocs();
  round();
  // Only the round's vectors allocate; no frame or promise state per task.
  EXPECT_LT(allocs() - before, 16u);
}

// ---------------------------------------------------------------------------
// AsyncQueue
// ---------------------------------------------------------------------------

TEST(AsyncQueue, PopWaitsForPush) {
  EventLoop loop;
  AsyncQueue<int> q(loop);
  int got = 0;
  spawn([](AsyncQueue<int>& queue, int& out) -> Task<void> {
    out = co_await queue.pop();
  }(q, got));
  EXPECT_EQ(got, 0);
  q.push(11);
  loop.run();
  EXPECT_EQ(got, 11);
}

TEST(AsyncQueue, BuffersWhenNoConsumer) {
  EventLoop loop;
  AsyncQueue<int> q(loop);
  q.push(1);
  q.push(2);
  std::vector<int> got;
  spawn([](AsyncQueue<int>& queue, std::vector<int>& out) -> Task<void> {
    out.push_back(co_await queue.pop());
    out.push_back(co_await queue.pop());
  }(q, got));
  loop.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(AsyncQueue, MultipleConsumersServedFifo) {
  EventLoop loop;
  AsyncQueue<int> q(loop);
  std::vector<int> got;
  auto consumer = [](AsyncQueue<int>& queue,
                     std::vector<int>& out) -> Task<void> {
    out.push_back(co_await queue.pop());
  };
  spawn(consumer(q, got));
  spawn(consumer(q, got));
  q.push(1);
  q.push(2);
  loop.run();
  EXPECT_EQ(got.size(), 2u);
}

}  // namespace
}  // namespace faastcc::sim
