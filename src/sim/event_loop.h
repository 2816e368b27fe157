// Deterministic discrete-event loop.
//
// The entire FaaSTCC cluster — storage partitions, compute nodes, caches,
// clients and the network between them — runs on one of these.  Events are
// totally ordered by (timestamp, insertion sequence), so a given seed always
// produces the same execution, which the property tests rely on.
//
// The queue is a 4-ary heap over compact 40-byte event records (time, seq,
// two function pointers, a context word).  Coroutine resumptions are
// scheduled through schedule_resume*() as a raw handle, and network
// deliveries through schedule_raw_after() as a typed record the caller owns;
// neither allocates.  std::function closures remain supported for setup and
// timer paths via a boxed record.  Sifting moves PODs, never std::function
// objects.  The ordering is the same total order as the previous binary
// priority_queue, so schedules are bit-identical across the swap.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"

namespace faastcc::sim {

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop();

  SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute simulated time `t` (clamped to now).
  void schedule_at(SimTime t, std::function<void()> fn);

  // Schedules `fn` to run `d` microseconds from now.
  void schedule_after(Duration d, std::function<void()> fn) {
    schedule_at(now_ + (d > 0 ? d : 0), std::move(fn));
  }

  // Fast path: schedules a coroutine resumption without boxing a closure.
  // The handle is owned by its coroutine frame; a loop torn down with
  // resumptions still queued simply drops them (matching the previous
  // behaviour of dropping unrun closures).
  void schedule_resume_at(SimTime t, std::coroutine_handle<> h) {
    push(t, &EventLoop::run_handle, nullptr, h.address());
  }
  void schedule_resume_after(Duration d, std::coroutine_handle<> h) {
    schedule_resume_at(now_ + (d > 0 ? d : 0), h);
  }
  void schedule_resume(std::coroutine_handle<> h) {
    schedule_resume_at(now_, h);
  }

  // Typed-record path: `d` microseconds from now `run(ctx)` is invoked; a
  // loop torn down with the event still queued invokes `drop(ctx)` instead
  // (nullptr: nothing to release).  Exactly one of the two runs, so the
  // record can be freed by whichever does.
  void schedule_raw_after(Duration d, void (*run)(void*), void (*drop)(void*),
                          void* ctx) {
    push(now_ + (d > 0 ? d : 0), run, drop, ctx);
  }

  // Runs events until the queue drains or stop() is called.
  void run();

  // Runs events with time <= t (and leaves now() == t if the queue drained).
  void run_until(SimTime t);

  // Executes the single next event; returns false if the queue is empty.
  bool run_one();

  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  size_t pending() const { return heap_.size(); }
  uint64_t events_processed() const { return processed_; }

  // Message-buffer free list shared by everything running on this loop
  // (network, RPC endpoints); see BufferPool in common/serialize.h.
  BufferPool& buffer_pool() { return pool_; }

 private:
  // Compact record: invoking is `run(ctx)`, discarding without running is
  // `drop(ctx)` (nullptr drop == no-op, used by coroutine handles whose
  // frames are owned elsewhere).
  struct Event {
    SimTime time;
    uint64_t seq;
    void (*run)(void*);
    void (*drop)(void*);
    void* ctx;
  };

  static void run_handle(void* ctx) {
    std::coroutine_handle<>::from_address(ctx).resume();
  }
  static void run_closure(void* ctx);
  static void drop_closure(void* ctx);

  void push(SimTime t, void (*run)(void*), void (*drop)(void*), void* ctx);
  Event pop_min();

  // (time, seq) lexicographic order — identical to the old comparator.
  static bool before(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  static constexpr size_t kArity = 4;

  std::vector<Event> heap_;
  BufferPool pool_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace faastcc::sim
