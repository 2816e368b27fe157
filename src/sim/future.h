// Single-producer, single-consumer future for cross-process signalling
// inside the simulation (RPC responses, DAG completion notifications,
// executor wake-ups).  Fulfilment resumes the waiter through the event
// loop, never inline, which keeps event ordering well-defined and stacks
// flat.  The shared state comes from the per-thread FramePool.
#pragma once

#include <cassert>
#include <coroutine>
#include <memory>
#include <optional>
#include <utility>

#include "sim/event_loop.h"
#include "sim/frame_pool.h"

namespace faastcc::sim {

namespace detail {

template <typename T>
struct FutureState {
  explicit FutureState(EventLoop& l) : loop(&l) {}
  EventLoop* loop;
  std::optional<T> value;
  std::coroutine_handle<> waiter;

  void fulfil(T v) {
    assert(!value.has_value() && "future fulfilled twice");
    value.emplace(std::move(v));
    if (waiter) {
      loop->schedule_resume(std::exchange(waiter, nullptr));
    }
  }
};

}  // namespace detail

template <typename T>
class Future;

template <typename T>
class Promise {
 public:
  explicit Promise(EventLoop& loop)
      : state_(std::allocate_shared<detail::FutureState<T>>(
            FramePoolAllocator<detail::FutureState<T>>(), loop)) {}

  void set_value(T v) const { state_->fulfil(std::move(v)); }
  bool fulfilled() const { return state_->value.has_value(); }

  Future<T> get_future() const;

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

template <typename T>
class Future {
 public:
  explicit Future(std::shared_ptr<detail::FutureState<T>> s)
      : state_(std::move(s)) {}

  bool ready() const { return state_->value.has_value(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::shared_ptr<detail::FutureState<T>> state;
      bool await_ready() const noexcept { return state->value.has_value(); }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        assert(!state->waiter && "future awaited twice");
        state->waiter = h;
      }
      T await_resume() { return std::move(*state->value); }
    };
    return Awaiter{state_};
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

template <typename T>
Future<T> Promise<T>::get_future() const {
  return Future<T>(state_);
}

// Suspends the current task for `d` simulated microseconds.
inline auto sleep_for(EventLoop& loop, Duration d) {
  struct Awaiter {
    EventLoop& loop;
    Duration d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      loop.schedule_resume_after(d, h);
    }
    void await_resume() const noexcept {}
  };
  return Awaiter{loop, d};
}

// Yields to the event loop, resuming at the current simulated time after
// already-queued events.
inline auto yield(EventLoop& loop) { return sleep_for(loop, 0); }

}  // namespace faastcc::sim
