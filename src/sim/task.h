// Lazy coroutine task for simulated processes.
//
// Every logical thread in the cluster — an executor running a function, a
// storage partition serving a request, a closed-loop client — is a Task.
// Tasks are lazy (they start when awaited) and resume their awaiter through
// symmetric transfer, so arbitrarily long await chains use constant stack.
// Frames come from the per-thread FramePool (sim/frame_pool.h).
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/frame_pool.h"

namespace faastcc::sim {

template <typename T>
class Task;

namespace detail {

// Coroutine frames of a promise type deriving from this are pooled.
struct PooledFrame {
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }
};

template <typename T>
struct TaskPromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct TaskPromise : TaskPromiseBase<T> {
  std::optional<T> value;

  Task<T> get_return_object();
  template <typename U>
  void return_value(U&& v) {
    value.emplace(std::forward<U>(v));
  }
  T take() {
    if (this->exception) std::rethrow_exception(this->exception);
    return std::move(*value);
  }
};

template <>
struct TaskPromise<void> : TaskPromiseBase<void> {
  Task<void> get_return_object();
  void return_void() noexcept {}
  void take() {
    if (exception) std::rethrow_exception(exception);
  }
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  // Awaiting a task starts it and suspends the awaiter until it completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return handle.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;  // symmetric transfer into the task body
      }
      T await_resume() { return handle.promise().take(); }
    };
    assert(handle_);
    return Awaiter{handle_};
  }

  // Releases ownership; used by detach() below.
  Handle release() { return std::exchange(handle_, {}); }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

namespace detail {

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

// Fire-and-forget wrapper used by spawn(); destroys itself on completion.
struct Detached {
  struct promise_type : PooledFrame {
    Detached get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() noexcept { std::terminate(); }
  };
};

inline Detached spawn_impl(Task<void> task) { co_await std::move(task); }

}  // namespace detail

// Starts `task` running as an independent simulated process.  Exceptions
// escaping a spawned task terminate the program: simulated components
// signal failure through return values, never through stray exceptions.
inline void spawn(Task<void> task) { detail::spawn_impl(std::move(task)); }

}  // namespace faastcc::sim
