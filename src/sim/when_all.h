// Concurrency combinator: runs tasks in parallel, completes when all do.
#pragma once

#include <utility>
#include <vector>

#include "sim/future.h"
#include "sim/task.h"

namespace faastcc::sim {

namespace detail {

template <typename T>
Task<void> complete_into(Task<T> task, Promise<T> promise) {
  promise.set_value(co_await std::move(task));
}

}  // namespace detail

// Starts every task concurrently and returns their results in input order.
template <typename T>
Task<std::vector<T>> when_all(EventLoop& loop, std::vector<Task<T>> tasks) {
  std::vector<Future<T>> futures;
  futures.reserve(tasks.size());
  for (auto& t : tasks) {
    Promise<T> p(loop);
    futures.push_back(p.get_future());
    spawn(detail::complete_into(std::move(t), p));
  }
  std::vector<T> out;
  out.reserve(futures.size());
  for (auto& f : futures) out.push_back(co_await std::move(f));
  co_return out;
}

}  // namespace faastcc::sim
