#include "common/log.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace faastcc {
namespace {

LogLevel initial_level() {
  const char* env = std::getenv("FAASTCC_LOG");
  if (env == nullptr) return LogLevel::kWarn;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  return LogLevel::kWarn;
}

const LogLevel g_level = initial_level();

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kDebug: return "DEBUG";
  }
  return "?";
}

}  // namespace

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) <= static_cast<int>(g_level);
}

void log_write(LogLevel level, const std::string& msg) {
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}

}  // namespace faastcc
