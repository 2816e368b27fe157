// Tiny leveled logger.  Verbosity is controlled by the FAASTCC_LOG
// environment variable (error|warn|info|debug); the default is warn so
// tests and benchmarks stay quiet.
#pragma once

#include <sstream>
#include <string>

namespace faastcc {

enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

bool log_enabled(LogLevel level);
void log_write(LogLevel level, const std::string& msg);

}  // namespace faastcc

#define FAASTCC_LOG(level, expr)                            \
  do {                                                      \
    if (::faastcc::log_enabled(level)) {                    \
      std::ostringstream faastcc_log_os;                    \
      faastcc_log_os << expr;                               \
      ::faastcc::log_write(level, faastcc_log_os.str());    \
    }                                                       \
  } while (0)

#define LOG_ERROR(expr) FAASTCC_LOG(::faastcc::LogLevel::kError, expr)
#define LOG_WARN(expr) FAASTCC_LOG(::faastcc::LogLevel::kWarn, expr)
#define LOG_INFO(expr) FAASTCC_LOG(::faastcc::LogLevel::kInfo, expr)
#define LOG_DEBUG(expr) FAASTCC_LOG(::faastcc::LogLevel::kDebug, expr)
