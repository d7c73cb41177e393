#include "common/log.h"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "common/types.h"

namespace dresar {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Error};
// Serializes logLine(): concurrent harness workers must not interleave
// characters of different lines on stderr.
std::mutex g_logMutex;
}  // namespace

LogLevel logLevel() { return g_level.load(std::memory_order_relaxed); }
void setLogLevel(LogLevel lvl) { g_level.store(lvl, std::memory_order_relaxed); }

namespace detail {
void logLine(LogLevel lvl, const std::string& msg) {
  const char* tag = lvl == LogLevel::Error ? "E" : (lvl == LogLevel::Info ? "I" : "T");
  const std::lock_guard<std::mutex> lock(g_logMutex);
  std::fprintf(stderr, "[%s] %s\n", tag, msg.c_str());
}
}  // namespace detail

std::string toString(Endpoint ep) {
  std::string s(1, ep.kind == EndpointKind::Proc ? 'P' : 'M');
  s += std::to_string(ep.node);
  return s;
}

std::string toHex(NodeMask mask) {
  if (mask == 0) return "0x0";
  char digits[33];
  int n = 0;
  while (mask != 0) {
    digits[n++] = "0123456789abcdef"[static_cast<unsigned>(mask & 0xF)];
    mask >>= 4;
  }
  std::string out = "0x";
  while (n > 0) out.push_back(digits[--n]);
  return out;
}

const char* toString(ReadService s) {
  switch (s) {
    case ReadService::L1Hit: return "L1Hit";
    case ReadService::L2Hit: return "L2Hit";
    case ReadService::WriteBufferHit: return "WriteBufferHit";
    case ReadService::CleanMemory: return "CleanMemory";
    case ReadService::CtoCHome: return "CtoCHome";
    case ReadService::CtoCSwitchDir: return "CtoCSwitchDir";
    case ReadService::SwitchWriteBack: return "SwitchWriteBack";
    case ReadService::SwitchCache: return "SwitchCache";
  }
  return "?";
}

}  // namespace dresar
