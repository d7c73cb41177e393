#include "trace/trace_file.h"

#include <array>
#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace dresar {

namespace {

/// Parse a whole hexadecimal token, with an optional 0x prefix, into `out`.
bool parseHex(std::string_view s, Addr& out) {
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) s.remove_prefix(2);
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out, 16);
  return ec == std::errc() && ptr == end;
}

void putU32(std::ostream& os, std::uint32_t v) {
  std::array<char, 4> b{static_cast<char>(v), static_cast<char>(v >> 8),
                        static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  os.write(b.data(), b.size());
}

std::uint32_t getU32(std::istream& is) {
  std::array<unsigned char, 4> b{};
  is.read(reinterpret_cast<char*>(b.data()), b.size());
  return static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) | (static_cast<std::uint32_t>(b[3]) << 24);
}

void putU64(std::ostream& os, std::uint64_t v) {
  putU32(os, static_cast<std::uint32_t>(v));
  putU32(os, static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t getU64(std::istream& is) {
  const std::uint64_t lo = getU32(is);
  const std::uint64_t hi = getU32(is);
  return lo | (hi << 32);
}

}  // namespace

TraceWriter::TraceWriter(std::ostream& os, bool binary) : os_(os), binary_(binary) {
  if (binary_) {
    putU32(os_, kTraceMagic);
    putU32(os_, kTraceVersion);
  } else {
    os_ << "# dresar trace v" << kTraceVersion << "\n# <pid> <r|w> <hex-address>\n";
  }
}

void TraceWriter::write(const TraceRecord& r) {
  if (binary_) {
    // pid:2 | flags:2 | addr:8
    std::array<char, 4> head{static_cast<char>(r.pid), static_cast<char>(r.pid >> 8),
                             static_cast<char>(r.write ? 1 : 0), 0};
    os_.write(head.data(), head.size());
    putU64(os_, r.addr);
  } else {
    os_ << r.pid << ' ' << (r.write ? 'w' : 'r') << ' ' << std::hex << r.addr << std::dec
        << '\n';
  }
  ++count_;
}

TraceReader::TraceReader(std::istream& is) : is_(is) {
  const int c = is_.peek();
  if (c == 'C') {  // first byte of little-endian kTraceMagic ("CRTD" on disk)
    const std::uint32_t magic = getU32(is_);
    if (magic != kTraceMagic) throw std::runtime_error("trace: bad magic");
    const std::uint32_t version = getU32(is_);
    if (version != kTraceVersion) {
      throw std::runtime_error("trace: unsupported version " + std::to_string(version));
    }
    binary_ = true;
  }
}

bool TraceReader::next(TraceRecord& out) {
  if (binary_) {
    std::array<unsigned char, 4> head{};
    is_.read(reinterpret_cast<char*>(head.data()), head.size());
    if (is_.gcount() == 0) return false;
    if (is_.gcount() != static_cast<std::streamsize>(head.size())) {
      throw std::runtime_error("trace: truncated binary record");
    }
    out.pid = static_cast<NodeId>(head[0] | (head[1] << 8));
    out.write = head[2] != 0;
    out.addr = getU64(is_);
    if (!is_) throw std::runtime_error("trace: truncated binary record");
    ++count_;
    return true;
  }
  std::string line;
  while (std::getline(is_, line)) {
    ++line_;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint32_t pid = 0;
    std::string rw;
    std::string hex;
    std::string extra;
    Addr addr = 0;
    if (!(ls >> pid >> rw >> hex) || (rw != "r" && rw != "w") || !parseHex(hex, addr) ||
        ls >> extra) {
      throw std::runtime_error("trace: malformed line " + std::to_string(line_) + ": " + line);
    }
    out.pid = pid;
    out.write = rw == "w";
    out.addr = addr;
    ++count_;
    return true;
  }
  return false;
}

void dumpTrace(RefStream& gen, std::ostream& os, bool binary) {
  TraceWriter w(os, binary);
  TraceRecord r;
  while (gen.next(r)) w.write(r);
}

std::vector<TraceRecord> loadTrace(std::istream& is) {
  TraceReader rd(is);
  std::vector<TraceRecord> out;
  TraceRecord r;
  while (rd.next(r)) out.push_back(r);
  return out;
}

}  // namespace dresar
