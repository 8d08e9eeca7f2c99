#include "durable/wal.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "durable/state_codec.h"
#include "obs/obs.h"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace burstq::durable {

namespace {

constexpr char kWalMagic[4] = {'B', 'Q', 'W', 'L'};
constexpr std::uint8_t kWalVersion = 1;
constexpr std::size_t kHeaderBytes = 16;

void flush_file(std::FILE* f, bool fsync, const std::string& path) {
  BURSTQ_REQUIRE(std::fflush(f) == 0, "WAL flush failed: " + path);
#if !defined(_WIN32)
  if (fsync) {
    ::fsync(::fileno(f));
    BURSTQ_COUNT("durable.wal.fsyncs", 1);
  }
#else
  (void)fsync;
#endif
}

}  // namespace

WalWriter::WalWriter(std::string path, std::size_t base_slot, bool fsync)
    : path_(std::move(path)), fsync_(fsync) {
  out_ = std::fopen(path_.c_str(), "wb");
  BURSTQ_REQUIRE(out_ != nullptr, "cannot create WAL file: " + path_);
  std::string header;
  header.append(kWalMagic, sizeof kWalMagic);
  header.push_back(static_cast<char>(kWalVersion));
  header.append(3, '\0');
  obs::trace_detail::put_u64(header, base_slot);
  BURSTQ_REQUIRE(
      std::fwrite(header.data(), 1, header.size(), out_) == header.size(),
      "WAL header write failed: " + path_);
  bytes_ = header.size();
  flush_file(out_, fsync_, path_);
}

WalWriter::~WalWriter() {
  if (out_ != nullptr) std::fclose(out_);
}

void WalWriter::append(WalRecord type, std::string payload) {
  pending_.emplace_back(static_cast<std::uint8_t>(type), std::move(payload));
}

std::string WalWriter::commit(std::size_t slot, std::uint32_t state_crc) {
  StateWriter payload;
  payload.varint(slot);
  payload.varint(state_crc);
  payload.varint(pending_.size());
  for (const auto& [type, bytes] : pending_) {
    payload.u8(type);
    payload.str(bytes);
  }
  pending_.clear();

  std::string group;
  obs::trace_detail::put_u32(
      group, static_cast<std::uint32_t>(payload.data().size()));
  obs::trace_detail::put_u32(group,
                             obs::trace_detail::crc32(payload.data()));
  group += payload.data();

  BURSTQ_REQUIRE(
      std::fwrite(group.data(), 1, group.size(), out_) == group.size(),
      "WAL group write failed: " + path_);
  bytes_ += group.size();
  ++groups_;
  flush_file(out_, fsync_, path_);
  BURSTQ_COUNT("durable.wal.commits", 1);
  return group;
}

WalScan scan_wal(const std::string& path) {
  WalScan scan;
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in.is_open()) return scan;  // no WAL yet: empty, not torn

  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  if (data.size() < kHeaderBytes ||
      std::memcmp(data.data(), kWalMagic, sizeof kWalMagic) != 0 ||
      static_cast<std::uint8_t>(data[4]) != kWalVersion) {
    scan.torn = !data.empty();
    return scan;  // header never made it: nothing recoverable here
  }
  scan.present = true;
  std::size_t pos = 8;
  {
    std::uint64_t base = 0;
    obs::trace_detail::get_u64(data, pos, base);
    scan.base_slot = static_cast<std::size_t>(base);
  }
  scan.valid_bytes = kHeaderBytes;

  while (pos < data.size()) {
    const std::size_t group_start = pos;
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    if (!obs::trace_detail::get_u32(data, pos, len) ||
        !obs::trace_detail::get_u32(data, pos, crc) ||
        pos + len > data.size()) {
      scan.torn = true;  // partial frame: crash mid-write
      break;
    }
    const std::string_view payload(data.data() + pos, len);
    if (obs::trace_detail::crc32(payload) != crc) {
      scan.torn = true;  // bit flip or torn payload
      break;
    }
    WalGroup group;
    try {
      StateReader r(payload, path + " group " +
                                 std::to_string(scan.groups.size()));
      group.slot = static_cast<std::size_t>(r.varint());
      group.state_crc = static_cast<std::uint32_t>(r.varint());
      const std::uint64_t n = r.varint();
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto type = static_cast<WalRecord>(r.u8());
        group.records.emplace_back(type, r.str());
      }
      r.expect_done();
    } catch (const CorruptState&) {
      // CRC matched but the payload is not a well-formed group — only
      // possible with deliberate corruption; still just a dead tail.
      scan.torn = true;
      break;
    }
    pos += len;
    group.bytes = data.substr(group_start, pos - group_start);
    scan.groups.push_back(std::move(group));
    scan.valid_bytes = pos;
  }
  return scan;
}

}  // namespace burstq::durable
