#include "durable/snapshot.h"

#include <algorithm>
#include <cstdio>
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

namespace fs = std::filesystem;

namespace {

constexpr char kSnapMagic[4] = {'B', 'Q', 'S', 'S'};
constexpr std::uint8_t kSnapVersion = 1;
constexpr std::size_t kHeaderBytes = 24;  // magic+ver+pad+slot+blob_len

std::string slot_name(const char* prefix, std::size_t slot,
                      const char* ext) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s-%012zu%s", prefix, slot, ext);
  return buf;
}

/// Parses "<prefix>-NNNN<ext>" back to its slot; nullopt for foreign files.
std::optional<std::size_t> parse_slot(const std::string& name,
                                      const char* prefix, const char* ext) {
  const std::string pre = std::string(prefix) + "-";
  if (name.size() <= pre.size() + std::strlen(ext)) return std::nullopt;
  if (name.compare(0, pre.size(), pre) != 0) return std::nullopt;
  if (name.compare(name.size() - std::strlen(ext), std::strlen(ext), ext) !=
      0)
    return std::nullopt;
  std::size_t slot = 0;
  for (std::size_t i = pre.size(); i < name.size() - std::strlen(ext); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    slot = slot * 10 + static_cast<std::size_t>(name[i] - '0');
  }
  return slot;
}

}  // namespace

void DurabilityConfig::validate() const {
  BURSTQ_REQUIRE(!dir.empty(), "durability dir must be non-empty");
  BURSTQ_REQUIRE(snapshot_every >= 1,
                 "snapshot_every must be at least 1 slot");
}

SnapshotStore::SnapshotStore(std::string dir, bool fsync)
    : dir_(std::move(dir)), fsync_(fsync) {
  BURSTQ_REQUIRE(!dir_.empty(), "durability dir must be non-empty");
  fs::create_directories(dir_);
}

std::string SnapshotStore::snapshot_path(std::size_t slot) const {
  return dir_ + "/" + slot_name("snap", slot, ".bqss");
}

std::string SnapshotStore::wal_path(std::size_t slot) const {
  return dir_ + "/" + slot_name("wal", slot, ".bqwl");
}

void SnapshotStore::write_snapshot(std::size_t slot,
                                   const std::string& blob) {
  const std::string_view parts[] = {blob};
  write_snapshot(slot, parts, obs::trace_detail::crc32(blob));
}

void SnapshotStore::write_snapshot(
    std::size_t slot, std::span<const std::string_view> blob_parts,
    std::uint32_t blob_crc) {
  std::uint64_t blob_len = 0;
  for (const std::string_view part : blob_parts) blob_len += part.size();
  std::string header;
  header.append(kSnapMagic, sizeof kSnapMagic);
  header.push_back(static_cast<char>(kSnapVersion));
  header.append(3, '\0');
  obs::trace_detail::put_u64(header, slot);
  obs::trace_detail::put_u64(header, blob_len);
  obs::trace_detail::put_u32(header, blob_crc);

  const std::string final_path = snapshot_path(slot);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
    BURSTQ_REQUIRE(out != nullptr,
                   "cannot create snapshot tmp file: " + tmp_path);
    bool ok =
        std::fwrite(header.data(), 1, header.size(), out) == header.size();
    for (const std::string_view part : blob_parts)
      if (!part.empty())
        ok = ok &&
             std::fwrite(part.data(), 1, part.size(), out) == part.size();
    ok = ok && std::fflush(out) == 0;
#if !defined(_WIN32)
    if (ok && fsync_) {
      ::fsync(::fileno(out));
      BURSTQ_COUNT("durable.snapshot.fsyncs", 1);
    }
#endif
    std::fclose(out);
    BURSTQ_REQUIRE(ok, "snapshot write failed: " + tmp_path);
  }
  fs::rename(tmp_path, final_path);
  BURSTQ_COUNT("durable.snapshot.writes", 1);
  BURSTQ_GAUGE("durable.snapshot.bytes",
               static_cast<double>(header.size() + blob_len));
}

SnapshotStore::Loaded SnapshotStore::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in.is_open())
    throw CorruptState("snapshot " + path + ": cannot open");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  const auto corrupt = [&path](std::size_t offset,
                               const char* what) -> CorruptState {
    return CorruptState("snapshot " + path + ": corrupt at byte " +
                        std::to_string(offset) + ": " + what);
  };
  if (data.size() < kHeaderBytes) throw corrupt(data.size(), "truncated header");
  if (std::memcmp(data.data(), kSnapMagic, sizeof kSnapMagic) != 0)
    throw corrupt(0, "bad magic (expected BQSS)");
  if (static_cast<std::uint8_t>(data[4]) != kSnapVersion)
    throw corrupt(4, "unsupported snapshot version");

  std::size_t pos = 8;
  std::uint64_t slot = 0;
  std::uint64_t blob_len = 0;
  obs::trace_detail::get_u64(data, pos, slot);
  obs::trace_detail::get_u64(data, pos, blob_len);
  std::uint32_t crc = 0;
  if (!obs::trace_detail::get_u32(data, pos, crc))
    throw corrupt(pos, "truncated checksum");
  if (pos + blob_len != data.size())
    throw corrupt(pos, "blob length disagrees with file size");
  const std::string_view blob(data.data() + pos, blob_len);
  if (obs::trace_detail::crc32(blob) != crc) {
    // Name the first differing byte so an operator can see HOW far the
    // good prefix extends, not just that the checksum failed.
    throw corrupt(pos, "blob checksum mismatch");
  }

  Loaded out;
  out.slot = static_cast<std::size_t>(slot);
  out.blob = std::string(blob);
  out.path = path;
  return out;
}

std::vector<std::size_t> SnapshotStore::snapshot_slots() const {
  std::vector<std::size_t> slots;
  if (!fs::exists(dir_)) return slots;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const auto slot =
        parse_slot(entry.path().filename().string(), "snap", ".bqss");
    if (slot) slots.push_back(*slot);
  }
  std::sort(slots.begin(), slots.end());
  return slots;
}

std::optional<SnapshotStore::Loaded> SnapshotStore::load_newest() const {
  const std::vector<std::size_t> slots = snapshot_slots();
  if (slots.empty()) return std::nullopt;
  return load_file(snapshot_path(slots.back()));
}

void SnapshotStore::prune(std::size_t keep) const {
  std::vector<std::size_t> slots = snapshot_slots();
  if (slots.size() <= keep) return;
  for (std::size_t i = 0; i + keep < slots.size(); ++i) {
    std::error_code ec;  // best-effort: a locked file is not fatal
    fs::remove(snapshot_path(slots[i]), ec);
    fs::remove(wal_path(slots[i]), ec);
  }
}

}  // namespace burstq::durable
