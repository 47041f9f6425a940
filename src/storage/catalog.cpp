#include "storage/catalog.hpp"

#include <algorithm>
#include <sstream>

#include "common/hash.hpp"

namespace everest::storage {

namespace {
constexpr std::uint32_t kSnapshotMagic = 0x45565343u;  // "EVSC"
constexpr std::uint32_t kSnapshotVersion = 1;
}  // namespace

bool Catalog::apply(const LogRecord& record) {
  if (record.seq == 0 || record.seq <= last_seq_) return false;
  last_seq_ = record.seq;
  switch (record.type) {
    case LogRecordType::kPut: {
      // Fresh content supersedes every older copy, RAM and disk alike.
      drop_stale(record.object, record.version);
      ObjectMeta& meta = objects_[record.object];
      meta.bytes = record.bytes;
      meta.num_shards = record.shard;  // kPut reuses the field
      meta.version = record.version;
      break;
    }
    case LogRecordType::kPlace: {
      std::vector<std::uint64_t>& holders = ram_[record.key()];
      if (std::find(holders.begin(), holders.end(), record.node) ==
          holders.end()) {
        holders.push_back(record.node);
      }
      break;
    }
    case LogRecordType::kRelease: {
      auto it = ram_.find(record.key());
      if (it != ram_.end()) {
        auto& holders = it->second;
        holders.erase(std::remove(holders.begin(), holders.end(), record.node),
                      holders.end());
        if (holders.empty()) ram_.erase(it);
      }
      break;
    }
    case LogRecordType::kInvalidate: {
      drop_stale(record.object, record.version);
      auto it = objects_.find(record.object);
      if (it != objects_.end()) it->second.version = record.version;
      break;
    }
    case LogRecordType::kDemote: {
      DiskResidency& res = disk_[record.key()];
      res.nodes.insert(record.node);
      res.bytes = record.bytes;
      break;
    }
    case LogRecordType::kDiskErase: {
      auto it = disk_.find(record.key());
      if (it != disk_.end()) {
        it->second.nodes.erase(record.node);
        if (it->second.nodes.empty()) disk_.erase(it);
      }
      break;
    }
    case LogRecordType::kPromote:
    case LogRecordType::kSeal:
      // Advisory: sequence advances, durable state does not.
      break;
  }
  return true;
}

void Catalog::drop_stale(std::uint64_t object, std::uint64_t version) {
  for (auto it = ram_.lower_bound(data::ShardKey{object, 0, 0});
       it != ram_.end() && it->first.object == object;) {
    it = it->first.version < version ? ram_.erase(it) : std::next(it);
  }
  for (auto it = disk_.lower_bound(data::ShardKey{object, 0, 0});
       it != disk_.end() && it->first.object == object;) {
    it = it->first.version < version ? disk_.erase(it) : std::next(it);
  }
}

std::string Catalog::encode() const {
  std::string out;
  put_u32(out, kSnapshotMagic);
  put_u32(out, kSnapshotVersion);
  put_u64(out, last_seq_);

  put_u64(out, objects_.size());
  for (const auto& [id, meta] : objects_) {
    put_u64(out, id);
    put_f64(out, meta.bytes);
    put_u32(out, meta.num_shards);
    put_u64(out, meta.version);
  }

  std::uint64_t ram_entries = 0;
  for (const auto& [key, holders] : ram_) ram_entries += holders.size();
  put_u64(out, ram_entries);
  for (const auto& [key, holders] : ram_) {
    for (std::uint64_t node : holders) {
      put_u64(out, key.object);
      put_u32(out, key.shard);
      put_u64(out, key.version);
      put_u64(out, node);
    }
  }

  std::uint64_t disk_entries = 0;
  for (const auto& [key, res] : disk_) disk_entries += res.nodes.size();
  put_u64(out, disk_entries);
  for (const auto& [key, res] : disk_) {
    for (std::uint64_t node : res.nodes) {
      put_u64(out, key.object);
      put_u32(out, key.shard);
      put_u64(out, key.version);
      put_u64(out, node);
      put_f64(out, res.bytes);
    }
  }

  put_u32(out, crc32(out));
  return out;
}

Result<Catalog> Catalog::decode(std::string_view data) {
  if (data.size() < 4) return DataLoss("snapshot shorter than its checksum");
  const std::string_view body = data.substr(0, data.size() - 4);
  ByteReader tail(data.substr(data.size() - 4));
  if (tail.u32() != crc32(body)) {
    return DataLoss("snapshot checksum mismatch");
  }

  ByteReader r(body);
  if (r.u32() != kSnapshotMagic) return DataLoss("bad snapshot magic");
  if (r.u32() != kSnapshotVersion) return DataLoss("unknown snapshot version");

  Catalog catalog;
  catalog.last_seq_ = r.u64();

  const std::uint64_t num_objects = r.u64();
  for (std::uint64_t i = 0; r.ok() && i < num_objects; ++i) {
    const std::uint64_t id = r.u64();
    ObjectMeta meta;
    meta.bytes = r.f64();
    meta.num_shards = r.u32();
    meta.version = r.u64();
    catalog.objects_[id] = meta;
  }

  const std::uint64_t ram_entries = r.u64();
  for (std::uint64_t i = 0; r.ok() && i < ram_entries; ++i) {
    data::ShardKey key;
    key.object = r.u64();
    key.shard = r.u32();
    key.version = r.u64();
    catalog.ram_[key].push_back(r.u64());
  }

  const std::uint64_t disk_entries = r.u64();
  for (std::uint64_t i = 0; r.ok() && i < disk_entries; ++i) {
    data::ShardKey key;
    key.object = r.u64();
    key.shard = r.u32();
    key.version = r.u64();
    const std::uint64_t node = r.u64();
    const double bytes = r.f64();
    DiskResidency& res = catalog.disk_[key];
    res.nodes.insert(node);
    res.bytes = bytes;
  }

  if (!r.ok() || r.remaining() != 0) {
    return DataLoss("snapshot body malformed");
  }
  return catalog;
}

std::uint64_t Catalog::fingerprint() const { return fnv1a(encode()); }

std::string Catalog::to_string() const {
  std::size_t ram_entries = 0;
  for (const auto& [key, holders] : ram_) ram_entries += holders.size();
  std::size_t disk_entries = 0;
  for (const auto& [key, res] : disk_) disk_entries += res.nodes.size();
  std::ostringstream os;
  os << "objects=" << objects_.size() << " ram=" << ram_entries
     << " disk=" << disk_entries << " seq=" << last_seq_;
  return os.str();
}

}  // namespace everest::storage
