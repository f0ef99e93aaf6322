#include "cassalite/memtable.hpp"

#include <algorithm>

namespace hpcla::cassalite {

std::size_t Memtable::put(const std::string& partition_key, Row row) {
  auto& rows = partitions_[partition_key];
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), row, [](const Row& a, const Row& b) {
        return a.key.compare(b.key) == std::strong_ordering::less;
      });
  std::size_t added = 0;
  if (it != rows.end() && it->key == row.key) {
    // Same clustering key: last-write-wins.
    if (row.write_ts >= it->write_ts) {
      const std::size_t old_bytes = it->memory_bytes();
      added = row.memory_bytes();
      bytes_ += added;
      bytes_ -= std::min(bytes_, old_bytes);
      *it = std::move(row);
      added = 0;  // no net new row
    }
    return added;
  }
  added = row.memory_bytes() + partition_key.size();
  rows.insert(it, std::move(row));
  ++rows_;
  bytes_ += added;
  return added;
}

void Memtable::read(const std::string& partition_key,
                    const LimitedSlice& want, std::vector<Row>& out) const {
  const auto part = partitions_.find(partition_key);
  if (part == partitions_.end()) return;
  const auto& rows = part->second;
  const auto [first, last] = want.select(rows);
  out.insert(out.end(), rows.begin() + static_cast<std::ptrdiff_t>(first),
             rows.begin() + static_cast<std::ptrdiff_t>(last));
}

std::vector<std::string> Memtable::partition_keys() const {
  std::vector<std::string> out;
  out.reserve(partitions_.size());
  for (const auto& [k, _] : partitions_) out.push_back(k);
  return out;
}

std::map<std::string, std::vector<Row>> Memtable::drain() {
  std::map<std::string, std::vector<Row>> out;
  out.swap(partitions_);
  rows_ = 0;
  bytes_ = 0;
  return out;
}

}  // namespace hpcla::cassalite
