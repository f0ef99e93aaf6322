#include "cassalite/sstable.hpp"

#include <algorithm>
#include <map>

namespace hpcla::cassalite {

SSTable::SSTable(std::uint64_t generation,
                 std::vector<Partition> sorted_partitions,
                 const ExtentOptions* extent_opts)
    : generation_(generation),
      columnar_(extent_opts != nullptr),
      bloom_(std::max<std::size_t>(sorted_partitions.size(), 8)) {
  partitions_.reserve(sorted_partitions.size());
  for (auto& p : sorted_partitions) {
    rows_ += p.rows.size();
    bloom_.insert(p.key);
    Stored s;
    s.key = std::move(p.key);
    if (columnar_) {
      s.extent = ColumnarExtent::encode(p.rows, *extent_opts);
      raw_bytes_ += s.extent.raw_bytes();
      encoded_bytes_ += s.extent.encoded_bytes();
    } else {
      s.rows = std::move(p.rows);
    }
    partitions_.push_back(std::move(s));
  }
}

std::shared_ptr<SSTable> SSTable::from_extent_file(
    std::shared_ptr<ExtentFile> file, const ExtentOptions& opts) {
  const ExtentFileFooter& footer = file->footer();
  auto table = std::shared_ptr<SSTable>(
      new SSTable(footer.generation, footer.partitions.size()));
  table->columnar_ = true;
  table->file_ = file;
  table->partitions_.reserve(footer.partitions.size());
  for (const auto& part : footer.partitions) {
    table->rows_ += static_cast<std::size_t>(part.rows);
    table->bloom_.insert(part.key);
    Stored s;
    s.key = part.key;
    s.extent = ColumnarExtent::from_file(file, part.groups, part.rows,
                                         part.raw_bytes, opts);
    table->raw_bytes_ += s.extent.raw_bytes();
    table->encoded_bytes_ += s.extent.encoded_bytes();
    table->partitions_.push_back(std::move(s));
  }
  return table;
}

void SSTable::persist_to(ExtentFileWriter& writer, ExtentFileFooter& footer) {
  for (auto& p : partitions_) {
    p.extent.persist(
        [&writer](std::string_view block) { return writer.append(block); });
    ExtentFilePartition part;
    part.key = p.key;
    part.rows = p.extent.row_count();
    part.raw_bytes = p.extent.raw_bytes();
    part.groups = p.extent.group_metas();
    footer.partitions.push_back(std::move(part));
  }
}

void SSTable::attach_file(const std::shared_ptr<ExtentFile>& file) {
  file_ = file;
  for (auto& p : partitions_) p.extent.attach_file(file);
}

bool SSTable::read(const std::string& partition_key, const LimitedSlice& want,
                   std::vector<Row>& out) const {
  if (!bloom_.may_contain(partition_key)) return false;
  const auto it = std::lower_bound(
      partitions_.begin(), partitions_.end(), partition_key,
      [](const Stored& p, const std::string& k) { return p.key < k; });
  if (it == partitions_.end() || it->key != partition_key) return true;
  if (columnar_) {
    it->extent.read(want, out);
    return true;
  }
  const auto& rows = it->rows;
  const auto [first, last] = want.select(rows);
  out.insert(out.end(), rows.begin() + static_cast<std::ptrdiff_t>(first),
             rows.begin() + static_cast<std::ptrdiff_t>(last));
  return true;
}

std::vector<std::string> SSTable::partition_keys() const {
  std::vector<std::string> keys;
  keys.reserve(partitions_.size());
  for (const auto& p : partitions_) keys.push_back(p.key);
  return keys;
}

std::shared_ptr<SSTable> compact(std::uint64_t new_generation,
                                 const std::vector<SSTablePtr>& inputs,
                                 const ExtentOptions* extent_opts) {
  // partition key -> clustering key -> newest row. std::map keeps both
  // levels sorted, which is exactly the SSTable layout invariant.
  std::map<std::string, std::map<ClusteringKey, Row>> merged;
  for (const auto& table : inputs) {
    table->for_each_partition([&](const std::string& key,
                                  const std::vector<Row>& part_rows) {
      auto& rows = merged[key];
      for (const auto& row : part_rows) {
        auto [it, inserted] = rows.try_emplace(row.key, row);
        if (!inserted && row.write_ts >= it->second.write_ts) {
          it->second = row;
        }
      }
    });
  }
  std::vector<SSTable::Partition> partitions;
  partitions.reserve(merged.size());
  for (auto& [key, rows] : merged) {
    SSTable::Partition p;
    p.key = key;
    p.rows.reserve(rows.size());
    for (auto& [_, row] : rows) p.rows.push_back(std::move(row));
    partitions.push_back(std::move(p));
  }
  return std::make_shared<SSTable>(new_generation, std::move(partitions),
                                   extent_opts);
}

}  // namespace hpcla::cassalite
