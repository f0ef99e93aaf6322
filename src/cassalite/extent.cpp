#include "cassalite/extent.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "cassalite/extent_file.hpp"
#include "common/block_cache.hpp"
#include "common/block_codec.hpp"
#include "common/status.hpp"

namespace hpcla::cassalite {
namespace {

using codec::get_varint;
using codec::put_varint;
using codec::zigzag_decode;
using codec::zigzag_encode;

// Column kinds. A column is "typed" only when every value shares the type;
// any mixture (nulls included) falls back to the tagged kind.
enum ColumnKind : std::uint8_t {
  kAllNull = 0,
  kInt64Delta = 1,     // zigzag(delta) varints
  kDoubleRaw = 2,      // 8 raw bytes each (bit-exact)
  kTextDict = 3,       // dictionary + varint indexes
  kTextRaw = 4,        // high-cardinality fallback: varint len + bytes
  kBoolPacked = 5,     // bitpacked, 8 per byte
  kMixed = 6,          // per-value tag + payload
};

enum MixedTag : std::uint8_t {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagInt = 3,
  kTagDouble = 4,
  kTagText = 5,
};

void put_double(std::string& out, double v) {
  char buf[sizeof(double)];
  std::memcpy(buf, &v, sizeof(double));
  out.append(buf, sizeof(double));
}

const char* get_double(const char* p, const char* end, double& v) {
  if (static_cast<std::size_t>(end - p) < sizeof(double)) return nullptr;
  std::memcpy(&v, p, sizeof(double));
  return p + sizeof(double);
}

void put_string(std::string& out, const std::string& s) {
  put_varint(out, s.size());
  out.append(s);
}

const char* get_string(const char* p, const char* end, std::string& s) {
  std::uint64_t len = 0;
  p = get_varint(p, end, len);
  if (!p || static_cast<std::uint64_t>(end - p) < len) return nullptr;
  s.assign(p, static_cast<std::size_t>(len));
  return p + len;
}

void encode_value_column(const std::vector<const Value*>& values,
                         std::string& out) {
  const std::size_t n = values.size();
  bool all_null = true, all_bool = true, all_int = true, all_double = true,
       all_text = true;
  for (const Value* v : values) {
    all_null &= v->is_null();
    all_bool &= v->is_bool();
    all_int &= v->is_int();
    all_double &= v->is_double();
    all_text &= v->is_text();
  }
  if (n == 0 || all_null) {
    out.push_back(static_cast<char>(kAllNull));
    return;
  }
  if (all_int) {
    out.push_back(static_cast<char>(kInt64Delta));
    std::int64_t prev = 0;
    for (const Value* v : values) {
      const std::int64_t x = v->as_int();
      put_varint(out, zigzag_encode(x - prev));
      prev = x;
    }
    return;
  }
  if (all_double) {
    out.push_back(static_cast<char>(kDoubleRaw));
    for (const Value* v : values) put_double(out, v->as_double());
    return;
  }
  if (all_bool) {
    out.push_back(static_cast<char>(kBoolPacked));
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (values[i]->as_bool()) byte |= static_cast<std::uint8_t>(1u << (i % 8));
      if (i % 8 == 7 || i + 1 == n) {
        out.push_back(static_cast<char>(byte));
        byte = 0;
      }
    }
    return;
  }
  if (all_text) {
    // First-appearance-order dictionary; fall back to raw strings when the
    // column is too distinct for the indexes to pay for the dictionary.
    std::unordered_map<std::string_view, std::uint64_t> ids;
    std::vector<const std::string*> dict;
    ids.reserve(n);
    for (const Value* v : values) {
      const std::string& s = v->as_text();
      if (ids.try_emplace(s, dict.size()).second) dict.push_back(&s);
    }
    if (dict.size() * 2 <= n && dict.size() <= 65535) {
      out.push_back(static_cast<char>(kTextDict));
      put_varint(out, dict.size());
      for (const std::string* s : dict) put_string(out, *s);
      for (const Value* v : values) put_varint(out, ids[v->as_text()]);
    } else {
      out.push_back(static_cast<char>(kTextRaw));
      for (const Value* v : values) put_string(out, v->as_text());
    }
    return;
  }
  out.push_back(static_cast<char>(kMixed));
  for (const Value* v : values) {
    if (v->is_null()) {
      out.push_back(static_cast<char>(kTagNull));
    } else if (v->is_bool()) {
      out.push_back(static_cast<char>(v->as_bool() ? kTagTrue : kTagFalse));
    } else if (v->is_int()) {
      out.push_back(static_cast<char>(kTagInt));
      put_varint(out, zigzag_encode(v->as_int()));
    } else if (v->is_double()) {
      out.push_back(static_cast<char>(kTagDouble));
      put_double(out, v->as_double());
    } else {
      out.push_back(static_cast<char>(kTagText));
      put_string(out, v->as_text());
    }
  }
}

const char* decode_value_column(const char* p, const char* end, std::size_t n,
                                std::vector<Value>& out) {
  out.clear();
  out.reserve(n);
  if (p >= end) return nullptr;
  const auto kind = static_cast<std::uint8_t>(*p++);
  switch (kind) {
    case kAllNull:
      out.assign(n, Value());
      return p;
    case kInt64Delta: {
      std::int64_t prev = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t zz = 0;
        p = get_varint(p, end, zz);
        if (!p) return nullptr;
        prev += zigzag_decode(zz);
        out.emplace_back(prev);
      }
      return p;
    }
    case kDoubleRaw: {
      for (std::size_t i = 0; i < n; ++i) {
        double d = 0;
        p = get_double(p, end, d);
        if (!p) return nullptr;
        out.emplace_back(d);
      }
      return p;
    }
    case kBoolPacked: {
      std::uint8_t byte = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 8 == 0) {
          if (p >= end) return nullptr;
          byte = static_cast<std::uint8_t>(*p++);
        }
        out.emplace_back((byte >> (i % 8) & 1) != 0);
      }
      return p;
    }
    case kTextDict: {
      std::uint64_t dict_size = 0;
      p = get_varint(p, end, dict_size);
      if (!p) return nullptr;
      std::vector<std::string> dict(static_cast<std::size_t>(dict_size));
      for (auto& s : dict) {
        p = get_string(p, end, s);
        if (!p) return nullptr;
      }
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t id = 0;
        p = get_varint(p, end, id);
        if (!p || id >= dict.size()) return nullptr;
        out.emplace_back(dict[static_cast<std::size_t>(id)]);
      }
      return p;
    }
    case kTextRaw: {
      for (std::size_t i = 0; i < n; ++i) {
        std::string s;
        p = get_string(p, end, s);
        if (!p) return nullptr;
        out.emplace_back(std::move(s));
      }
      return p;
    }
    case kMixed: {
      for (std::size_t i = 0; i < n; ++i) {
        if (p >= end) return nullptr;
        const auto tag = static_cast<std::uint8_t>(*p++);
        switch (tag) {
          case kTagNull:
            out.emplace_back();
            break;
          case kTagFalse:
            out.emplace_back(false);
            break;
          case kTagTrue:
            out.emplace_back(true);
            break;
          case kTagInt: {
            std::uint64_t zz = 0;
            p = get_varint(p, end, zz);
            if (!p) return nullptr;
            out.emplace_back(zigzag_decode(zz));
            break;
          }
          case kTagDouble: {
            double d = 0;
            p = get_double(p, end, d);
            if (!p) return nullptr;
            out.emplace_back(d);
            break;
          }
          case kTagText: {
            std::string s;
            p = get_string(p, end, s);
            if (!p) return nullptr;
            out.emplace_back(std::move(s));
            break;
          }
          default:
            return nullptr;
        }
      }
      return p;
    }
    default:
      return nullptr;
  }
}

std::size_t decoded_rows_bytes(const std::vector<Row>& rows) {
  std::size_t total = 0;
  for (const Row& r : rows) total += r.memory_bytes();
  return total;
}

}  // namespace

ExtentCacheOwner::ExtentCacheOwner() : id_(BlockCache::new_owner_id()) {}

ExtentCacheOwner::~ExtentCacheOwner() {
  BlockCache::instance().erase_owner(id_);
}

ColumnarExtent::Group ColumnarExtent::encode_group(const Row* rows,
                                                   std::size_t n) {
  Group g;
  g.meta.rows = static_cast<std::uint32_t>(n);
  g.meta.first = rows[0].key;
  g.meta.last = rows[n - 1].key;

  std::string body;
  // write_ts column: zigzag deltas (timestamps are near-monotonic).
  std::int64_t prev_ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    put_varint(body, zigzag_encode(rows[i].write_ts - prev_ts));
    prev_ts = rows[i].write_ts;
  }
  // Clustering keys: per-row arity, then one value column per part index
  // (rows shorter than the index simply don't contribute).
  std::size_t max_arity = 0;
  for (std::size_t i = 0; i < n; ++i) {
    put_varint(body, rows[i].key.parts.size());
    max_arity = std::max(max_arity, rows[i].key.parts.size());
  }
  for (std::size_t j = 0; j < max_arity; ++j) {
    std::vector<const Value*> column;
    for (std::size_t i = 0; i < n; ++i) {
      if (j < rows[i].key.parts.size()) column.push_back(&rows[i].key.parts[j]);
    }
    encode_value_column(column, body);
  }
  // Cell names: first-appearance dictionary + per-row layout (count + ids
  // in the row's own cell order, so decode rebuilds cells verbatim).
  std::unordered_map<std::string_view, std::uint64_t> name_ids;
  std::vector<const std::string*> names;
  for (std::size_t i = 0; i < n; ++i) {
    for (const Cell& c : rows[i].cells) {
      if (name_ids.try_emplace(c.name, names.size()).second) {
        names.push_back(&c.name);
      }
    }
  }
  put_varint(body, names.size());
  for (const std::string* s : names) put_string(body, *s);
  for (std::size_t i = 0; i < n; ++i) {
    put_varint(body, rows[i].cells.size());
    for (const Cell& c : rows[i].cells) put_varint(body, name_ids[c.name]);
  }
  // One value column per cell name, values in (row, occurrence) order.
  for (std::size_t c = 0; c < names.size(); ++c) {
    std::vector<const Value*> column;
    for (std::size_t i = 0; i < n; ++i) {
      for (const Cell& cell : rows[i].cells) {
        if (name_ids[cell.name] == c) column.push_back(&cell.value);
      }
    }
    put_varint(body, column.size());
    encode_value_column(column, body);
  }

  g.meta.raw_size = static_cast<std::uint32_t>(body.size());
  g.body = codec::block_compress(body);
  g.meta.length = static_cast<std::uint32_t>(g.body.size());
  return g;
}

ColumnarExtent ColumnarExtent::encode(const std::vector<Row>& rows,
                                      const ExtentOptions& opts) {
  ColumnarExtent ext;
  ext.rows_ = rows.size();
  for (const Row& r : rows) ext.raw_bytes_ += r.memory_bytes();
  const std::size_t per_group = std::max<std::size_t>(opts.rows_per_group, 1);
  for (std::size_t begin = 0; begin < rows.size(); begin += per_group) {
    const std::size_t n = std::min(per_group, rows.size() - begin);
    ext.groups_.push_back(encode_group(rows.data() + begin, n));
  }
  for (const Group& g : ext.groups_) {
    ext.encoded_bytes_ += g.body.size() + g.meta.first.memory_bytes() +
                          g.meta.last.memory_bytes() + sizeof(Group);
  }
  if (opts.cache_decoded) {
    ext.cache_ = std::make_shared<ExtentCacheOwner>();
  }
  return ext;
}

ColumnarExtent ColumnarExtent::from_file(std::shared_ptr<ExtentFile> file,
                                         std::vector<ExtentGroupMeta> groups,
                                         std::uint64_t rows,
                                         std::uint64_t raw_bytes,
                                         const ExtentOptions& opts) {
  ColumnarExtent ext;
  ext.rows_ = static_cast<std::size_t>(rows);
  ext.raw_bytes_ = static_cast<std::size_t>(raw_bytes);
  ext.file_ = std::move(file);
  ext.groups_.reserve(groups.size());
  for (auto& meta : groups) {
    Group g;
    g.meta = std::move(meta);
    ext.encoded_bytes_ += g.meta.length + g.meta.first.memory_bytes() +
                          g.meta.last.memory_bytes() + sizeof(Group);
    ext.groups_.push_back(std::move(g));
  }
  if (opts.cache_decoded) {
    ext.cache_ = std::make_shared<ExtentCacheOwner>();
  }
  return ext;
}

void ColumnarExtent::persist(
    const std::function<std::uint64_t(std::string_view)>& append) {
  for (Group& g : groups_) {
    g.meta.offset = append(g.body);
    g.meta.length = static_cast<std::uint32_t>(g.body.size());
    std::string().swap(g.body);  // the file copy is the only copy now
  }
}

std::vector<ExtentGroupMeta> ColumnarExtent::group_metas() const {
  std::vector<ExtentGroupMeta> out;
  out.reserve(groups_.size());
  for (const Group& g : groups_) out.push_back(g.meta);
  return out;
}

std::vector<Row> ColumnarExtent::decode_group(const Group& g) const {
  decoded_groups_.fetch_add(1, std::memory_order_relaxed);
  std::string scratch;
  std::string_view compressed = g.body;
  if (file_ != nullptr && g.body.empty()) {
    compressed = file_->fetch(g.meta.offset, g.meta.length, scratch);
  }
  std::string body;
  HPCLA_CHECK_MSG(codec::block_decompress(compressed, g.meta.raw_size, body),
                  "corrupt extent group");
  const char* p = body.data();
  const char* end = p + body.size();
  const std::size_t n = g.meta.rows;
  std::vector<Row> rows(n);

  std::int64_t prev_ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t zz = 0;
    p = get_varint(p, end, zz);
    HPCLA_CHECK_MSG(p, "corrupt extent write_ts");
    prev_ts += zigzag_decode(zz);
    rows[i].write_ts = prev_ts;
  }
  std::vector<std::size_t> arity(n);
  std::size_t max_arity = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t a = 0;
    p = get_varint(p, end, a);
    HPCLA_CHECK_MSG(p, "corrupt extent arity");
    arity[i] = static_cast<std::size_t>(a);
    max_arity = std::max(max_arity, arity[i]);
    rows[i].key.parts.resize(arity[i]);
  }
  std::vector<Value> column;
  for (std::size_t j = 0; j < max_arity; ++j) {
    std::size_t present = 0;
    for (std::size_t i = 0; i < n; ++i) present += j < arity[i];
    p = decode_value_column(p, end, present, column);
    HPCLA_CHECK_MSG(p, "corrupt extent key column");
    std::size_t at = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (j < arity[i]) rows[i].key.parts[j] = std::move(column[at++]);
    }
  }
  std::uint64_t name_count = 0;
  p = get_varint(p, end, name_count);
  HPCLA_CHECK_MSG(p, "corrupt extent name dict");
  std::vector<std::string> names(static_cast<std::size_t>(name_count));
  for (auto& s : names) {
    p = get_string(p, end, s);
    HPCLA_CHECK_MSG(p, "corrupt extent name");
  }
  std::vector<std::vector<std::uint64_t>> layout(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t cells = 0;
    p = get_varint(p, end, cells);
    HPCLA_CHECK_MSG(p, "corrupt extent cell count");
    layout[i].resize(static_cast<std::size_t>(cells));
    for (auto& id : layout[i]) {
      p = get_varint(p, end, id);
      HPCLA_CHECK_MSG(p && id < names.size(), "corrupt extent cell id");
    }
    rows[i].cells.reserve(layout[i].size());
  }
  std::vector<std::vector<Value>> columns(names.size());
  std::vector<std::size_t> next(names.size(), 0);
  for (std::size_t c = 0; c < names.size(); ++c) {
    std::uint64_t count = 0;
    p = get_varint(p, end, count);
    HPCLA_CHECK_MSG(p, "corrupt extent column count");
    p = decode_value_column(p, end, static_cast<std::size_t>(count),
                            columns[c]);
    HPCLA_CHECK_MSG(p, "corrupt extent value column");
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::uint64_t id : layout[i]) {
      auto& col = columns[static_cast<std::size_t>(id)];
      auto& pos = next[static_cast<std::size_t>(id)];
      HPCLA_CHECK_MSG(pos < col.size(), "corrupt extent cell stream");
      rows[i].cells.push_back(
          Cell{names[static_cast<std::size_t>(id)], std::move(col[pos++])});
    }
  }
  return rows;
}

std::shared_ptr<const std::vector<Row>> ColumnarExtent::group_rows(
    std::size_t index) const {
  auto& cache = BlockCache::instance();
  if (cache_ != nullptr) {
    if (auto hit = cache.lookup(cache_->id(), index)) {
      return std::static_pointer_cast<const std::vector<Row>>(hit);
    }
  }
  auto rows =
      std::make_shared<const std::vector<Row>>(decode_group(groups_[index]));
  if (cache_ != nullptr) {
    cache.insert(cache_->id(), index, rows, decoded_rows_bytes(*rows));
  }
  return rows;
}

void ColumnarExtent::read(const LimitedSlice& want,
                          std::vector<Row>& out) const {
  // Groups cover ascending, disjoint [first, last] key ranges; only those
  // in [lo, hi) can hold a row the slice admits.
  const ClusteringSlice& slice = want.slice;
  const auto lo_it = std::partition_point(
      groups_.begin(), groups_.end(), [&slice](const Group& g) {
        return slice.lower &&
               g.meta.last.compare(*slice.lower) == std::strong_ordering::less;
      });
  const auto hi_it =
      std::partition_point(lo_it, groups_.end(), [&slice](const Group& g) {
        return !slice.upper ||
               g.meta.first.compare(*slice.upper) == std::strong_ordering::less;
      });
  const auto lo = static_cast<std::size_t>(lo_it - groups_.begin());
  const auto hi = static_cast<std::size_t>(hi_it - groups_.begin());
  // A limited read from the end walks the groups newest first, appending
  // each group's rows newest first, and flips what it appended at the end.
  const bool from_end = want.reverse && want.limit != 0;
  LimitedSlice rest = want;  // what the groups not yet read still owe
  const std::size_t mark = out.size();
  const auto take = [&](auto& rows) {  // moves from owned rows, else copies
    const auto [first, last] = rest.select(rows);
    if (from_end) {
      for (std::size_t k = last; k > first; --k) {
        out.push_back(std::move(rows[k - 1]));
      }
    } else {
      for (std::size_t k = first; k < last; ++k) {
        out.push_back(std::move(rows[k]));
      }
    }
    if (rest.limit == 0) return false;
    rest.limit -= last - first;
    return rest.limit == 0;
  };
  for (std::size_t n = lo; n < hi; ++n) {
    const std::size_t i = from_end ? lo + hi - 1 - n : n;
    bool done = false;
    if (cache_ != nullptr) {
      const auto rows = group_rows(i);
      done = take(*rows);
    } else {
      auto rows = decode_group(groups_[i]);
      done = take(rows);
    }
    if (done) break;
  }
  if (from_end) {
    std::reverse(out.begin() + static_cast<std::ptrdiff_t>(mark), out.end());
  }
}

std::vector<Row> ColumnarExtent::decode_all() const {
  std::vector<Row> out;
  out.reserve(rows_);
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (cache_ != nullptr) {
      const auto rows = group_rows(i);
      for (const Row& row : *rows) out.push_back(row);
    } else {
      for (auto& row : decode_group(groups_[i])) out.push_back(std::move(row));
    }
  }
  return out;
}

}  // namespace hpcla::cassalite
