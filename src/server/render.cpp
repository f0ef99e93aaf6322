#include "server/render.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>

namespace hpcla::server {

using topo::TitanGeometry;

namespace {

constexpr std::string_view kRamp = " .:-=+*#%@";

char intensity_glyph(std::int64_t count, std::int64_t peak) {
  if (count <= 0 || peak <= 0) return kRamp[0];
  const auto idx = 1 + static_cast<std::size_t>(
                           static_cast<double>(count) /
                           static_cast<double>(peak) *
                           static_cast<double>(kRamp.size() - 2));
  return kRamp[std::min(idx, kRamp.size() - 1)];
}

}  // namespace

std::string render_cabinet_heatmap(const analytics::HeatMap& hm) {
  const auto cabinets = hm.cabinet_counts();
  std::int64_t peak = 0;
  for (auto c : cabinets) peak = std::max(peak, c);

  std::string out = "     c0 c1 c2 c3 c4 c5 c6 c7   (columns)\n";
  for (int row = 0; row < TitanGeometry::kRows; ++row) {
    char head[16];
    std::snprintf(head, sizeof(head), "r%02d | ", row);
    out += head;
    for (int col = 0; col < TitanGeometry::kCols; ++col) {
      const auto idx =
          static_cast<std::size_t>(row * TitanGeometry::kCols + col);
      out.push_back(intensity_glyph(cabinets[idx], peak));
      out += "  ";
    }
    out.push_back('\n');
  }
  char tail[96];
  std::snprintf(tail, sizeof(tail),
                "total=%lld peak_cabinet_count=%lld scale=\"%s\"\n",
                static_cast<long long>(hm.total),
                static_cast<long long>(peak), std::string(kRamp).c_str());
  out += tail;
  return out;
}

std::string render_cabinet_detail(const analytics::HeatMap& hm, int cabinet) {
  HPCLA_CHECK_MSG(cabinet >= 0 && cabinet < TitanGeometry::kCabinets,
                  "cabinet index out of range");
  const topo::NodeId first =
      static_cast<topo::NodeId>(cabinet) * TitanGeometry::kNodesPerCabinet;
  std::int64_t peak = 0;
  for (int i = 0; i < TitanGeometry::kNodesPerCabinet; ++i) {
    peak = std::max(peak,
                    hm.node_counts[static_cast<std::size_t>(first + i)]);
  }
  const topo::Coord cab = topo::coord_of(first);
  std::string out = "cabinet " +
                    topo::format_cname(topo::Coord{cab.row, cab.col, -1, -1, -1}) +
                    "  (rows: cage/node, cols: slot)\n";
  for (int cage = 0; cage < TitanGeometry::kCagesPerCabinet; ++cage) {
    for (int node = 0; node < TitanGeometry::kNodesPerBlade; ++node) {
      char head[16];
      std::snprintf(head, sizeof(head), "c%dn%d | ", cage, node);
      out += head;
      for (int slot = 0; slot < TitanGeometry::kSlotsPerCage; ++slot) {
        const topo::NodeId id = topo::node_id(
            topo::Coord{cab.row, cab.col, cage, slot, node});
        out.push_back(
            intensity_glyph(hm.node_counts[static_cast<std::size_t>(id)],
                            peak));
        out.push_back(' ');
      }
      out.push_back('\n');
    }
  }
  return out;
}

std::string render_placement_map(
    const std::vector<titanlog::JobRecord>& jobs) {
  // Dominant job per cabinet; letters assigned by allocation size.
  std::vector<const titanlog::JobRecord*> ordered;
  ordered.reserve(jobs.size());
  for (const auto& j : jobs) ordered.push_back(&j);
  std::sort(ordered.begin(), ordered.end(),
            [](const titanlog::JobRecord* a, const titanlog::JobRecord* b) {
              if (a->nodes.size() != b->nodes.size()) {
                return a->nodes.size() > b->nodes.size();
              }
              return a->apid < b->apid;
            });
  std::map<std::int64_t, char> letters;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    letters[ordered[i]->apid] =
        i < 26 ? static_cast<char>('A' + i) : '+';
  }
  // Per-cabinet occupancy.
  std::vector<std::map<std::int64_t, int>> per_cabinet(
      static_cast<std::size_t>(TitanGeometry::kCabinets));
  for (const auto& j : jobs) {
    for (const auto n : j.nodes) {
      per_cabinet[static_cast<std::size_t>(topo::cabinet_of(n))][j.apid]++;
    }
  }

  std::string out = "     c0 c1 c2 c3 c4 c5 c6 c7   (columns)\n";
  for (int row = 0; row < TitanGeometry::kRows; ++row) {
    char head[16];
    std::snprintf(head, sizeof(head), "r%02d | ", row);
    out += head;
    for (int col = 0; col < TitanGeometry::kCols; ++col) {
      const auto& occ =
          per_cabinet[static_cast<std::size_t>(row * TitanGeometry::kCols + col)];
      char glyph = '.';
      int best = 0;
      for (const auto& [apid, count] : occ) {
        if (count > best) {
          best = count;
          glyph = letters[apid];
        }
      }
      out.push_back(glyph);
      out += "  ";
    }
    out.push_back('\n');
  }
  // Legend: at most 26 lettered jobs.
  for (std::size_t i = 0; i < ordered.size() && i < 26; ++i) {
    char line[160];
    std::snprintf(line, sizeof(line), "%c: apid=%lld app=%s user=%s nodes=%zu\n",
                  static_cast<char>('A' + i),
                  static_cast<long long>(ordered[i]->apid),
                  ordered[i]->app_name.c_str(), ordered[i]->user.c_str(),
                  ordered[i]->nodes.size());
    out += line;
  }
  return out;
}

std::string render_temporal_map(const std::vector<double>& series,
                                UnixSeconds window_begin,
                                std::int64_t bin_seconds) {
  double peak = 0.0;
  for (double v : series) peak = std::max(peak, v);
  std::string out = "temporal map (bin=" + std::to_string(bin_seconds) +
                    "s, start=" + format_timestamp(window_begin) + ")\n|";
  for (double v : series) {
    out.push_back(intensity_glyph(static_cast<std::int64_t>(v),
                                  static_cast<std::int64_t>(peak)));
  }
  out += "|\npeak_bin_count=" + std::to_string(static_cast<long long>(peak)) +
         "\n";
  return out;
}

Status write_heatmap_ppm(const analytics::HeatMap& hm,
                         const std::string& path) {
  // Layout: one pixel per node. Cabinet cell = 8 (slots) x 12 (cage*node),
  // plus a 1px gutter between cabinets.
  constexpr int kCellW = TitanGeometry::kSlotsPerCage;       // 8
  constexpr int kCellH = TitanGeometry::kCagesPerCabinet *
                         TitanGeometry::kNodesPerBlade;      // 12
  constexpr int kW = TitanGeometry::kCols * (kCellW + 1) - 1;   // 71
  constexpr int kH = TitanGeometry::kRows * (kCellH + 1) - 1;   // 324
  std::vector<unsigned char> pixels(static_cast<std::size_t>(kW * kH * 3), 20);

  const double peak = static_cast<double>(std::max<std::int64_t>(hm.peak, 1));
  for (topo::NodeId id = 0; id < TitanGeometry::kTotalNodes; ++id) {
    const topo::Coord c = topo::coord_of(id);
    const int x = c.col * (kCellW + 1) + c.slot;
    const int y = c.row * (kCellH + 1) + c.cage * TitanGeometry::kNodesPerBlade +
                  c.node;
    const double v =
        static_cast<double>(hm.node_counts[static_cast<std::size_t>(id)]) /
        peak;
    // Black -> red -> yellow -> white ramp.
    const double r = std::min(1.0, v * 3.0);
    const double g = std::clamp(v * 3.0 - 1.0, 0.0, 1.0);
    const double b = std::clamp(v * 3.0 - 2.0, 0.0, 1.0);
    const std::size_t off = (static_cast<std::size_t>(y) * kW +
                             static_cast<std::size_t>(x)) * 3;
    pixels[off] = static_cast<unsigned char>(40 + r * 215);
    pixels[off + 1] = static_cast<unsigned char>(40 + g * 215);
    pixels[off + 2] = static_cast<unsigned char>(40 + b * 215);
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) return invalid_argument("cannot open '" + path + "' for writing");
  out << "P6\n" << kW << " " << kH << "\n255\n";
  out.write(reinterpret_cast<const char*>(pixels.data()),
            static_cast<std::streamsize>(pixels.size()));
  if (!out) return internal_error("short write to '" + path + "'");
  return Status::ok();
}

std::string render_word_bubbles(
    const std::vector<analytics::TermCount>& terms) {
  std::int64_t peak = 0;
  for (const auto& t : terms) peak = std::max(peak, t.count);
  std::string out;
  for (const auto& t : terms) {
    const auto width = peak > 0
                           ? static_cast<std::size_t>(
                                 static_cast<double>(t.count) /
                                 static_cast<double>(peak) * 40.0)
                           : 0;
    char head[64];
    std::snprintf(head, sizeof(head), "%-16s %8lld  ", t.term.c_str(),
                  static_cast<long long>(t.count));
    out += head;
    out.append(std::max<std::size_t>(width, 1), 'o');
    out.push_back('\n');
  }
  return out;
}

std::string render_trace(const std::vector<telemetry::SpanRecord>& spans) {
  if (spans.empty()) return "(empty trace)\n";
  // Index children by parent, siblings ordered by (start, span_id) — span
  // ids are allocated monotonically, so ties (virtual-time replica tries
  // starting at the same instant) keep creation order.
  std::map<std::uint64_t, std::vector<const telemetry::SpanRecord*>> children;
  std::map<std::uint64_t, const telemetry::SpanRecord*> by_id;
  for (const auto& s : spans) by_id[s.span_id] = &s;
  std::vector<const telemetry::SpanRecord*> roots;
  for (const auto& s : spans) {
    if (s.parent_id != 0 && by_id.count(s.parent_id) != 0) {
      children[s.parent_id].push_back(&s);
    } else {
      roots.push_back(&s);
    }
  }
  const auto order = [](const telemetry::SpanRecord* a,
                        const telemetry::SpanRecord* b) {
    if (a->start_us != b->start_us) return a->start_us < b->start_us;
    return a->span_id < b->span_id;
  };
  for (auto& [_, kids] : children) std::sort(kids.begin(), kids.end(), order);
  std::sort(roots.begin(), roots.end(), order);

  std::int64_t scale = 1;
  for (const auto* r : roots) scale = std::max(scale, r->duration_us);

  std::string out;
  constexpr std::size_t kLabelWidth = 56;
  constexpr std::size_t kBarWidth = 20;
  // Nesting beyond this is elided (one marker line per branch): traces
  // from runaway recursion stay renderable with bounded stack and output.
  constexpr int kMaxDepth = 32;
  // Indentation stops growing before it would swallow the whole label
  // column; deeper rows share the maximum indent.
  constexpr int kMaxIndentDepth = 20;
  std::set<std::uint64_t> visited;
  // Marks a whole subtree visited without emitting it — the tail of an
  // over-deep branch, so the flat unreachable-span pass below doesn't
  // resurrect rows the depth limit elided.
  const std::function<void(const telemetry::SpanRecord*)> mark_elided =
      [&](const telemetry::SpanRecord* s) {
        if (!visited.insert(s->span_id).second) return;
        for (const auto* kid : children[s->span_id]) mark_elided(kid);
      };
  const std::function<void(const telemetry::SpanRecord*, int)> emit =
      [&](const telemetry::SpanRecord* s, int depth) {
        // Cycle / duplicate-id guard: corrupted records whose parent chain
        // loops would otherwise recurse forever.
        if (!visited.insert(s->span_id).second) return;
        std::string label(
            static_cast<std::size_t>(std::min(depth, kMaxIndentDepth)) * 2,
            ' ');
        label += s->name;
        for (const auto& [k, v] : s->tags) {
          label += ' ';
          label += k;
          label += '=';
          label += v;
        }
        if (label.size() > kLabelWidth) {
          label.resize(kLabelWidth - 3);
          label += "...";
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %10lld us  ",
                      static_cast<long long>(s->duration_us));
        const auto filled = static_cast<std::size_t>(
            static_cast<double>(std::max<std::int64_t>(s->duration_us, 0)) /
            static_cast<double>(scale) * static_cast<double>(kBarWidth));
        out += label;
        out.append(kLabelWidth - label.size(), ' ');
        out += buf;
        out.append(std::min(filled, kBarWidth), '#');
        out.push_back('\n');
        if (depth >= kMaxDepth) {
          if (!children[s->span_id].empty()) {
            out.append(
                static_cast<std::size_t>(std::min(depth, kMaxIndentDepth) + 1) *
                    2,
                ' ');
            out += "... (deeper spans elided)\n";
            for (const auto* kid : children[s->span_id]) mark_elided(kid);
          }
          return;
        }
        for (const auto* kid : children[s->span_id]) emit(kid, depth + 1);
      };
  for (const auto* r : roots) emit(r, 0);
  // Spans unreachable from any root (their parent chain forms a cycle)
  // render flat at the end so no recorded span silently disappears.
  for (const auto& s : spans) {
    if (visited.count(s.span_id) == 0) emit(&s, 0);
  }
  return out;
}

}  // namespace hpcla::server
