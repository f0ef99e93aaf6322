// Textual/image renderers standing in for the D3/HTML5 frontend.
//
// The paper's frontend draws the physical system map (25×8 cabinet grid),
// heat maps over it, application placements (Fig 5/6), and the temporal
// map. We reproduce each view as deterministic ASCII art (for terminals
// and tests) and the heat map additionally as a PPM image.
#pragma once

#include <string>
#include <vector>

#include "analytics/heatmap.hpp"
#include "analytics/text.hpp"
#include "common/status.hpp"
#include "common/telemetry.hpp"
#include "titanlog/record.hpp"

namespace hpcla::server {

/// ASCII physical system map at cabinet granularity: 25 rows × 8 columns,
/// one glyph per cabinet scaled by its share of the peak count
/// (" .:-=+*#%@"). Includes row/column rulers.
std::string render_cabinet_heatmap(const analytics::HeatMap& hm);

/// ASCII drill-down of one cabinet: 3 cages × 8 slots × 4 nodes, one glyph
/// per node.
std::string render_cabinet_detail(const analytics::HeatMap& hm, int cabinet);

/// Application placement map (Fig 6 bottom): each cabinet shows the letter
/// of the job occupying the most of its nodes at the queried instant
/// ('.' = idle). Returns the map plus a legend line per letter.
std::string render_placement_map(const std::vector<titanlog::JobRecord>& jobs);

/// Temporal map (Fig 5 top): counts per time bin as a one-line spark bar
/// plus labelled axis.
std::string render_temporal_map(const std::vector<double>& series,
                                UnixSeconds window_begin,
                                std::int64_t bin_seconds);

/// Writes the node-level heat map as a binary PPM (P6) image. Each node is
/// one pixel; cabinets are separated by 1-pixel gutters. Black -> red ->
/// yellow -> white color ramp.
Status write_heatmap_ppm(const analytics::HeatMap& hm,
                         const std::string& path);

/// Word-bubble stand-in (Fig 7 bottom): terms sized by count, one per line.
std::string render_word_bubbles(
    const std::vector<analytics::TermCount>& terms);

/// Flame-style text rendering of one trace: spans as an indented tree
/// (children under their parent, siblings in start order), each row showing
/// the span name, compact tags, a right-aligned duration, and a bar scaled
/// to the root span's duration. Orphaned spans (parent evicted or capped)
/// render as extra roots.
std::string render_trace(const std::vector<telemetry::SpanRecord>& spans);

}  // namespace hpcla::server
