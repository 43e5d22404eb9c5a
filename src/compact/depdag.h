// Dependence DAG over selected RTs (input to code compaction, paper [17]).
//
// Edges carry a minimum cycle distance. Because the processor class is
// time-stationary with single-cycle RTs, parallel RTs in one instruction
// word read *old* register values:
//   RAW (write -> read)  latency 1   consumer needs the new value
//   WAW (write -> write) latency 1   destination port conflict
//   WAR (read -> write)  latency 0   same-cycle is legal (reads old value)
// Memory is treated as one location per memory instance (two reads are
// independent; read/write and write/write pairs conflict). Labels and
// branches delimit scheduling regions; a branch must be the region's last
// cycle.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "select/selector.h"

namespace record::compact {

/// Edges run forward in region order: `from < to` always. build_regions
/// checks it on every edge it adds, and the scheduler relies on it to
/// settle critical-path heights in one reverse sweep.
struct DepEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  int latency = 1;
  /// Region-termination edge keeping the branch scheduled last; carries no
  /// data dependence, so the delay-slot filler may move the source word
  /// past the branch.
  bool control = false;
};

/// One scheduling region (basic block) of the flattened program.
struct Region {
  std::string label;  // entry label; empty for fall-through regions
  std::vector<const select::SelectedRT*> rts;
  std::vector<DepEdge> edges;
  bool ends_with_branch = false;
};

/// Splits the selection result at labels/branches and builds per-region
/// dependence edges. Throws std::logic_error on a backward edge (an
/// internal error: every edge ends at the RT that induces it).
[[nodiscard]] std::vector<Region> build_regions(
    const select::SelectionResult& sel);

}  // namespace record::compact
